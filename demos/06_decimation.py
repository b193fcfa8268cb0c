"""Decimation: thinning a letter blockwise, and how it rebuilds a superimposition.

Run:  python demos/06_decimation.py
"""

from christoffel import (
    ChristoffelSpec,
    DecimationSpec,
    Direction,
    OrderedAlphabet,
    SuperimpositionProblem,
    Word,
    canonical_witness,
    christoffel_word,
    collapse_merge,
    decimate,
    merge_superimposition,
)

# Remove 1 of every 3 a's scanning right to left, then 1 of every 2 b's
# scanning left to right.
w = Word("aabaabababa", OrderedAlphabet("ab"))
step1 = decimate(w, DecimationSpec(1, 3, Direction.RIGHT_TO_LEFT, "a"))
step2 = decimate(step1, DecimationSpec(1, 2, Direction.LEFT_TO_RIGHT, "b"))
print(f"{w}  -> {step1} -> {step2}")

# Decimating a Christoffel word leaves a Christoffel word.  Overlaying
# C(13,4) with the conjugate of C(13,3) and dropping the filler gives
# C(7,4); the same word falls out of t = C(13,4) over (a < b) by erasing
# 2 of every 3 b's from the left.
problem = SuperimpositionProblem(13, 13, 1, 4, 3)
u, witness = canonical_witness(problem, "a", "b", "z")
overlay = collapse_merge(merge_superimposition(u, witness), "z")
print(f"\noverlay route:    {u} + {witness} -> {overlay}")

t = christoffel_word(ChristoffelSpec(13, 4, "a", "b"))
thinned = decimate(t, DecimationSpec(2, 3, Direction.LEFT_TO_RIGHT, "b"))
print(f"decimation route: {t} -> {thinned}")
assert thinned == overlay == christoffel_word(ChristoffelSpec(7, 4, "a", "b"))
print("both equal C(7,4)")
