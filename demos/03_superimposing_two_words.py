"""Deciding, counting, and exhibiting superimpositions of two Christoffel words.

Run:  python demos/03_superimposing_two_words.py
"""

from christoffel import (
    SuperimpositionProblem,
    analyze,
    canonical_shift,
    canonical_witness,
    collapse_merge,
    count_superimpositions,
    is_superimposable,
    merge_superimposition,
    oracle_superimposable,
)

# Can C(13,4) and C(13,3) be slid (cyclically) so their marked letters never
# meet?  The whole question reduces to one linear Diophantine equation.
problem = SuperimpositionProblem(n=13, m=13, q=1, alpha=4, beta=3)
sol = analyze(problem).bezout
print(f"solve 4x + 3y = 13 with 1 <= y <= 4:  x={sol.x}, y={sol.y}")
print(f"superimposable (x >= 1)?              {is_superimposable(problem)}")

# The same pair, settled by brute force over all 13 shifts: the witness
# shifts are exactly counted by the closed formula.
u, v = problem.first_word("a", "z"), problem.second_word("b", "z")
verdict = oracle_superimposable(u, v)
print(f"oracle shifts of {v}: {verdict.witnesses}")
print(f"closed-form count:              {count_superimpositions(problem)}")

# One shift always works: reverse the second word and rotate it by 1 - r,
# where r inverts q modulo gcd(n, m).  With q = 1 no rotation is needed.
shift, applies_to_reversal = canonical_shift(problem)
print(f"\ncanonical shift {shift} (applied to the reversed second word)")
u, witness = canonical_witness(problem, "a", "b", "z")
print(f"  {u}")
print(f"  {witness}")

# Stack the two words and then squeeze out the filler: what remains is the
# Christoffel word of the reduced counts, C(4+3, 4).
merged = merge_superimposition(u, witness)
print(f"  {merged}   (merged)")
print(f"  {collapse_merge(merged, 'z')}         (filler removed)")

# Words of different lengths reduce to their gcd length.  C(4,1) and C(6,1)
# overlap at gcd 2, and each admissible shift lifts three ways modulo 6.
wide = SuperimpositionProblem.from_letter_counts(4, 1, 6, 1)
print(f"\nC(4,1) vs C(6,1): superimposable={is_superimposable(wide)}, "
      f"count={count_superimpositions(wide)}")
print("oracle:", oracle_superimposable(wide.first_word(), wide.second_word()).witnesses)
