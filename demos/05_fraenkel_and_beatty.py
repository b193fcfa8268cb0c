"""Fraenkel words, their balanced layers, and disjoint Beatty sequences.

Run:  python demos/05_fraenkel_and_beatty.py
"""

from fractions import Fraction

from christoffel import (
    BeattySpec,
    beatty_disjoint_exists,
    beatty_slice,
    fraenkel_word,
    is_circularly_balanced,
    letter_frequencies,
    oracle_beatty_disjoint,
    projection,
)

# The Fraenkel word doubles at every step and gives each letter its own
# frequency: letter i appears 2^(k-i) times.
for k in (1, 2, 3, 4):
    word = fraenkel_word(k)
    print(f"F_{k} = {word}")
print("frequencies of F_4:", letter_frequencies(fraenkel_word(4)))

# Every projection of a Fraenkel word is a circularly balanced two-letter
# word, so F_k splits into k balanced layers that never collide.
word = fraenkel_word(3)
print(f"\nlayers of {word}:")
for letter in word.alphabet:
    layer = projection(word, letter, "x")
    print(f"  {layer}   circularly balanced: {is_circularly_balanced(layer)}")

# Beatty sequences are the number-theoretic face of the same objects.
spec = BeattySpec(13, 4)
print(f"\nfloor(13n/4) for n = 1..8: {beatty_slice(spec, 1, 8)}")
offset = BeattySpec(13, 4, Fraction(1, 2))
print(f"same slope, offset 1/2:    {beatty_slice(offset, 1, 8)}")

# Two rational Beatty sequences can be made disjoint by choosing offsets
# exactly when a linear equation in the slope data has a positive solution.
print("\nslopes 13/4 and 13/3:", beatty_disjoint_exists(13, 4, 13, 3))
print("slopes 3/1 and 4/1:  ", beatty_disjoint_exists(3, 1, 4, 1))

found = oracle_beatty_disjoint(13, 4, 13, 3)
print(f"grid search agrees: {found.disjoint_possible}, witness offsets {found.offsets}")
