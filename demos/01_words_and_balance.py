"""Tour of the word primitives: balance, circular balance, conjugation, projection.

Run:  python demos/01_words_and_balance.py
"""

from christoffel import (
    OrderedAlphabet,
    Word,
    conjugate,
    is_balanced,
    is_circularly_balanced,
    is_primitive,
    projection,
    reverse,
)

two = OrderedAlphabet("12")

# A word is balanced when any two factors of the same length contain almost
# the same number of each letter (counts differ by at most one).
u = Word("112121", two)
print(f"{u} balanced?            {is_balanced(u)}")

# Circular balance is stricter: the word must stay balanced when read around
# a circle, i.e. its square must be balanced.  112121 fails because reading
# across the seam produces the factors 111 and 212.
print(f"{u} circularly balanced? {is_circularly_balanced(u)}")

v = Word("112", two)
print(f"{v} circularly balanced? {is_circularly_balanced(v)}")

# Rotations (conjugates) walk the circular word; reversal mirrors it.
print("\nrotations of 112:", ", ".join(conjugate(v, k).symbols for k in range(3)))
print("reverse of 112:  ", reverse(v).symbols)
print("112 primitive?   ", is_primitive(v))
print("121121 primitive?", is_primitive(Word("121121", two)))

# Projection keeps one letter and blanks out the rest.  Projection preserves
# circular balance, so a single unbalanced layer betrays an unbalanced word:
# three layers of this scratch word inherit its defect.
w = Word("1232343112", OrderedAlphabet("1234"))
print(f"\n{w} circularly balanced? {is_circularly_balanced(w)}")
for letter in w.alphabet:
    layer = projection(w, letter, "x")
    print(f"  onto {letter}: {layer}   circularly balanced: {is_circularly_balanced(layer)}")
