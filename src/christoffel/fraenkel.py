"""Fraenkel words, rational Beatty sequences, and the disjointness criterion."""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd

from .superimpose import _bezout
from .words import OrderedAlphabet, Word, _Value, _ints, _prechecked_word

__all__ = ("BeattySpec", "beatty_disjoint_exists", "beatty_slice", "fraenkel_word", "letter_frequencies")

# Letter for recursion index i; indices past 9 continue through the uppercase
# alphabet so every letter stays a single character.
_INDEX_LETTERS = "123456789ABCDEFGHIJK"
MAX_FRAENKEL_INDEX = len(_INDEX_LETTERS)


def fraenkel_word(k: int) -> Word:
    """The k-th Fraenkel word: F_1 = 1 and F_k = F_{k-1} k F_{k-1}.

    Length 2**k - 1, with letter i occurring 2**(k-i) times.  k is capped at
    20 to keep the doubling recursion bounded.
    """
    _ints(("k",), k)
    if not 1 <= k <= MAX_FRAENKEL_INDEX:
        raise ValueError(f"index must lie in [1, {MAX_FRAENKEL_INDEX}], got {k}")
    word = _INDEX_LETTERS[0]
    for i in range(1, k):
        word = word + _INDEX_LETTERS[i] + word
    # Built from the first k index letters only.
    return _prechecked_word(word, OrderedAlphabet(tuple(_INDEX_LETTERS[:k])))


def letter_frequencies(w: Word) -> dict[str, int]:
    """Occurrence count of every alphabet letter, including absent ones."""
    return {c: w.symbols.count(c) for c in w.alphabet.letters}


class BeattySpec(_Value):
    """A rational Beatty sequence floor(slope*i + offset), slope = numerator/denominator."""

    _fields = __slots__ = ("numerator", "denominator", "offset")

    def __init__(self, numerator: int, denominator: int, offset: Fraction = Fraction(0)):
        _ints(("numerator", "denominator"), numerator, denominator)
        if isinstance(offset, (float, bool)):
            raise TypeError(f"offset must be exact; pass a Fraction or a string, got {offset!r}")
        if denominator < 1:
            raise ValueError("denominator must be positive")
        try:
            exact = Fraction(offset)
        except TypeError:
            raise TypeError(f"offset must be a Fraction, an int or a string, got {offset!r}") from None
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"offset is not a finite rational number: {offset!r}") from None
        _set_numerator(self, numerator)
        _set_denominator(self, denominator)
        _set_offset(self, exact)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


_set_numerator, _set_denominator, _set_offset = BeattySpec._setters


def beatty_slice(spec: BeattySpec, lo: int, hi: int) -> list[int]:
    """The terms floor(slope*i + offset) for i = lo..hi, in exact arithmetic."""
    _ints(("lo", "hi"), lo, hi)
    if lo > hi:
        raise ValueError(f"empty index range: {lo} > {hi}")
    slope = spec.slope
    return [floor(slope * i + spec.offset) for i in range(lo, hi + 1)]


def beatty_disjoint_exists(p1: int, q1: int, p2: int, q2: int) -> bool:
    """Whether offsets exist making the Beatty sequences of slopes p1/q1, p2/q2 disjoint.

    floor(p*i/q + b) depends only on the reduced slope, so both are reduced first.
    One period of it marks a conjugate of C(p, q): the answer is the superimposition
    decision at lengths p1, p2 and marked counts q1, q2 (False for slopes <= 1).
    """
    if not type(p1) is type(q1) is type(p2) is type(q2) is int:
        _ints(("p1", "q1", "p2", "q2"), p1, q1, p2, q2)
    if not (p1 > 0 < q1 and p2 > 0 < q2):
        raise ValueError("slope parameters must be positive")
    g1, g2 = gcd(p1, q1), gcd(p2, q2)
    p1, q1, p2, q2 = p1 // g1, q1 // g1, p2 // g2, q2 // g2
    q = gcd(q1, q2)
    return _bezout(gcd(p1, p2), q, q1 // q, q2 // q)[0] >= 1
