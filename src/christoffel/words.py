"""Finite words over ordered alphabets: balance, conjugation, projection, decimation."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from math import gcd


def _is_letter(c) -> bool:
    """True iff `c` is a single printable character, the one test on every letter."""
    return isinstance(c, str) and len(c) == 1 and c.isprintable()


@dataclass(frozen=True)
class OrderedAlphabet:
    """A totally ordered alphabet of distinct single-character letters."""

    letters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValueError("alphabet must contain at least one letter")
        for c in self.letters:
            if not _is_letter(c):
                raise ValueError(f"letter {c!r} is not a single printable character")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"alphabet letters must be distinct: {self.letters}")

    def __contains__(self, letter):
        return letter in self.letters

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def index(self, letter: str) -> int:
        """Position of `letter` in the order; ValueError if it is not in the alphabet."""
        if letter not in self.letters:
            raise ValueError(f"letter {letter!r} not in alphabet {self.letters}")
        return self.letters.index(letter)

    def without(self, letter: str) -> "OrderedAlphabet":
        """The alphabet with one letter removed, order preserved."""
        self.index(letter)
        return OrderedAlphabet(tuple(c for c in self.letters if c != letter))


def alphabet(letters) -> OrderedAlphabet:
    """Build an OrderedAlphabet from a string or letter sequence, e.g. alphabet("ax")."""
    return OrderedAlphabet(tuple(letters))


@dataclass(frozen=True)
class Word:
    """A finite word: a string of symbols together with its ordered alphabet."""

    symbols: str
    alphabet: OrderedAlphabet

    def __post_init__(self):
        symbols = self.symbols
        # The letters are distinct single characters, so in a str their
        # counts add up to the length exactly when no other symbol occurs.
        if isinstance(symbols, str) and sum(map(symbols.count, self.alphabet.letters)) == len(symbols):
            return
        # Other input is walked too, so its first foreign symbol is named.
        for i, c in enumerate(symbols):
            if c not in self.alphabet:
                raise ValueError(
                    f"symbol {c!r} at index {i} is not in alphabet {self.alphabet.letters}"
                )
        if not isinstance(symbols, str):
            raise ValueError(f"symbols must be a str, not {type(symbols).__name__}")

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __str__(self):
        return self.symbols


def make_word(symbols, alpha: OrderedAlphabet) -> Word:
    """Build a word over the given alphabet, rejecting foreign symbols."""
    if not isinstance(symbols, str):
        symbols = "".join(symbols)
    return Word(symbols, alpha)


def count_letter(w: Word, letter: str) -> int:
    """Number of occurrences of `letter` in `w`."""
    w.alphabet.index(letter)
    return w.symbols.count(letter)


def _letters_to_test(s: str) -> set[str]:
    """The letters whose 0/1 indicators decide (circular) balance of `s`.

    Balance holds iff it holds for every letter's indicator.  With exactly two
    letters the indicators are complements, so testing the rarer one suffices.
    """
    letters = set(s)
    if len(letters) == 2:
        letters.remove(max(letters, key=s.count))
    return letters


def _hull(points: list[tuple[int, int]], sign: int) -> list[tuple[int, int]]:
    """Monotone chain over points sorted by x: the upper hull for sign 1, the lower for -1."""
    hull: list[tuple[int, int]] = []
    for x, y in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if sign * ((x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)) < 0:
                break
            hull.pop()
        hull.append((x, y))
    return hull


def _in_strip(upper: list[tuple[int, int]], lower: list[tuple[int, int]]) -> bool:
    """True iff some slope p/q puts every q*y - p*x of the hulled points in a window narrower than q.

    The width max(q*y - p*x) - min(q*y - p*x), as a function of the slope, is
    convex and bends only at the hulls' edge slopes, so testing those suffices.
    They are visited in increasing order: the upper chain's from its right
    end, the lower chain's from its left, so the upper and lower extreme
    vertices each move one way only and the pass is linear.
    """
    i, j = len(upper) - 1, 0
    while i > 0 or j < len(lower) - 1:
        up = low = None
        if i > 0:
            (x0, y0), (x1, y1) = upper[i - 1], upper[i]
            up = (y1 - y0, x1 - x0)
        if j < len(lower) - 1:
            (x0, y0), (x1, y1) = lower[j], lower[j + 1]
            low = (y1 - y0, x1 - x0)
        if low is None or (up is not None and up[0] * low[1] <= low[0] * up[1]):
            p, q = up
            i -= 1
        else:
            p, q = low
            j += 1
        (xu, yu), (xl, yl) = upper[i], lower[j]
        if q * (yu - yl) - p * (xu - xl) < q:
            return True
    return False


def _indicator_balanced(s: str, letter: str) -> bool:
    """True iff the 0/1 indicator of `letter` in `s` is balanced.

    With h_i the count of `letter` in the first i symbols, the indicator is
    balanced iff the points (i, h_i) fit in a digital straight segment: some
    slope p/q keeps every q*h_i - p*i inside a window narrower than q.  Only
    the convex hulls matter, and their corners sit where a run of `letter`
    ends (upper hull) or starts (lower hull), so the points are read off the
    runs.
    """
    n = len(s)
    upper, lower = [(0, 0)], [(0, 0)]
    h = 0
    for run in re.finditer(re.escape(letter) + "+", s):
        start, end = run.span()
        if start:
            lower.append((start, h))
        h += end - start
        if end < n:
            upper.append((end, h))
    upper.append((n, h))
    lower.append((n, h))
    return _in_strip(_hull(upper, 1), _hull(lower, -1))


def _christoffel_symbols(n: int, alpha: int, low, high):
    """The Christoffel word C(n, alpha) (or its power), 0 <= alpha <= n.

    It is a str over str letters and bytes over one-byte letters.

    With r = gcd(n, alpha) it is the r-th power of the primitive word with
    (a, b) = (alpha/r, (n - alpha)/r) letters.  That word follows Euclid's
    algorithm on (a, b): when a >= b, with k = a // b, it is the image of the
    word for (a - k*b, b) under high -> low**k high; otherwise, with
    k = b // a, the image of the word for (a, b - k*a) under
    low -> low high**k (Berstel, Lauve, Reutenauer, Saliola 2008).  The
    recursion ends at a single letter, and each step is one replace.
    """
    r = gcd(n, alpha)
    a, b = alpha // r, (n - alpha) // r
    steps = []
    while a and b:
        if a >= b:
            k, a = divmod(a, b)
            steps.append((high, low * k + high))
        else:
            k, b = divmod(b, a)
            steps.append((low, low + high * k))
    s = low if a else high
    for old, new in reversed(steps):
        s = s.replace(old, new)
    return s * r


def _indicator_circularly_balanced(s: str, letter: str) -> bool:
    """True iff the 0/1 indicator of `letter` in `s` is circularly balanced.

    With k occurrences in length n, that holds iff the indicator is a
    conjugate of the mechanical word whose i-th letter is
    (i+1)*k//n - i*k//n, which is C(n, n - k) over (0 < 1) or its power
    (Berstel, Lauve, Reutenauer, Saliola 2008).
    """
    n, k = len(s), s.count(letter)
    mech = _christoffel_symbols(n, n - k, "0", "1")
    indicator = s.translate({ord(c): "1" if c == letter else "0" for c in set(s)})
    return indicator in mech + mech


def is_balanced(w: Word) -> bool:
    """True iff all equal-length factors of `w` have letter counts within 1."""
    return all(_indicator_balanced(w.symbols, c) for c in _letters_to_test(w.symbols))


def is_circularly_balanced(w: Word) -> bool:
    """True iff ww is balanced, i.e. `w` is balanced read cyclically."""
    return all(_indicator_circularly_balanced(w.symbols, c) for c in _letters_to_test(w.symbols))


def reverse(w: Word) -> Word:
    """The mirror image of `w`, over the same alphabet."""
    return Word(w.symbols[::-1], w.alphabet)


def conjugate(w: Word, k: int) -> Word:
    """The k-th conjugate of `w`: rotate the first k letters to the end.

    k is taken modulo len(w); negative k rotates the other way.
    """
    n = len(w)
    if n == 0:
        if k != 0:
            raise ValueError("cannot rotate the empty word by a nonzero amount")
        return w
    k %= n
    return Word(w.symbols[k:] + w.symbols[:k], w.alphabet)


def is_primitive(w: Word) -> bool:
    """True iff `w` is not a power of a strictly shorter word."""
    s = w.symbols
    if not s:
        raise ValueError("primitivity is undefined for the empty word")
    # w is a proper power iff it occurs in ww at a shift strictly inside (0, n).
    return (s + s).find(s, 1) == len(s)


def projection(w: Word, letter: str, filler: str) -> Word:
    """Keep `letter` where it occurs and replace every other symbol by `filler`.

    The result is a word over the two-letter alphabet (letter, filler).
    """
    w.alphabet.index(letter)
    if filler in w.alphabet:
        raise ValueError(f"filler {filler!r} collides with the alphabet {w.alphabet.letters}")
    out = w.symbols.translate({ord(c): filler for c in w.alphabet.letters if c != letter})
    return Word(out, OrderedAlphabet((letter, filler)))


class Direction(Enum):
    LEFT_TO_RIGHT = "left-to-right"
    RIGHT_TO_LEFT = "right-to-left"


@dataclass(frozen=True)
class DecimationSpec:
    """Remove p occurrences out of every q of `letter`, scanning in `direction`."""

    p: int
    q: int
    direction: Direction
    letter: str = field(default="a")

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("block size q must be positive")
        if not 0 <= self.p <= self.q:
            raise ValueError(f"need 0 <= p <= q, got p={self.p}, q={self.q}")


def decimate(w: Word, spec: DecimationSpec) -> Word:
    """Delete target-letter occurrences blockwise.

    With the occurrences of the target letter numbered 1..N, block l
    (l = 0..N//q) marks occurrences l*q+1 .. l*q+p for deletion when scanning
    left to right, and N-l*q .. N-l*q-p+1 when scanning right to left.
    Occurrence numbers falling outside 1..N are skipped; other letters are
    never touched.
    """
    w.alphabet.index(spec.letter)
    # Occurrence j of the letter sits between pieces j-1 and j; it is rejoined
    # as "" when deleted and as the letter when kept.
    pieces = w.symbols.split(spec.letter)
    n_occ = len(pieces) - 1
    joiners = (([""] * spec.p + [spec.letter] * (spec.q - spec.p)) * (n_occ // spec.q + 1))[:n_occ]
    if spec.direction is Direction.RIGHT_TO_LEFT:
        joiners.reverse()
    out = [""] * (2 * n_occ + 1)
    out[::2] = pieces
    out[1::2] = joiners
    return Word("".join(out), w.alphabet)
