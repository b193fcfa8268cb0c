"""Superimposition of two Christoffel words: decision, count, and witness shifts.

Two periodic words over {mark, filler} alphabets superimpose when some cyclic
shift makes their marked-letter position sets disjoint as subsets of the
integers.  The fast paths here solve one windowed Bezout equation (`_bezout`)
to decide that question, count the admissible shifts, give the offsets of the
blocked-shift intervals behind the count, and produce one shift that always
works; the oracle module re-derives everything by exhaustion.
"""

from __future__ import annotations

from math import gcd

from .christoffel import _word
from .words import Word, _Value, _ints, _prechecked_alphabet, _prechecked_word, conjugate, reverse

__all__ = (
    "BezoutSolution", "SuperimpositionProblem", "SuperimpositionReport", "analyze", "canonical_shift",
    "canonical_witness", "collapse_merge", "count_superimpositions", "interval_offsets",
    "is_superimposable", "merge_superimposition", "perfectly_superimposable",
    "reversal_superimposition_criterion",
)


class SuperimpositionProblem(_Value):
    """The pair C(n, q*alpha) over (a < x) and C(m, q*beta) over (b < x).

    alpha and beta are the reduced marked-letter counts, q their common
    factor.  Both total counts must be coprime to their word lengths, so each
    operand is a primitive Christoffel word.
    """

    _fields = __slots__ = ("n", "m", "q", "alpha", "beta")

    def __init__(self, n: int, m: int, q: int, alpha: int, beta: int):
        if not type(n) is type(m) is type(q) is type(alpha) is type(beta) is int:
            _ints(self._fields, n, m, q, alpha, beta)
        if not (n > 0 < m and q > 0 < alpha and beta > 0):
            name = next(name for name, value in zip(self._fields, (n, m, q, alpha, beta))
                        if value < 1)
            raise ValueError(f"{name} must be positive")
        if gcd(alpha, beta) != 1:
            raise ValueError(f"alpha and beta must be coprime, got {alpha}, {beta}")
        if q * alpha > n or gcd(q * alpha, n) != 1:
            raise ValueError(f"first marked count {q * alpha} must be <= and coprime to n={n}")
        if q * beta > m or gcd(q * beta, m) != 1:
            raise ValueError(f"second marked count {q * beta} must be <= and coprime to m={m}")
        _set_n(self, n)
        _set_m(self, m)
        _set_q(self, q)
        _set_alpha(self, alpha)
        _set_beta(self, beta)

    @classmethod
    def from_letter_counts(cls, n: int, a_count: int, m: int, b_count: int) -> "SuperimpositionProblem":
        """Decompose raw marked-letter counts as q*alpha, q*beta with q = gcd."""
        if not type(n) is type(a_count) is type(m) is type(b_count) is int:
            _ints(("n", "a_count", "m", "b_count"), n, a_count, m, b_count)
        if not (n > 0 < a_count and m > 0 < b_count):
            counts = "marked-letter counts must be positive"
            checks = (n, "n must be positive"), (a_count, counts), (m, "m must be positive"), (b_count, counts)
            raise ValueError(next(message for value, message in checks if value < 1))
        q = gcd(a_count, b_count)
        return cls(n, m, q, a_count // q, b_count // q)

    @property
    def p(self) -> int:
        return gcd(self.n, self.m)

    # __init__ has checked the lengths and counts; the letters get
    # ChristoffelSpec's checks and errors.
    def first_word(self, mark: str = "a", filler: str = "x") -> Word:
        return _word(self.n, self.q * self.alpha, mark, filler)

    def second_word(self, mark: str = "b", filler: str = "x") -> Word:
        return _word(self.m, self.q * self.beta, mark, filler)


_set_n, _set_m, _set_q, _set_alpha, _set_beta = SuperimpositionProblem._setters


class BezoutSolution(_Value):
    """(x, y) of the decision equation with 1 <= y <= alpha, and z = alpha - y for the count."""

    _fields = __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)


_set_x, _set_y, _set_z = BezoutSolution._setters


def _bezout(p: int, q: int, alpha: int, beta: int) -> tuple[int, int]:
    """The unique (x, y) of x*alpha + y*beta = p - 2*alpha*beta*(q-1) with 1 <= y <= alpha; criteria ask x >= 1.

    beta is inverted modulo alpha with a bare pow, because every caller has
    already proven gcd(alpha, beta) = 1: SuperimpositionProblem and
    reversal_superimposition_criterion check it, and beatty_disjoint_exists
    divides both marked counts by their gcd.  The same problem checks also
    prove what `_shift` inverts: gcd(q*alpha, n) = 1 makes q coprime to n,
    hence to p = gcd(n, m).
    """
    rhs = p - 2 * alpha * beta * (q - 1)
    y = (rhs * pow(beta, -1, alpha)) % alpha or alpha
    return (rhs - y * beta) // alpha, y


def is_superimposable(problem: SuperimpositionProblem) -> bool:
    """True iff some cyclic shift separates the two marked position sets."""
    return _bezout(gcd(problem.n, problem.m), problem.q, problem.alpha, problem.beta)[0] >= 1


def _count(problem: SuperimpositionProblem, p: int, x: int, y: int) -> int:
    if x < 1:
        return 0
    a, b = problem.alpha, problem.beta
    base = x * y if x <= b else x * a + y * b - a * b
    return base * (max(problem.n, problem.m) // p)


def _shift(problem: SuperimpositionProblem, p: int) -> int:
    return (1 - pow(problem.q, -1, p)) % problem.m  # q is coprime to p: see _bezout


def count_superimpositions(problem: SuperimpositionProblem) -> int:
    """Number of admissible shifts of the longer word, modulo max(n, m).

    For equal lengths this is xy when x <= beta and x*alpha + y*beta -
    alpha*beta otherwise; unequal lengths scale the gcd-length count by
    max(n, m) / gcd(n, m).  Shifts are counted on the longer operand (the
    operands are swapped internally when needed), matching the oracle.
    """
    p = gcd(problem.n, problem.m)
    return _count(problem, p, *_bezout(p, problem.q, problem.alpha, problem.beta))


def canonical_shift(problem: SuperimpositionProblem) -> tuple[int, bool]:
    """A shift that always works: rotate the reversed second word by 1 - r.

    r is the inverse of q modulo p = gcd(n, m).  Returns (shift mod m, True);
    the flag records that the shift applies to the reversed second operand.
    """
    if not is_superimposable(problem):
        raise ValueError("the two words are not superimposable; no shift exists")
    return _shift(problem, gcd(problem.n, problem.m)), True


def interval_offsets(problem: SuperimpositionProblem) -> tuple[int, ...]:
    """Offsets r*(x + (2q-1)*beta) - floor(z*r/alpha)*beta, r < alpha, of the blocked-shift intervals.

    Interval r is [-(q-1)*beta, q*beta - 1] moved left by offset r; x and z
    come from one solve.  Checked on every problem with n, m <= 25: the
    residues mod p that no interval covers, times max(n, m)/p, number
    `count_superimpositions`, and k -> e*k mod p, e = -(q*beta)^-1 mod p
    (negated when n > m), lifted by j*p for j < max(n, m)/p, maps them onto
    the oracle's witnesses.
    """
    q, a, b = problem.q, problem.alpha, problem.beta
    x, y = _bezout(problem.p, q, a, b)
    return tuple(r * (x + (2 * q - 1) * b) - ((a - y) * r // a) * b for r in range(a))


class SuperimpositionReport(_Value):
    """Decision, Bezout pair, shift count, and canonical witness for one problem."""

    _fields = __slots__ = ("superimposable", "bezout", "count", "canonical_shift")

    def __init__(self, superimposable: bool, bezout: BezoutSolution, count: int,
                 canonical_shift: int | None):
        _set_superimposable(self, superimposable)
        _set_bezout(self, bezout)
        _set_count(self, count)
        _set_canonical_shift(self, canonical_shift)


_set_superimposable, _set_bezout, _set_count, _set_canonical_shift = SuperimpositionReport._setters


def analyze(problem: SuperimpositionProblem) -> SuperimpositionReport:
    """Run the full fast path from one solve: decision, count, and canonical witness shift."""
    p = gcd(problem.n, problem.m)
    x, y = _bezout(p, problem.q, problem.alpha, problem.beta)
    ok = x >= 1
    return SuperimpositionReport(ok, BezoutSolution(x, y, problem.alpha - y), _count(problem, p, x, y),
                                 _shift(problem, p) if ok else None)


def _marked_letters(u: Word, v: Word) -> tuple[str, str, str]:
    """Resolve (mark of u, mark of v, shared filler) from two binary alphabets."""
    lu, lv = u.alphabet.letters, v.alphabet.letters
    if len(lu) == 2 == len(lv):
        # An alphabet's letters are distinct, so the filler is u's one letter that v has.
        mark_u, filler = lu if lu[1] in lv else lu[::-1]
        if filler in lv and mark_u not in lv:
            return mark_u, lv[1] if lv[0] == filler else lv[0], filler
    raise ValueError(f"alphabets {lu} and {lv} must share exactly the filler")


def _mark_mask(symbols: str, mark: str, filler: str) -> int:
    """Bit n - 1 - i is set iff letter i of the n letters of `symbols` is `mark`.

    The word is read as a binary numeral, first letter highest; a caller that
    needs bit i for letter i passes the reversed word.
    """
    return int(symbols.translate({ord(mark): "1", ord(filler): "0"}), 2)


def perfectly_superimposable(u: Word, v: Word) -> bool:
    """True iff the marked positions of u and v are disjoint as periodic sets.

    The words repeat with their own lengths n and m as periods.  By the
    Chinese remainder theorem, marks at i (mod n) and j (mod m) meet exactly
    when i = j (mod g), g = gcd(n, m).  So each word's mark mask is folded
    onto g bits, bit r set iff the word has a mark at some index i with
    -1 - i = r (mod g): while more than g bits remain, the mask is cut at
    the smallest multiple of g that holds at least half of them, and the
    part above the cut is OR-ed onto the part below.  Every cut is a
    multiple of g, so each bit keeps its residue mod g.  A mask sets bit
    n - 1 - i for letter i (see `_mark_mask`), and g divides both n and m,
    so letter i lands on residue -1 - i in either word: the words meet iff
    the two folds share a bit.

    That is O(log(n / g) + log(m / g)) big-int operations of O(n + m) bit
    work in all, none when n = m.  The parse of a word holds one translated
    copy of its string and then its mask of about n/8 bytes, so memory peaks
    near 1.3*max(n, m) bytes for one-byte letters.
    """
    n, m = len(u.symbols), len(v.symbols)
    if n == 0 or m == 0:
        raise ValueError("superimposition needs nonempty words")
    mark_u, mark_v, filler = _marked_letters(u, v)
    g = gcd(n, m)

    def fold(mask: int, width: int) -> int:
        while width > g:
            width = (width // g + 1) // 2 * g
            mask = mask & ((1 << width) - 1) | mask >> width
        return mask

    return not fold(_mark_mask(u.symbols, mark_u, filler), n) & fold(_mark_mask(v.symbols, mark_v, filler), m)


def merge_superimposition(u: Word, v: Word) -> Word:
    """Overlay two perfectly superimposable equal-length words into one.

    Position i carries u's mark if u has it there, v's mark if v does, and
    the shared filler otherwise.  Each word is coded one byte per letter, u's
    mark as 1, v's as 2 and the filler as 0, and the two codes are added as
    big-endian ints.  A byte of the sum is at most 1 + 2 = 3, so nothing
    carries and byte i of the sum is the sum of the two bytes i: it is 3
    exactly where both words have a mark, and the first byte 3 is the first
    collision.
    """
    n = len(u)
    if n != len(v):
        raise ValueError(f"length mismatch: {n} vs {len(v)}")
    mark_u, mark_v, filler = _marked_letters(u, v)

    def code(w: Word, mark: str, byte: str) -> int:
        return int.from_bytes(w.symbols.translate({ord(mark): byte, ord(filler): "\x00"})
                              .encode("latin-1"), "big")

    merged = (code(u, mark_u, "\x01") + code(v, mark_v, "\x02")).to_bytes(n, "big")
    i = merged.find(3)
    if i >= 0:
        raise ValueError(f"marked letters collide at position {i}")
    # The three letters are distinct single characters, checked with the two
    # alphabets, and every byte left is 0, 1 or 2, so nothing is checked again.
    symbols = merged.decode("latin-1").translate({0: filler, 1: mark_u, 2: mark_v})
    return _prechecked_word(symbols, _prechecked_alphabet((mark_u, mark_v, filler)))


def collapse_merge(w: Word, filler: str) -> Word:
    """Delete every filler occurrence; the alphabet drops the filler too."""
    if filler not in w.alphabet:
        raise ValueError(f"filler {filler!r} not in alphabet {w.alphabet.letters}")
    return Word(w.symbols.replace(filler, ""), w.alphabet.without(filler))


def reversal_superimposition_criterion(n: int, alpha: int, beta: int) -> bool:
    """Whether C(n, alpha) and the reversal of C(n, beta) are perfectly superimposable.

    Equivalent to the existence of positive integers x, y with
    alpha*x + beta*y = n.  Requires alpha and beta coprime.
    """
    if not type(n) is type(alpha) is type(beta) is int:
        _ints(("n", "alpha", "beta"), n, alpha, beta)
    if n < 1:
        raise ValueError("length must be positive")
    if not (1 <= alpha <= n and 1 <= beta <= n):
        raise ValueError("marked counts must lie in [1, n]")
    if gcd(alpha, beta) != 1:
        raise ValueError(f"alpha and beta must be coprime, got {alpha}, {beta}")
    return _bezout(n, 1, alpha, beta)[0] >= 1


def canonical_witness(problem: SuperimpositionProblem, mark_u: str = "a", mark_v: str = "b",
                      filler: str = "x") -> tuple[Word, Word]:
    """The concrete pair (first word, rotated reversal of second) that overlays cleanly."""
    shift, _ = canonical_shift(problem)
    u = problem.first_word(mark_u, filler)
    v = problem.second_word(mark_v, filler)
    return u, conjugate(reverse(v), shift)
