"""Brute-force reference implementations for every fast path in the package.

Everything here re-derives its answer by exhaustion over residues, shifts, or
sieves, sharing no arithmetic with the closed-form routines it is used to
check.  What it takes from `superimpose` is parsing: `_marked_letters` reads
the marks and the filler off two alphabets, and `_mark_mask` reads a word
into an int with bit i set iff letter i is a mark.  The validator folds those
masks by residue, while the oracle rotates them over every shift, so the two
share a parse, not arithmetic.  The oracle's fixed side (the shorter word's
mask, folded onto the longer word's circle) is memoised for short words, with
the bounds of the word memo; the memo skips repeated work only.  `crosscheck`
is the one place where the superimposition fast path is compared against its
oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, lcm

from .christoffel import _MEMO_MAX_N, _MEMO_SIZE
from .money import CoinPair
from .superimpose import (
    SuperimpositionProblem, _mark_mask, _marked_letters, analyze, perfectly_superimposable,
)
from .words import OrderedAlphabet, Word, _Value, _ints, conjugate, reverse

__all__ = (
    "BeattyOracleResult", "OracleResult", "crosscheck", "oracle_beatty_disjoint", "oracle_frobenius",
    "oracle_superimposable",
)


class OracleResult(_Value):
    """All shifts of the second (longer) word that separate the marked positions."""

    _fields = ("decision", "witnesses", "modulus")

    def __init__(self, decision: bool, witnesses: tuple[int, ...], modulus: int):
        set_ = object.__setattr__  # no __dict__ object: see _Value
        set_(self, "decision", decision)
        set_(self, "witnesses", witnesses)
        set_(self, "modulus", modulus)


def _positions(s: str, letter: str):
    """Indices of `letter` in `s`, in increasing order."""
    i = s.find(letter)
    while i >= 0:
        yield i
        i = s.find(letter, i + 1)


def _fixed_side(symbols: str, mark: str, filler: str, m: int) -> str:
    """The marks of the fixed word laid on a circle of m bits, bit t as letter t.

    The moving word repeats every m letters, so a mark of the fixed word at
    time t meets the moving word rotated by k exactly when the moving word
    has a mark at (t + k) mod m.  The lcm(n, m)/n copies of the fixed word
    that make up one common period are therefore laid on a circle of m bits,
    copy j rotated by j*n mod m, by the binary method: a mask of h copies is
    doubled by OR-ing in its own rotation by h*n mod m, and a set bit rotates
    it by n and ORs in one more copy.
    """
    n, full = len(symbols), (1 << m) - 1
    one = _mark_mask(symbols, mark, filler)

    def rotate(mask: int, k: int) -> int:
        return (mask << k | mask >> m - k) & full

    fixed, have = one, 1
    for bit in bin(lcm(n, m) // n)[3:]:
        fixed |= rotate(fixed, have * n % m)
        have *= 2
        if bit == "1":
            fixed = rotate(fixed, n) | one
            have += 1
    return f"{fixed:0{m}b}"[::-1]  # letter t is "1" iff t is a fixed mark


# A sweep meets each short word once per partner of the same length, so the
# fixed side of a pair whose longer word has at most _MEMO_MAX_N letters is
# memoised, in at most _MEMO_SIZE entries (the bounds of the word memo).  The
# key is the word's str, whose hash is cached, not the Word, whose hash is
# rebuilt from its fields on every call.
_cached_fixed_side = lru_cache(maxsize=_MEMO_SIZE)(_fixed_side)


def oracle_superimposable(u: Word, v: Word) -> OracleResult:
    """Mark every shift of the longer word that two marks block; the rest are the witnesses.

    The operands are ordered so the shifted word is the longer one, of length
    m, and the marks of the fixed word are laid on a circle of m bits, one
    common period folded onto it (see `_fixed_side`).  When m is at most 1024
    that fold comes from a bounded memo, keyed by the fixed word's letters,
    its mark, the filler and m, so a word met again with partners of one
    length is parsed and folded once.

    Shift k is blocked iff some fixed mark t and some moving mark s have
    s = t + k (mod m), so a blocked-shift mask gets bit (s - t) mod m for
    every such pair.  It is built from the marks of the side that has fewer
    of them (the fixed side on a tie), by one shift per walked mark of a
    doubled mask of the other side.  Walking fixed marks t, the doubled
    moving mask shifted right by t sets bit (s - t) mod m for every moving
    mark s.  Walking moving marks s, at index i = m - 1 - s of the reversed
    moving word, the doubled reversed fixed mask, bit m - 1 - t for every
    fixed mark t, shifted right by i sets the same bit.  The walk stops once
    every shift is blocked.  So every shift is decided: a blocked shift is
    shown blocked by an explicit pair of marks, and a free shift is reported
    only after every mark on the walked side has been tried.  The witnesses
    are the free shifts, in increasing order.

    The fold costs O(log(m / gcd(n, m))) rotations, none on a memo hit.  The
    walk costs at most min(F, M) shifts for F fixed and M moving marks, fewer
    when it stops; walking the denser side instead could take m where one
    suffices.  Each is O(m) bit operations, and the masks and the strings
    they are read from take O(n + m) memory.
    """
    n, m = len(u.symbols), len(v.symbols)
    if n == 0 or m == 0:
        raise ValueError("superimposition needs nonempty words")
    mark_u, mark_v, filler = _marked_letters(u, v)
    if n > m:
        u, v, mark_u, mark_v, m = v, u, mark_v, mark_u, n
    fold = _cached_fixed_side if m <= _MEMO_MAX_N else _fixed_side
    fixed_bits = fold(u.symbols, mark_u, filler, m)
    if fixed_bits.count("1") <= v.symbols.count(mark_v):
        source, walked, letter = _mark_mask(v.symbols, mark_v, filler), fixed_bits, "1"
    else:
        source, walked, letter = int(fixed_bits, 2), v.symbols[::-1], mark_v
    full = (1 << m) - 1
    source |= source << m
    blocked = 0
    for i in _positions(walked, letter):
        blocked |= source >> i & full
        if blocked == full:
            return OracleResult(False, (), m)
    witnesses = tuple(_positions(bin(full ^ blocked)[:1:-1], "1"))
    return OracleResult(bool(witnesses), witnesses, m)


def crosscheck(problem: SuperimpositionProblem) -> tuple[OracleResult, bool]:
    """The oracle's verdict on a problem, and whether the fast path agrees with it.

    Agreement means the same decision, the same number of admissible shifts,
    and, when superimposable, a canonical witness that passes the validator:
    the two words the oracle saw, the second reversed and rotated by the
    report's shift.  It is the check behind `superimpose --oracle` and
    `oracle-check`.
    """
    u, v = problem.first_word(), problem.second_word()
    result = oracle_superimposable(u, v)
    report = analyze(problem)
    agrees = report.superimposable == result.decision and report.count == len(result.witnesses)
    if agrees and report.superimposable:
        agrees = perfectly_superimposable(u, conjugate(reverse(v), report.canonical_shift))
    return result, agrees


def oracle_frobenius(coins: CoinPair) -> tuple[int, int]:
    """Sieve the payable amounts up to a*b; report the largest gap (-1 if none) and the gap count."""
    limit = coins.a * coins.b
    payable = [False] * (limit + 1)
    payable[0] = True
    for coin in (coins.a, coins.b):
        for amount in range(coin, limit + 1):
            if payable[amount - coin]:
                payable[amount] = True
    gaps = [amount for amount, ok in enumerate(payable) if not ok]
    return max(gaps, default=-1), len(gaps)


class BeattyOracleResult(_Value):
    """Outcome of the shift search, with the first witness offset pair in grid order when found."""

    _fields = ("disjoint_possible", "offsets")

    def __init__(self, disjoint_possible: bool, offsets: tuple[Fraction, Fraction] | None):
        self.__dict__.update(disjoint_possible=disjoint_possible, offsets=offsets)


def oracle_beatty_disjoint(p1: int, q1: int, p2: int, q2: int) -> BeattyOracleResult:
    """Search every relative shift of the two Beatty sequences for a disjoint pair.

    With offset b the terms floor(p*i/q + b) repeat with period p; their residues
    at i < q spell a mark/x word of length p, a translate of the offset-0 word that
    `str.find` locates in two copies of it.  `oracle_superimposable` decides every shift
    of the longer offset-0 word against the other.  The witness is the first disjoint
    pair in steps of 1/max(q1, q2) over [0, 1) x [0, p2), first offset outer.  Integer
    second offsets give every translate of the second sequence, of period p2, so the
    first offset is 0 and the second is the first whose translate (negated if the
    first word is longer) is admissible.
    """
    _ints(("p1", "q1", "p2", "q2"), p1, q1, p2, q2)
    if min(p1, q1, p2, q2) < 1:
        raise ValueError("all parameters must be positive")
    d = max(q1, q2)

    def layout(p, q, offset):
        marks = {floor(Fraction(p, q) * i + offset) % p for i in range(q)}
        return "".join("a" if j in marks else "x" for j in range(p))

    v = layout(p2, q2, 0)
    result = oracle_superimposable(Word(layout(p1, q1, 0), OrderedAlphabet("ax")),
                                   Word(v.replace("a", "b"), OrderedAlphabet("bx")))
    if not result.decision:
        return BeattyOracleResult(False, None)
    shifts, sign, doubled = set(result.witnesses), 1 if p1 <= p2 else -1, v * 2
    t = next(t for t in range(d * p2)
             if sign * doubled.find(layout(p2, q2, Fraction(t, d))) % result.modulus in shifts)
    return BeattyOracleResult(True, (Fraction(0), Fraction(t, d)))
