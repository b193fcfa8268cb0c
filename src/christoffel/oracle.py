"""Brute-force reference implementations for every fast path in the package.

Everything here re-derives its answer by exhaustion over residues, shifts, or
sieves, sharing no arithmetic with the closed-form routines it is used to
check.  What the word oracle shares with the validator is the reading of a
word, not `_bezout`: `_marked_letters` reads the marks and the filler off two
alphabets, `_mark_mask` reads a word into an int, and `_fold` folds that int
onto p = gcd(n, m) bits, where by the Chinese remainder theorem two periodic
words meet.  The validator asks whether two folds share a bit; the oracle
tries every shift of one fold against the other, one shift per walked residue.
For short words the residues are memoised, keyed by the word and p, so the
memo serves either word of a pair and skips repeated work only.  The three
cross-checks, `crosscheck`, `crosscheck_money` and `crosscheck_beatty`, are
the one place where a fast path is compared against its oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd

from .christoffel import _MEMO_MAX_N, _MEMO_SIZE
from .fraenkel import BeattySpec, beatty_disjoint_exists, beatty_slice
from .money import CoinPair, frobenius_number, nonrepresentable_count
from .superimpose import (
    SuperimpositionProblem, _fold, _mark_mask, _marked_letters, analyze, perfectly_superimposable,
)
from .words import OrderedAlphabet, Word, _Value, _ints, conjugate, reverse

__all__ = (
    "BeattyOracleResult", "OracleResult", "crosscheck", "crosscheck_beatty", "crosscheck_money",
    "oracle_beatty_disjoint", "oracle_frobenius", "oracle_superimposable",
)


class OracleResult(_Value):
    """All shifts of the second (longer) word that separate the marked positions."""

    _fields = __slots__ = ("decision", "witnesses", "modulus")

    def __init__(self, decision: bool, witnesses: tuple[int, ...], modulus: int):
        _set_decision(self, decision)
        _set_witnesses(self, witnesses)
        _set_modulus(self, modulus)


_set_decision, _set_witnesses, _set_modulus = OracleResult._setters


# Reads a string of "0"s and "1"s, encoded, as bytes 0 and 1.
_BITS = bytes.maketrans(b"01", b"\0\1")


def _residues(symbols: str, mark: str, filler: str, p: int) -> tuple[str, int, int]:
    """The marked residues mod p of a word whose length p divides, in the three forms the oracle reads.

    The word is read as the validator reads it: `_mark_mask` sets bit
    n - 1 - i for letter i and `_fold` folds that onto p bits, so bit
    p - 1 - r is set iff the word has a mark at some index i = r (mod p).
    Written as a p-digit binary numeral, first digit highest, the fold is
    therefore the string whose letter r is "1" iff r is a marked residue.
    The result is that string, its count of "1"s, and the fold doubled,
    `mask | mask << p`, the numeral of the string written twice, whose
    p-bit windows are the string's rotations.
    """
    mask = _fold(_mark_mask(symbols, mark, filler), len(symbols), p)
    bits = f"{mask:0{p}b}"
    return bits, bits.count("1"), mask | mask << p


# A sweep meets each short word once per partner of the same length, so both
# sides of a pair whose longer word has at most _MEMO_MAX_N letters are
# memoised, in at most _MEMO_SIZE entries (the bounds of the word memo).  The
# key is the word's str, whose hash is cached, not the Word, whose hash is
# rebuilt from its fields on every call.
_cached_residues = lru_cache(maxsize=_MEMO_SIZE)(_residues)


def oracle_superimposable(u: Word, v: Word) -> OracleResult:
    """Mark every shift of the longer word that two marks block; the rest are the witnesses.

    The operands are ordered so the shifted word is the longer one, of length
    m, and the fixed word has length n <= m.  By the Chinese remainder
    theorem a mark of the fixed word at i (mod n) meets a mark of the moving
    word at j (mod m) exactly when i = j (mod p), p = gcd(n, m), so whether
    shift k is blocked depends on k mod p only, and both words are read as
    their marked residues mod p (see `_residues`).  When m is at most 1024
    the residues come from one bounded memo, keyed by a word's letters, its
    mark, the filler and p, so a word met again, on either side, with
    partners of one gcd is parsed and folded once.

    Shift k is blocked iff some fixed residue t and some moving residue s
    have s = t + k (mod p).  The blocked shifts are built from the residues
    of the side that has fewer of them (the fixed side on a tie), by one
    shift per walked residue of the other side's doubled mask.  Walking
    fixed residues t, the moving mask shifted right by p - t, cut to p bits,
    is the moving string rotated left by t, whose letter k is "1" iff t + k
    is a moving residue: the blocked shifts.  Walking moving residues s, the
    fixed string rotated left by s gives the blocked shifts negated, which
    the witnesses negate back.  The walk stops once every shift is blocked.
    So every shift is decided: a blocked shift is shown blocked by an
    explicit pair of marks, and a free shift is reported only after every
    residue on the walked side has been tried.  The witnesses are the free
    shifts below m, in increasing order: the string of free residues, its
    letters made bytes 0 and 1 and repeated m/p times, selects them from
    range(m) in one C-level pass.

    The reading costs the parse of both words and O(log(m / p)) big-int
    operations; on two memo hits it costs neither.  The walk costs at most
    min(F, M) shifts for F fixed and M moving residues, fewer when it stops;
    walking the denser side instead could take p where one suffices.  Each
    is O(p) bit operations, and the lift to m shifts is O(m).  The parse
    takes O(n + m) memory and the lift O(m).
    """
    n, m = len(u.symbols), len(v.symbols)
    if n == 0 or m == 0:
        raise ValueError("superimposition needs nonempty words")
    mark_u, mark_v, filler = _marked_letters(u, v)
    p = gcd(n, m)
    if n > m:
        u, v, mark_u, mark_v, m = v, u, mark_v, mark_u, n
    read = _cached_residues if m <= _MEMO_MAX_N else _residues
    fixed_bits, fixed_count, fixed_mask = read(u.symbols, mark_u, filler, p)
    moving_bits, moving_count, moving_mask = read(v.symbols, mark_v, filler, p)
    negated = fixed_count > moving_count
    walked, source = (moving_bits, fixed_mask) if negated else (fixed_bits, moving_mask)
    full = (1 << p) - 1
    blocked = 0
    i = walked.find("1")
    while i >= 0:
        blocked |= source >> p - i & full
        if blocked == full:
            return OracleResult(False, (), m)
        i = walked.find("1", i + 1)
    free = f"{full ^ blocked:0{p}b}"  # letter k is "1" iff shift k is free, or -k when negated
    if negated:
        free = free[:1] + free[:0:-1]
    witnesses = tuple(compress(range(m), free.encode().translate(_BITS) * (m // p)))
    return OracleResult(bool(witnesses), witnesses, m)


def crosscheck(problem: SuperimpositionProblem) -> tuple[OracleResult, str | None]:
    """The oracle's verdict on a problem, and the first part of `analyze` that disagrees with it.

    The part is None when the fast path agrees.  Otherwise it is "decision",
    else "count" (the number of admissible shifts), else "shift": the problem
    is superimposable and the validator rejects the two words the oracle saw,
    the second reversed and rotated by the canonical shift.  It is the check
    behind `superimpose --oracle` and `oracle-check`.
    """
    u, v = problem.first_word(), problem.second_word()
    result = oracle_superimposable(u, v)
    report = analyze(problem)
    if report.superimposable != result.decision:
        return result, "decision"
    if report.count != len(result.witnesses):
        return result, "count"
    if report.superimposable and not perfectly_superimposable(u, conjugate(reverse(v), report.canonical_shift)):
        return result, "shift"
    return result, None


def crosscheck_money(coins: CoinPair) -> tuple[tuple[int, int], str | None]:
    """The sieve's (Frobenius number, gap count), and the first closed form that disagrees with it.

    The part is None when both agree, else "frobenius" (`frobenius_number`),
    else "nonrepresentable" (`nonrepresentable_count`).  It is the check
    behind `frobenius --oracle`.
    """
    largest, gaps = result = oracle_frobenius(coins)
    part = ("frobenius" if frobenius_number(coins) != largest
            else "nonrepresentable" if nonrepresentable_count(coins) != gaps else None)
    return result, part


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

    _fields = __slots__ = ("disjoint_possible", "offsets")

    def __init__(self, disjoint_possible: bool, offsets: tuple[Fraction, Fraction] | None):
        _set_disjoint_possible(self, disjoint_possible)
        _set_offsets(self, offsets)


_set_disjoint_possible, _set_offsets = BeattyOracleResult._setters


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
        marks = {t % p for t in beatty_slice(BeattySpec(p, q, offset), 0, q - 1)}
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


def crosscheck_beatty(p1: int, q1: int, p2: int, q2: int) -> tuple[BeattyOracleResult, str | None]:
    """The shift search's outcome, and "decision" if `beatty_disjoint_exists` disagrees with it.

    The part is None when the two agree.  It is the check behind `beatty --oracle`.
    """
    exists = beatty_disjoint_exists(p1, q1, p2, q2)
    result = oracle_beatty_disjoint(p1, q1, p2, q2)
    return result, None if result.disjoint_possible == exists else "decision"
