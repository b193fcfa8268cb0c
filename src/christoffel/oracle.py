"""Brute-force reference implementations for every fast path in the package.

Everything here re-derives its answer by exhaustion over residues, shifts, or
sieves, sharing no arithmetic with the closed-form routines it is used to
check.  What it takes from `superimpose` is parsing: `_marked_letters` reads
the marks and the filler off two alphabets, and `_mark_mask` reads a word
into an int, here the reversed word so that bit i is set iff letter i is a
mark.  The validator folds those masks by residue, while the oracle rotates
them over every shift, so the two share a parse, not arithmetic.  Each word
of an oracle call is laid on the longer word's circle by `_fixed_side`: the
shorter word as its folded marks, the longer word as its own marks, in the
three forms the oracle reads: a mark string, its mark count and a doubled
mark mask.  For short words the three are memoised together, with the
bounds of the word memo, so the memo holds either word of a pair and skips
repeated work only.  The three cross-checks, `crosscheck`, `crosscheck_money`
and `crosscheck_beatty`, are the one place where a fast path is compared
against its oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import floor, lcm

from .christoffel import _MEMO_MAX_N, _MEMO_SIZE
from .fraenkel import beatty_disjoint_exists
from .money import CoinPair, frobenius_number, nonrepresentable_count
from .superimpose import (
    SuperimpositionProblem, _mark_mask, _marked_letters, analyze, perfectly_superimposable,
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


def _fixed_side(symbols: str, mark: str, filler: str, m: int) -> tuple[str, int, int]:
    """The marks of the fixed word laid on a circle of m bits, bit t as letter t.

    The moving word repeats every m letters, so a mark of the fixed word at
    time t meets the moving word rotated by k exactly when the moving word
    has a mark at (t + k) mod m.  The lcm(n, m)/n copies of the fixed word
    that make up one common period are therefore laid on a circle of m bits,
    copy j rotated by j*n mod m, by the binary method: a mask of h copies is
    doubled by OR-ing in its own rotation by h*n mod m, and a set bit rotates
    it by n and ORs in one more copy.  When n = m there is one copy and no
    rotation, so the result is the word's own marks: this is how the oracle
    reads the longer word too.

    The result is everything `oracle_superimposable` reads from the word, on
    either side: the marks as a string of m letters, letter t "1" iff t is a
    mark, that string's count of "1"s, and the mask with bit t set iff t is
    a mark, OR-ed with itself shifted left by m, so that any shift right by
    less than m reads its rotation from the low m bits.
    """
    n, full = len(symbols), (1 << m) - 1
    one = _mark_mask(symbols[::-1], mark, filler)  # bit t is letter t

    def rotate(mask: int, k: int) -> int:
        return (mask << k | mask >> m - k) & full

    fixed, have = one, 1
    for bit in bin(lcm(n, m) // n)[3:]:
        fixed |= rotate(fixed, have * n % m)
        have *= 2
        if bit == "1":
            fixed = rotate(fixed, n) | one
            have += 1
    bits = f"{fixed:0{m}b}"[::-1]  # letter t is "1" iff t is a fixed mark
    return bits, bits.count("1"), fixed | fixed << m


# A sweep meets each short word once per partner of the same length, so both
# sides of a pair whose longer word has at most _MEMO_MAX_N letters are
# memoised, in at most _MEMO_SIZE entries (the bounds of the word memo).  The
# key is the word's str, whose hash is cached, not the Word, whose hash is
# rebuilt from its fields on every call.
_cached_fixed_side = lru_cache(maxsize=_MEMO_SIZE)(_fixed_side)


def oracle_superimposable(u: Word, v: Word) -> OracleResult:
    """Mark every shift of the longer word that two marks block; the rest are the witnesses.

    The operands are ordered so the shifted word is the longer one, of length
    m, and the marks of the fixed word are laid on a circle of m bits, one
    common period folded onto it (see `_fixed_side`).  The marks of the
    moving word come from the same function, which lays a word on a circle
    of its own length as its own marks.  When m is at most 1024 both come
    from one bounded memo, keyed by a word's letters, its mark, the filler
    and m, whose entry holds the word's mark string, mark count and doubled
    mask, so a word met again, on either side, with partners of one length
    is parsed and folded once.

    Shift k is blocked iff some fixed mark t and some moving mark s have
    s = t + k (mod m).  The blocked shifts are built from the marks of the
    side that has fewer of them (the fixed side on a tie), by one shift per
    walked mark of the other side's doubled mask.  Walking fixed marks t,
    the moving mask shifted right by t sets bit (s - t) mod m for every
    moving mark s: the blocked shifts.  Walking moving marks s, the fixed
    mask shifted right by s sets bit (t - s) mod m for every fixed mark t:
    the blocked shifts negated, which the witnesses negate back.  The walk
    stops once every shift is blocked.  So every shift is decided: a blocked
    shift is shown blocked by an explicit pair of marks, and a free shift is
    reported only after every mark on the walked side has been tried.  The
    witnesses are the free shifts, in increasing order, read off the string
    of free shifts in one C-level pass: its letters become bytes 0 and 1,
    which select from range(m).

    The fold costs O(log(m / gcd(n, m))) rotations and the parse of both
    words; on two memo hits it costs neither, and nothing is converted,
    counted or copied before the walk.  The walk costs at most min(F, M)
    shifts for F fixed and M moving marks, fewer when it stops; walking the
    denser side instead could take m where one suffices.  Each is O(m) bit
    operations, and the masks and the strings they are read from take
    O(n + m) memory.
    """
    n, m = len(u.symbols), len(v.symbols)
    if n == 0 or m == 0:
        raise ValueError("superimposition needs nonempty words")
    mark_u, mark_v, filler = _marked_letters(u, v)
    if n > m:
        u, v, mark_u, mark_v, m = v, u, mark_v, mark_u, n
    fold = _cached_fixed_side if m <= _MEMO_MAX_N else _fixed_side
    fixed_bits, fixed_count, fixed_mask = fold(u.symbols, mark_u, filler, m)
    moving_bits, moving_count, moving_mask = fold(v.symbols, mark_v, filler, m)
    negated = fixed_count > moving_count
    walked, source = (moving_bits, fixed_mask) if negated else (fixed_bits, moving_mask)
    full = (1 << m) - 1
    blocked = 0
    i = walked.find("1")
    while i >= 0:
        blocked |= source >> i & full
        if blocked == full:
            return OracleResult(False, (), m)
        i = walked.find("1", i + 1)
    free = f"{full ^ blocked:0{m}b}"  # letter i is "1" iff bit m - 1 - i is unblocked
    free = free[-1] + free[:-1] if negated else free[::-1]  # letter k is "1" iff shift k is free
    witnesses = tuple(compress(range(m), free.encode().translate(_BITS)))
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


def crosscheck_beatty(p1: int, q1: int, p2: int, q2: int) -> tuple[BeattyOracleResult, str | None]:
    """The shift search's outcome, and "decision" if `beatty_disjoint_exists` disagrees with it.

    The part is None when the two agree.  It is the check behind `beatty --oracle`.
    """
    exists = beatty_disjoint_exists(p1, q1, p2, q2)
    result = oracle_beatty_disjoint(p1, q1, p2, q2)
    return result, None if result.disjoint_possible == exists else "decision"
