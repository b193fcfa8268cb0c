"""Brute-force reference implementations for every fast path in the package.

Everything here re-derives its answer by exhaustion over residues, shifts, or
sieves, sharing no arithmetic with the closed-form routines it is used to
check.  `crosscheck` is the one place where the superimposition fast path is
compared against its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm

from .money import CoinPair
from .superimpose import (SuperimpositionProblem, _marked_letters, analyze, canonical_witness,
                          perfectly_superimposable)
from .words import Word, _ints


@dataclass(frozen=True)
class OracleResult:
    """All shifts of the second (longer) word that separate the marked positions."""

    decision: bool
    witnesses: tuple[int, ...]
    modulus: int


def _mark_mask(w: Word, mark: str, filler: str) -> int:
    """Bit i is set iff letter i of `w` is `mark`."""
    return int(w.symbols[::-1].translate(str.maketrans(mark + filler, "10")), 2)


def oracle_superimposable(u: Word, v: Word) -> OracleResult:
    """Try every shift of the longer word and test residue disjointness directly.

    The operands are ordered so the shifted word is the longer one, of length
    m.  The moving word repeats every m letters, so a mark of the fixed word
    at time t meets the moving word rotated by k exactly when the moving word
    has a mark at (t + k) mod m.  The lcm(n, m)/n copies of the fixed word
    that make up one common period are therefore laid on a circle of m bits,
    copy j rotated by j*n mod m, by the binary method: a mask of h copies is
    doubled by OR-ing in its own rotation by h*n mod m, and a set bit rotates
    it by n and ORs in one more copy.  The moving mask is two copies of the
    longer word, so bits [k, k + m) of it are its rotation by k, and each of
    the m shifts is one shift-and-AND.
    """
    if len(u) == 0 or len(v) == 0:
        raise ValueError("superimposition needs nonempty words")
    mark_u, mark_v, filler = _marked_letters(u, v)
    n, m = len(u), len(v)
    if n > m:
        u, v, mark_u, mark_v, n, m = v, u, mark_v, mark_u, m, n
    one, full = _mark_mask(u, mark_u, filler), (1 << m) - 1

    def rotate(mask: int, k: int) -> int:
        return (mask << k | mask >> m - k) & full

    fixed, have = one, 1
    for bit in bin(lcm(n, m) // n)[3:]:
        fixed |= rotate(fixed, have * n % m)
        have *= 2
        if bit == "1":
            fixed = rotate(fixed, n) | one
            have += 1
    moving = _mark_mask(v, mark_v, filler)
    moving |= moving << m
    witnesses = tuple([k for k in range(m) if not (moving >> k) & fixed])
    return OracleResult(bool(witnesses), witnesses, m)


def crosscheck(problem: SuperimpositionProblem) -> tuple[OracleResult, bool]:
    """The oracle's verdict on a problem, and whether the fast path agrees with it.

    Agreement means the same decision, the same number of admissible shifts,
    and, when superimposable, a canonical witness that passes the validator.
    """
    result = oracle_superimposable(problem.first_word(), problem.second_word())
    report = analyze(problem)
    agrees = report.superimposable == result.decision and report.count == len(result.witnesses)
    if agrees and report.superimposable:
        agrees = perfectly_superimposable(*canonical_witness(problem))
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


@dataclass(frozen=True)
class BeattyOracleResult:
    """Outcome of the offset grid search, with one witness pair when found."""

    disjoint_possible: bool
    offsets: tuple[Fraction, Fraction] | None


def oracle_beatty_disjoint(p1: int, q1: int, p2: int, q2: int) -> BeattyOracleResult:
    """Search rational offsets making the two Beatty sequences disjoint.

    The first offset ranges over [0, 1) and the second over [0, p2) in steps
    of 1/d, d = max(q1, q2); each candidate pair is tested exactly over one
    common period.  Because the sequences only change when an offset crosses
    a multiple of 1/q_i, that grid is exhaustive.  Shifting both offsets by
    the same integer and either offset by its own period leaves disjointness
    unchanged, which justifies the ranges.
    """
    _ints(("p1", "q1", "p2", "q2"), p1, q1, p2, q2)
    if min(p1, q1, p2, q2) < 1:
        raise ValueError("all parameters must be positive")
    period = lcm(p1, p2)
    d = max(q1, q2)

    def residues(p, q, offset):
        slope = Fraction(p, q)
        return frozenset(floor(slope * i + offset) % period for i in range(q * (period // p)))

    first = [(Fraction(t, d), residues(p1, q1, Fraction(t, d))) for t in range(d)]
    second = [(Fraction(t, d), residues(p2, q2, Fraction(t, d))) for t in range(d * p2)]
    for off1, res1 in first:
        for off2, res2 in second:
            if not (res1 & res2):
                return BeattyOracleResult(True, (off1, off2))
    return BeattyOracleResult(False, None)
