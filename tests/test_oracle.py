from math import gcd

import pytest

import christoffel.oracle as oracle_module
from christoffel import (
    CoinPair,
    SuperimpositionProblem,
    alphabet,
    conjugate,
    crosscheck,
    make_word,
    oracle_frobenius,
    oracle_superimposable,
    perfectly_superimposable,
)

from conftest import cw


def test_oracle_superimposable_examples():
    result = oracle_superimposable(cw(13, 4), cw(13, 3, "b", "x"))
    assert result.decision
    assert len(result.witnesses) == 3
    assert result.modulus == 13

    result = oracle_superimposable(cw(4, 1), cw(6, 1, "b", "x"))
    assert result.witnesses == (1, 3, 5)
    assert result.modulus == 6

    result = oracle_superimposable(cw(3, 1), cw(4, 1, "b", "x"))
    assert not result.decision
    assert result.witnesses == ()


def test_oracle_orders_operands_by_length():
    # The longer word is the shifted one regardless of argument order.
    left = oracle_superimposable(cw(6, 1), cw(4, 1, "b", "x"))
    assert left.modulus == 6
    assert len(left.witnesses) == 3


def test_oracle_alphabet_mismatch():
    with pytest.raises(ValueError):
        oracle_superimposable(make_word("ax", alphabet("ax")), make_word("xa", alphabet("ax")))
    with pytest.raises(ValueError):
        oracle_superimposable(make_word("", alphabet("ax")), make_word("bx", alphabet("bx")))


def test_oracle_witnesses_revalidate():
    # Every reported shift must pass the independent residue check once the
    # second word is actually rotated.
    for n in range(1, 25):
        for m in range(1, 25):
            for a in (x for x in range(1, n + 1) if gcd(x, n) == 1):
                for b in (x for x in range(1, m + 1) if gcd(x, m) == 1):
                    u, v = cw(n, a), cw(m, b, "b", "x")
                    if n > m:
                        u, v = cw(m, b), cw(n, a, "b", "x")
                    result = oracle_superimposable(u, v)
                    for k in result.witnesses:
                        assert perfectly_superimposable(u, conjugate(v, k)), (n, m, a, b, k)


def test_oracle_existence_matches_small_shift_window():
    # If any shift works, one below min(n, m) works too.
    for n in range(1, 31):
        for m in range(1, 31):
            for a in (x for x in range(1, n + 1) if gcd(x, n) == 1):
                for b in (x for x in range(1, m + 1) if gcd(x, m) == 1):
                    result = oracle_superimposable(cw(n, a), cw(m, b, "b", "x"))
                    window = min(n, m)
                    assert result.decision == any(k < window for k in result.witnesses)


def test_oracle_frobenius_examples():
    assert oracle_frobenius(CoinPair(2, 5)) == (3, 2)
    assert oracle_frobenius(CoinPair(8, 5)) == (27, 14)
    assert oracle_frobenius(CoinPair(2, 3)) == (1, 1)


def test_oracle_frobenius_rejects_unit_coin():
    with pytest.raises(ValueError):
        oracle_frobenius(CoinPair(1, 5))


def test_crosscheck_catches_a_bad_witness(monkeypatch):
    real = oracle_module.canonical_witness

    def shifted_witness(problem):
        u, v = real(problem)
        return u, conjugate(v, 1)

    monkeypatch.setattr(oracle_module, "canonical_witness", shifted_witness)
    # C(13,4) and C(13,3) admit 3 of 13 shifts; rotating the witness by one breaks it.
    assert not crosscheck(SuperimpositionProblem(13, 13, 1, 4, 3))[1]
