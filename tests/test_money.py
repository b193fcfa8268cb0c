from math import gcd

import pytest

from christoffel import (
    CoinPair,
    boundary_word,
    crosscheck_money,
    frobenius_number,
    nonrepresentable_count,
    representable,
    shifted_cayley,
)

from conftest import cw


def test_coin_pair_validation():
    with pytest.raises(ValueError):
        CoinPair(4, 6)
    with pytest.raises(ValueError):
        CoinPair(0, 3)


def test_frobenius_examples():
    assert frobenius_number(CoinPair(2, 5)) == 3
    assert frobenius_number(CoinPair(8, 5)) == 27
    assert frobenius_number(CoinPair(2, 3)) == 1
    assert frobenius_number(CoinPair(1, 7)) == -1
    assert frobenius_number(CoinPair(9, 1)) == -1


def test_nonrepresentable_examples():
    assert nonrepresentable_count(CoinPair(2, 5)) == 2
    assert nonrepresentable_count(CoinPair(8, 5)) == 14
    assert nonrepresentable_count(CoinPair(1, 6)) == 0


def test_representable_examples():
    assert not representable(CoinPair(2, 5), 3)
    assert not representable(CoinPair(2, 5), 1)
    assert representable(CoinPair(2, 5), 0)
    assert not representable(CoinPair(8, 5), 27)
    assert representable(CoinPair(8, 5), 28)


def test_representable_matches_scan():
    for a in range(1, 31):
        for b in range(1, 31):
            if gcd(a, b) != 1:
                continue
            coins = CoinPair(a, b)
            for amount in range(a * b + 6):
                scan = any((amount - a * x) % b == 0 for x in range(amount // a + 1))
                assert representable(coins, amount) == scan, (a, b, amount)
    with pytest.raises(ValueError):
        representable(CoinPair(2, 5), -1)


def test_boundary_word_examples():
    assert boundary_word(CoinPair(8, 5)).word.symbols == "ααβααβαβααβαβ"
    assert boundary_word(CoinPair(1, 1)).word.symbols == "αβ"
    small = boundary_word(CoinPair(2, 3))
    assert small.word.symbols.count("α") == 2
    assert small.word.symbols.count("β") == 3
    assert small.word == cw(5, 2, "α", "β")


def test_boundary_cells_stay_under_product():
    for a, b in [(2, 3), (8, 5), (3, 7), (5, 4)]:
        walk = boundary_word(CoinPair(a, b))
        assert all(value < a * b for value in walk.cells.values())
        assert all(x >= 0 and y <= 0 for (x, y) in walk.cells)
        assert walk.cells[(0, 0)] == 0


def test_boundary_values_retrace_shifted_cayley():
    # Unit coins included: their Frobenius number is a*b - a - b = -1.
    for a in range(1, 13):
        for b in range(1, 13):
            if gcd(a, b) != 1:
                continue
            walk = boundary_word(CoinPair(a, b))
            assert walk.values == shifted_cayley(CoinPair(a, b)), (a, b)


def test_shifted_cayley_examples():
    assert shifted_cayley(CoinPair(8, 5)) == (27, 32, 37, 29, 34, 39, 31, 36, 28, 33, 38, 30, 35, 27)
    assert shifted_cayley(CoinPair(2, 3)) == (1, 4, 2, 5, 3, 1)


def test_shifted_cayley_bounds():
    for a in range(2, 12):
        for b in range(2, 12):
            if gcd(a, b) != 1:
                continue
            values = shifted_cayley(CoinPair(a, b))
            g = a * b - a - b
            assert values[0] == values[-1] == g
            assert all(g <= v <= a * b for v in values)


def test_formulas_match_sieve():
    for a in range(2, 26):
        for b in range(a + 1, 26):
            if gcd(a, b) != 1:
                continue
            coins = CoinPair(a, b)
            (largest, _), part = crosscheck_money(coins)
            assert part is None, (a, b)
            assert not representable(coins, largest)
            for amount in range(largest + 1, a * b + 1):
                assert representable(coins, amount)


def test_boundary_equals_christoffel_word():
    for a in range(1, 16):
        for b in range(1, 16):
            if gcd(a, b) != 1:
                continue
            walk = boundary_word(CoinPair(a, b), "a", "x")
            assert walk.word == cw(a + b, a), (a, b)


def test_representable_count_below_threshold():
    # Exactly half of the amounts below (a-1)(b-1) are payable.
    for a in range(2, 21):
        for b in range(a + 1, 21):
            if gcd(a, b) != 1:
                continue
            coins = CoinPair(a, b)
            threshold = (a - 1) * (b - 1)
            payable = sum(1 for v in range(threshold) if representable(coins, v))
            assert payable == threshold // 2
