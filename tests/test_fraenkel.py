from fractions import Fraction
from itertools import product
from math import floor, gcd, lcm

import pytest

from christoffel import (
    BeattySpec,
    OrderedAlphabet,
    Word,
    SuperimpositionProblem,
    beatty_disjoint_exists,
    beatty_slice,
    crosscheck_beatty,
    fraenkel_word,
    is_superimposable,
    letter_frequencies,
    oracle_beatty_disjoint,
)


def test_fraenkel_word_examples():
    assert fraenkel_word(1).symbols == "1"
    assert fraenkel_word(2).symbols == "121"
    assert fraenkel_word(3).symbols == "1213121"


def test_fraenkel_word_guard():
    with pytest.raises(ValueError):
        fraenkel_word(0)
    with pytest.raises(ValueError):
        fraenkel_word(21)


def test_fraenkel_recursion_structure():
    for k in range(2, 12):
        prev = fraenkel_word(k - 1).symbols
        cur = fraenkel_word(k).symbols
        assert cur == prev + cur[len(prev)] + prev


def test_letter_frequencies_examples():
    assert letter_frequencies(fraenkel_word(3)) == {"1": 4, "2": 2, "3": 1}
    empty = Word("", OrderedAlphabet("ab"))
    assert letter_frequencies(empty) == {"a": 0, "b": 0}
    assert letter_frequencies(Word("112", OrderedAlphabet("12"))) == {"1": 2, "2": 1}
    # Alphabet order, absent letters included.
    assert list(letter_frequencies(Word("aaxaaxax", OrderedAlphabet("xa"))).items()) == [("x", 3), ("a", 5)]
    assert letter_frequencies(Word("1213121", OrderedAlphabet("1234"))) == {"1": 4, "2": 2, "3": 1, "4": 0}


def test_beatty_slice_examples():
    assert beatty_slice(BeattySpec(3, 2), 1, 4) == [1, 3, 4, 6]
    assert beatty_slice(BeattySpec(1, 1), 0, 3) == [0, 1, 2, 3]
    assert beatty_slice(BeattySpec(13, 4), 1, 4) == [3, 6, 9, 13]


def test_beatty_slice_exact_rational_floors():
    spec = BeattySpec(7, 3, Fraction(-1, 2))
    values = beatty_slice(spec, -4, 4)
    assert values == [(Fraction(7, 3) * i + Fraction(-1, 2)).__floor__() for i in range(-4, 5)]
    with pytest.raises(ValueError):
        beatty_slice(spec, 3, 1)


def test_beatty_spec_validation():
    with pytest.raises(ValueError):
        BeattySpec(3, 0)
    for offset in (0.3, True):  # a float would carry its binary error into the floors
        with pytest.raises(TypeError, match="pass a Fraction or a string"):
            BeattySpec(7, 10, offset)
    assert [beatty_slice(BeattySpec(7, 10, o), 1, 1) for o in (Fraction(3, 10), "3/10")] == [[1], [1]]


def test_beatty_disjoint_examples():
    assert beatty_disjoint_exists(13, 4, 13, 3)
    assert not beatty_disjoint_exists(3, 1, 4, 1)
    for n in range(3, 12):
        assert beatty_disjoint_exists(n, 1, n, 1)
    assert not beatty_disjoint_exists(1, 1, 1, 1)


def test_beatty_disjoint_normalises_slopes():
    # 4/2 is the slope 2/1; the answer must match the reduced form.
    assert beatty_disjoint_exists(2, 1, 4, 2) == beatty_disjoint_exists(2, 1, 2, 1)
    assert beatty_disjoint_exists(2, 1, 2, 1)  # evens against odds


def test_beatty_disjoint_rejects_nonpositive():
    with pytest.raises(ValueError, match=r"^slope parameters must be positive$"):
        beatty_disjoint_exists(0, 1, 3, 1)
    with pytest.raises(ValueError, match=r"^all parameters must be positive$"):
        oracle_beatty_disjoint(3, 1, 0, 1)


def test_beatty_matches_superimposition_dictionary():
    # Same-length dictionary: slopes n/A and n/B against the words C(n, A), C(n, B).
    for n in range(1, 61):
        for a in range(1, n + 1):
            if gcd(a, n) != 1:
                continue
            for b in range(1, n + 1):
                if gcd(b, n) != 1:
                    continue
                problem = SuperimpositionProblem.from_letter_counts(n, a, n, b)
                assert beatty_disjoint_exists(n, a, n, b) == is_superimposable(problem), (n, a, b)


def test_beatty_oracle_examples():
    result = oracle_beatty_disjoint(13, 4, 13, 3)
    assert result.disjoint_possible
    assert result.offsets is not None
    assert not oracle_beatty_disjoint(3, 1, 4, 1).disjoint_possible
    for n in (3, 5, 8):
        assert oracle_beatty_disjoint(n, 1, n, 1).disjoint_possible


def test_beatty_oracle_witness_is_disjoint():
    result = oracle_beatty_disjoint(13, 4, 13, 3)
    off1, off2 = result.offsets
    s1 = {(Fraction(13, 4) * i + off1).__floor__() for i in range(-60, 60)}
    s2 = {(Fraction(13, 3) * i + off2).__floor__() for i in range(-60, 60)}
    assert not (s1 & s2)


def _residues(p, q, offset, period):
    """floor(p*i/q + offset) mod period over one common period, in Fraction arithmetic."""
    return frozenset(floor(Fraction(p, q) * i + offset) % period for i in range(q * (period // p)))


def test_beatty_oracle_agrees_with_criterion_small_grid():
    # Every slope pair in [1, 12]^4, unreduced slopes and slopes <= 1 included.
    for p1, q1, p2, q2 in product(range(1, 13), repeat=4):
        result, part = crosscheck_beatty(p1, q1, p2, q2)
        assert part is None, (p1, q1, p2, q2)
        if result.disjoint_possible:
            period = lcm(p1, p2)
            off1, off2 = result.offsets
            assert not _residues(p1, q1, off1, period) & _residues(p2, q2, off2, period), (p1, q1, p2, q2)


def _grid_search(p1, q1, p2, q2):
    """Literal reference: the first disjoint pair on the offset grid of step 1/max(q1, q2)."""
    period, d = lcm(p1, p2), max(q1, q2)
    second = [(Fraction(t, d), _residues(p2, q2, Fraction(t, d), period)) for t in range(d * p2)]
    for t in range(d):
        res1 = _residues(p1, q1, Fraction(t, d), period)
        for off2, res2 in second:
            if not res1 & res2:
                return True, (Fraction(t, d), off2)
    return False, None


def test_beatty_oracle_returns_the_first_grid_witness():
    for p1, q1, p2, q2 in product(range(1, 9), range(1, 5), range(1, 9), range(1, 5)):
        result = oracle_beatty_disjoint(p1, q1, p2, q2)
        assert (result.disjoint_possible, result.offsets) == _grid_search(p1, q1, p2, q2), (p1, q1, p2, q2)
