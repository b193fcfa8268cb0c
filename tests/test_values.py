"""Every value class: repr, equality, hashing, immutability, copying, pickling and its checks.

The reprs and error messages are the ones the classes had as frozen
dataclasses, byte for byte.  CI also runs this file under `python -O`, so
none of it may rest on `assert` inside the library.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from christoffel import (BeattyOracleResult, BeattySpec, BezoutSolution, CayleyGraph, ChristoffelSpec,
                         CoinPair, DecimationSpec, LatticePath, OracleResult,
                         OrderedAlphabet, PositionSet, QuadrantBoundary, Step, SuperimpositionProblem,
                         SuperimpositionReport, Word)
from christoffel.words import _prechecked

AX = OrderedAlphabet(("a", "x"))

# (class, arguments, arguments of a different value, repr of the first value)
VALUES = [
    (OrderedAlphabet, (("a", "x"),), (("x", "a"),),
     "OrderedAlphabet(letters=('a', 'x'))"),
    (Word, ("aax", AX), ("axa", AX),
     "Word(symbols='aax', alphabet=OrderedAlphabet(letters=('a', 'x')))"),
    (DecimationSpec, (1, 2, "right-to-left", "x"), (1, 2, "left-to-right", "x"),
     "DecimationSpec(p=1, q=2, direction=<Direction.RIGHT_TO_LEFT: 'right-to-left'>, letter='x')"),
    (ChristoffelSpec, (8, 5), (8, 3),
     "ChristoffelSpec(n=8, alpha=5, low='a', high='x')"),
    (PositionSet, (8, (3, 0)), (8, (0, 5)),
     "PositionSet(modulus=8, residues=(0, 3))"),
    (CayleyGraph, (3, ((0, 2, "a"), (2, 1, "x"), (1, 0, "x"))), (3, ((0, 1, "a"), (1, 2, "a"), (2, 0, "x"))),
     "CayleyGraph(n=3, edges=((0, 2, 'a'), (2, 1, 'x'), (1, 0, 'x')))"),
    (LatticePath, ((Step.RIGHT, Step.UP), (1, 1)), ((Step.UP, Step.RIGHT), (1, 1)),
     "LatticePath(steps=(<Step.RIGHT: 'R'>, <Step.UP: 'U'>), endpoint=(1, 1))"),
    (SuperimpositionProblem, (13, 13, 1, 4, 3), (13, 13, 2, 4, 3),
     "SuperimpositionProblem(n=13, m=13, q=1, alpha=4, beta=3)"),
    (BezoutSolution, (1, 2, 2), (1, 3, 1),
     "BezoutSolution(x=1, y=2, z=2)"),
    (SuperimpositionReport, (True, BezoutSolution(1, 2, 2), 2, 7), (True, BezoutSolution(1, 2, 2), 2, None),
     "SuperimpositionReport(superimposable=True, bezout=BezoutSolution(x=1, y=2, z=2), count=2,"
     " canonical_shift=7)"),
    (OracleResult, (True, (1, 2), 5), (True, (1, 3), 5),
     "OracleResult(decision=True, witnesses=(1, 2), modulus=5)"),
    (BeattyOracleResult, (True, (Fraction(0), Fraction(3, 2))), (False, None),
     "BeattyOracleResult(disjoint_possible=True, offsets=(Fraction(0, 1), Fraction(3, 2)))"),
    (CoinPair, (3, 5), (5, 3),
     "CoinPair(a=3, b=5)"),
    (QuadrantBoundary, (Word("aax", AX), (1, 2), {(0, 0): 0}), (Word("aax", AX), (1, 2), {(0, 0): 1}),
     "QuadrantBoundary(word=Word(symbols='aax', alphabet=OrderedAlphabet(letters=('a', 'x'))),"
     " values=(1, 2), cells={(0, 0): 0})"),
    (BeattySpec, (13, 4, Fraction(1, 2)), (13, 4),
     "BeattySpec(numerator=13, denominator=4, offset=Fraction(1, 2))"),
]


@pytest.mark.parametrize("cls, args, other_args, text", VALUES, ids=[case[0].__name__ for case in VALUES])
def test_value_class(cls, args, other_args, text):
    value, same, other = cls(*args), cls(*args), cls(*other_args)
    assert repr(value) == text
    fields = tuple(getattr(value, name) for name in cls._fields)

    assert value == same and not value != same
    assert value != other and not value == other
    twin = type("Twin", (cls,), {})(*args)  # another class, the same field values
    assert value != twin and twin != value
    assert value != fields and fields != value

    if cls is QuadrantBoundary:  # its cells are a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
        assert len({value, same, other}) == 2

    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same and repr(value) == text

    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert repr(pickle.loads(pickle.dumps(value))) == text


def test_prechecked_word_equals_checked_word():
    built = _prechecked(Word, symbols="aax", alphabet=AX)
    checked = Word("aax", AX)
    assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)


# Each message a checked constructor raises, with arguments that raise it.  The
# DecimationSpec letter check is in test_words.test_decimation_spec_validation.
REJECTED = [
    (OrderedAlphabet, ((),), ValueError, "alphabet must contain at least one letter"),
    (OrderedAlphabet, (("ab", "x"),), ValueError, "letter 'ab' is not a single printable character"),
    (OrderedAlphabet, (("a", "a"),), ValueError, "alphabet letters must be distinct: ('a', 'a')"),
    (Word, ("ab", AX), ValueError, "symbol 'b' at index 1 is not in alphabet ('a', 'x')"),
    (Word, (["a", "x"], AX), ValueError, "symbols must be a str, not list"),
    (Word, ("ax", "ax"), TypeError, "alphabet must be an OrderedAlphabet, got 'ax'"),
    (Word, ("ax", ("a", "x")), TypeError, "alphabet must be an OrderedAlphabet, got ('a', 'x')"),
    (DecimationSpec, (1.0, 2, "left-to-right"), TypeError, "p must be an int, got 1.0"),
    (DecimationSpec, (1, 2, "sideways"), ValueError, "'sideways' is not a valid Direction"),
    (DecimationSpec, (1, 0, "left-to-right"), ValueError, "block size q must be positive"),
    (DecimationSpec, (3, 2, "left-to-right"), ValueError, "need 0 <= p <= q, got p=3, q=2"),
    (ChristoffelSpec, (8, "5"), TypeError, "alpha must be an int, got '5'"),
    (ChristoffelSpec, (0, 5), ValueError, "length must be positive, got 0"),
    (ChristoffelSpec, (8, 9), ValueError, "need 1 <= alpha <= n, got alpha=9, n=8"),
    (ChristoffelSpec, (8, 5, "a", "a"), ValueError, "low and high letters must differ"),
    (ChristoffelSpec, (8, 5, "a", 3), ValueError, "letter 3 is not a single printable character"),
    (PositionSet, (8.0, (0,)), TypeError, "modulus must be an int, got 8.0"),
    (PositionSet, (8, (0, True)), TypeError, "residues must be ints, got True"),
    (PositionSet, (0, ()), ValueError, "modulus must be positive"),
    (PositionSet, (8, (1, 1)), ValueError, "residues must be distinct"),
    (PositionSet, (8, (1, 8)), ValueError, "residues must lie in [0, 8)"),
    (SuperimpositionProblem, (13, 13, 1, 4, 3.0), TypeError, "beta must be an int, got 3.0"),
    (SuperimpositionProblem, (13, -1, 0, 4, 3), ValueError, "m must be positive"),
    (SuperimpositionProblem, (13, 13, 1, 4, 2), ValueError, "alpha and beta must be coprime, got 4, 2"),
    (SuperimpositionProblem, (12, 13, 1, 4, 3), ValueError,
     "first marked count 4 must be <= and coprime to n=12"),
    (SuperimpositionProblem, (13, 2, 1, 4, 3), ValueError,
     "second marked count 3 must be <= and coprime to m=2"),
    (CoinPair, (3, 5.0), TypeError, "b must be an int, got 5.0"),
    (CoinPair, (0, 5), ValueError, "denominations must be positive"),
    (CoinPair, (3, 6), ValueError, "denominations must be coprime, got 3, 6"),
    (BeattySpec, (13, 4.0), TypeError, "denominator must be an int, got 4.0"),
    (BeattySpec, (13, 4, 0.5), TypeError, "offset must be exact; pass a Fraction or a string, got 0.5"),
    (BeattySpec, (13, 0), ValueError, "denominator must be positive"),
    (OrderedAlphabet, (5,), TypeError, "letters must be iterable, got 5"),
    (Word, (5, AX), TypeError, "symbols must be a str, got 5"),
    (PositionSet, (8, 5), TypeError, "residues must be iterable, got 5"),
]


@pytest.mark.parametrize("cls, args, error, message", REJECTED)
def test_constructor_rejects(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert str(info.value) == message
