"""Every value class: repr, equality, hashing, immutability, storage, copying, pickling and its checks.

The reprs and error messages are the ones the classes had as frozen
dataclasses, byte for byte.  CI also runs this file under `python -O`, so
none of it may rest on `assert` inside the library.
"""

import copy
import pickle
import tracemalloc
from fractions import Fraction

import pytest

from christoffel import (BeattyOracleResult, BeattySpec, BezoutSolution, CayleyGraph, ChristoffelSpec,
                         CoinPair, DecimationSpec, LatticePath, OracleResult,
                         OrderedAlphabet, PositionSet, QuadrantBoundary, Step, SuperimpositionProblem,
                         SuperimpositionReport, Word, canonical_witness, christoffel_word, conjugate, decimate,
                         fraenkel_word, letter_positions, merge_superimposition, projection, reverse)
from christoffel.christoffel import _cached_letter_pair, _cached_word
from christoffel.words import _prechecked_word, _Value

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


def _value_classes(cls=_Value):
    """Every class of the package that derives from _Value, at any depth."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("christoffel."):
            yield sub
        yield from _value_classes(sub)


def _counting(init, calls):
    def counted(self, *args):
        calls.append(args)
        init(self, *args)
    return counted


def test_values_have_one_storage(monkeypatch):
    assert set(_value_classes()) == {case[0] for case in VALUES}
    for cls, args, _, _ in VALUES:
        assert cls.__slots__ == cls._fields, cls
        value = cls(*args)
        assert not hasattr(value, "__dict__"), cls
        fields = tuple(getattr(value, name) for name in cls._fields)
        assert value.__reduce__() == (cls, fields), cls
        # A copy and a pickle are rebuilt through the constructor and its checks.
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(cls, "__init__", _counting(cls.__init__, calls))
            copied, loaded = copy.copy(value), pickle.loads(pickle.dumps(value))
        assert calls == [fields, fields], cls
        assert copied == value == loaded


def test_values_take_eight_bytes_a_field_and_forty_more():
    witnesses, aax = (1, 2), Word("aax", AX)
    builds = [
        (SuperimpositionProblem, lambda: SuperimpositionProblem(13, 13, 1, 4, 3)),
        (OracleResult, lambda: OracleResult(True, witnesses, 5)),
        (Word, lambda: Word("aax", AX)),
        (Word, lambda: conjugate(aax, 3)),  # a full turn: the same str
        (CoinPair, lambda: CoinPair(3, 5)),
    ]
    for cls, build in builds:
        values = [None] * 2000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(len(values)):
                values[i] = build()
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Only the values themselves are new: every field object is shared.
        assert all(getattr(v, f) is getattr(values[0], f) for v in values for f in cls._fields)
        assert used / len(values) <= 8 * len(cls._fields) + 40, (cls, used / len(values))


def test_prechecked_word_equals_checked_word():
    built = _prechecked_word("aax", AX)
    checked = Word("aax", AX)
    assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)


def _checked_twin(value):
    """`value` rebuilt through its public constructor, and so through its checks, fields first."""
    fields = [_checked_twin(f) if isinstance(f, _Value) else f for f in value._values()]
    return type(value)(*fields)


_PROBLEM = SuperimpositionProblem(13, 13, 1, 4, 3)

# Every public way the library builds a value without its constructor's checks.
BUILT_WITHOUT_CHECKS = {
    "reverse": lambda: reverse(Word("aaxax", AX)),
    "conjugate": lambda: conjugate(Word("aaxax", AX), 2),
    "decimate": lambda: decimate(Word("aaxaxaa", AX), DecimationSpec(1, 2, "right-to-left")),
    "projection": lambda: projection(fraenkel_word(3), "2", "x"),
    "christoffel_word": lambda: christoffel_word(ChristoffelSpec(8, 5, "c", "y")),
    "first_word": lambda: _PROBLEM.first_word(),
    "second_word": lambda: _PROBLEM.second_word("b", "y"),
    "letter_positions": lambda: letter_positions(ChristoffelSpec(8, 5)),
    "merge_superimposition": lambda: merge_superimposition(*canonical_witness(_PROBLEM)),
    "fraenkel_word": lambda: fraenkel_word(4),
}


@pytest.mark.parametrize("build", BUILT_WITHOUT_CHECKS.values(), ids=BUILT_WITHOUT_CHECKS)
def test_values_built_without_checks_equal_their_checked_twins(build):
    _cached_word.cache_clear()
    _cached_letter_pair.cache_clear()
    for value in (build(), build()):  # from empty memos, then from the memos
        twin = _checked_twin(value)
        assert value == twin and twin == value
        assert hash(value) == hash(twin) and repr(value) == repr(twin)
        loaded = pickle.loads(pickle.dumps(value))
        assert type(loaded) is type(value) and loaded == value and repr(loaded) == repr(value)
        for part in (value, *(f for f in value._values() if isinstance(f, _Value))):
            assert not hasattr(part, "__dict__")
    # The second build took from the word memo every word that the first one built.
    memo = _cached_word.cache_info()
    assert memo.hits == memo.misses


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
    (BeattySpec, (7, 3, "1/0"), ValueError, "offset is not a finite rational number: '1/0'"),
    (BeattySpec, (7, 3, "abc"), ValueError, "offset is not a finite rational number: 'abc'"),
    (BeattySpec, (7, 3, None), TypeError, "offset must be a Fraction, an int or a string, got None"),
    (BeattySpec, (7, 3, 1j), TypeError, "offset must be a Fraction, an int or a string, got 1j"),
]


@pytest.mark.parametrize("cls, args, error, message", REJECTED)
def test_constructor_rejects(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert str(info.value) == message
