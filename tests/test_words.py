import os
import subprocess
import sys
import tracemalloc
from math import gcd, isqrt
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import christoffel
import christoffel.words as words_module
from christoffel import (
    ChristoffelSpec,
    DecimationSpec,
    Direction,
    OrderedAlphabet,
    Word,
    christoffel_word,
    conjugate,
    decimate,
    fraenkel_word,
    is_balanced,
    is_circularly_balanced,
    is_primitive,
    letter_frequencies,
    projection,
    reverse,
)

from conftest import (brute_balanced, brute_circularly_balanced, brute_primitive, balanced_words, cw,
                      words_upto)

AX = OrderedAlphabet("ax")
DIGITS = OrderedAlphabet("1234")


def test_alphabet_rejects_duplicates_and_multichar():
    with pytest.raises(ValueError):
        OrderedAlphabet(("a", "a"))
    with pytest.raises(ValueError):
        OrderedAlphabet(("ab", "x"))
    with pytest.raises(ValueError):
        OrderedAlphabet(())


def test_make_word_example():
    w = Word("aaxaaxax", AX)
    assert len(w) == 8
    assert w.symbols.count("a") == 5
    assert w.symbols.count("x") == 3


def test_make_word_empty():
    assert len(Word("", AX)) == 0


def test_count_letter():
    assert Word("", AX).symbols.count("a") == 0
    assert Word("1213121", DIGITS).symbols.count("1") == 4
    assert letter_frequencies(Word("1213121", DIGITS)) == {"1": 4, "2": 2, "3": 1, "4": 0}
    # A letter outside the alphabet is never counted.
    assert Word("ax", AX).symbols.count("z") == 0
    assert "z" not in letter_frequencies(Word("ax", AX))


def test_foreign_symbol_message_names_first_bad_index():
    s = "ax" * 5000 + "z" + "xa" * 5000 + "b"
    with pytest.raises(ValueError) as info:
        Word(s, AX)
    assert str(info.value) == "symbol 'z' at index 10000 is not in alphabet ('a', 'x')"


CHARACTERS = st.characters(exclude_categories=("Cs",))


@st.composite
def letters_and_symbols(draw):
    """Distinct printable letters, and a string over them plus up to three other characters."""
    letters = draw(st.lists(CHARACTERS.filter(str.isprintable), min_size=1, max_size=6, unique=True))
    pool = letters + draw(st.lists(CHARACTERS, max_size=3))
    return letters, draw(st.text(alphabet=st.sampled_from(pool), max_size=40))


@settings(max_examples=300)
@given(letters_and_symbols())
@example((["a", "x"], "axxab"))
@example((["\u0436", "\u03b1"], "\u03b1\u0436\u00e9\u0436"))  # Cyrillic, Greek, a Latin-1 foreigner
@example((["\U0001d51e", "\U0001f600", "a"], "a\U0001f600\U0001d51e\U0001d51f"))  # astral
def test_word_accepts_exactly_the_symbols_of_its_alphabet(case):
    letters, symbols = case
    alpha = OrderedAlphabet(tuple(letters))
    if set(symbols) <= set(letters):
        assert Word(symbols, alpha).symbols == symbols
    else:
        i, c = next((i, c) for i, c in enumerate(symbols) if c not in letters)
        with pytest.raises(ValueError) as info:
            Word(symbols, alpha)
        assert str(info.value) == f"symbol {c!r} at index {i} is not in alphabet {alpha.letters}"
    if symbols:
        with pytest.raises(ValueError, match="at index 0 is not in alphabet"):
            Word(symbols.encode(), alpha)


def test_word_rejects_symbols_that_are_not_a_str():
    for symbols, kind in ((b"", "bytes"), (["a", "x"], "list"), (("a",), "tuple")):
        with pytest.raises(ValueError, match=f"symbols must be a str, not {kind}"):
            Word(symbols, AX)


@st.composite
def words_and_transforms(draw):
    """A word over 1 to 4 distinct letters, and the arguments of each transform on it."""
    letters = draw(st.lists(CHARACTERS.filter(str.isprintable), min_size=1, max_size=4, unique=True))
    w = Word(draw(st.text(alphabet=st.sampled_from(letters), max_size=60)), OrderedAlphabet(tuple(letters)))
    q = draw(st.integers(min_value=1, max_value=6))
    decimation = DecimationSpec(draw(st.integers(0, q)), q, draw(st.sampled_from(list(Direction))),
                                draw(st.sampled_from(letters)))
    filler = draw(CHARACTERS.filter(lambda c: c.isprintable() and c not in letters))
    return w, draw(st.integers(-70, 70)), decimation, draw(st.sampled_from(letters)), filler


def assert_word_passes_public_checks(w):
    """A word a producer builds without the checks of `Word` must pass them."""
    assert Word(w.symbols, w.alphabet) == w


@settings(max_examples=200)
@given(words_and_transforms())
def test_transforms_pass_the_public_checks(case):
    w, k, decimation, letter, filler = case
    for out in (reverse(w), decimate(w, decimation), projection(w, letter, filler)):
        assert_word_passes_public_checks(out)
    if w.symbols:
        assert_word_passes_public_checks(conjugate(w, k))


@settings(max_examples=200)
@given(st.integers(1, 3000), st.data(), st.lists(CHARACTERS.filter(str.isprintable), min_size=2, max_size=2, unique=True))
def test_christoffel_words_pass_the_public_checks(n, data, letters):
    # Lengths on both sides of the memo bound (1024) take both build paths.
    alpha = data.draw(st.integers(1, n))
    assert_word_passes_public_checks(christoffel_word(ChristoffelSpec(n, alpha, *letters)))


def test_fraenkel_words_pass_the_public_checks():
    for k in range(1, 21):
        assert_word_passes_public_checks(fraenkel_word(k))


def test_balance_examples():
    two = OrderedAlphabet("12")
    assert is_balanced(Word("112121", two))
    assert is_balanced(Word("112112", two))
    assert not is_balanced(Word("1122", two))


def test_circular_balance_examples():
    two = OrderedAlphabet("12")
    assert not is_circularly_balanced(Word("112121", two))
    assert is_circularly_balanced(Word("112", two))
    assert is_circularly_balanced(Word("", two))


def test_balance_matches_brute_force():
    for s in words_upto("ab", 13):
        w = Word(s, OrderedAlphabet("ab"))
        assert is_balanced(w) == brute_balanced(s), s
    for s in words_upto("abc", 8):
        w = Word(s, OrderedAlphabet("abc"))
        assert is_balanced(w) == brute_balanced(s), s


def test_circular_balance_matches_brute_force():
    for s in words_upto("ab", 14):
        w = Word(s, OrderedAlphabet("ab"))
        assert is_circularly_balanced(w) == brute_circularly_balanced(s), s
    for s in words_upto("abc", 8):
        w = Word(s, OrderedAlphabet("abc"))
        assert is_circularly_balanced(w) == brute_circularly_balanced(s), s


def test_predicates_ignore_unused_letters_of_the_alphabet():
    # The predicates read the letters present off the alphabet; the references
    # read them off the word, as a set.  The words over each two letters of
    # four include those over one letter, and the empty word.
    abcd = OrderedAlphabet("abcd")
    cases = [s for i, x in enumerate("abcd") for y in "abcd"[i + 1:] for s in words_upto(x + y, 8)]
    assert "" in cases and "dddddddd" in cases and len(cases) == 6 * 511
    for s in cases:
        w = Word(s, abcd)
        assert is_balanced(w) == brute_balanced(s), s
        assert is_circularly_balanced(w) == brute_circularly_balanced(s), s
        if s:
            assert is_primitive(w) == brute_primitive(s), s


def test_balance_matches_brute_force_on_deep_factors():
    """Long factors reach the deeper levels of the desubstitution; slopes of
    consecutive Fibonacci numbers give the most levels for a length.  A
    flipped letter, anywhere or at either end, may or may not unbalance it."""
    assert is_balanced(Word("aabababaa", OrderedAlphabet("ab")))
    assert not is_balanced(Word("aaababaa", OrderedAlphabet("ab")))
    rng = Random(2010)
    fibonacci = [(21, 13), (34, 21), (55, 34), (89, 55), (144, 89), (233, 144)]
    slopes = fibonacci + [(n, rng.randint(1, n - 1)) for n in rng.sample(range(16, 161), 24)]
    cases = []
    for n, alpha in slopes:
        word = cw(n, alpha, "a", "b").symbols * (160 // n + 2)  # a power, so factors cross the period
        for _ in range(2):
            length = rng.randint(16, 160)
            start = rng.randrange(len(word) - length + 1)
            factor = word[start:start + length]
            for i in (rng.randrange(length), 0, length - 1):
                cases.append(factor[:i] + "ab"[factor[i] == "a"] + factor[i + 1:])
            cases.append(factor)
    fraenkel = fraenkel_word(5).symbols * 3
    for _ in range(12):
        length = rng.randint(16, 80)
        start = rng.randrange(len(fraenkel) - length + 1)
        factor = fraenkel[start:start + length]
        i = rng.randrange(length)
        cases += [factor, factor[:i] + rng.choice("12345".replace(factor[i], "")) + factor[i + 1:]]
    verdicts = [is_balanced(Word(s, OrderedAlphabet(sorted(set(s))))) for s in cases]
    assert verdicts == [brute_balanced(s) for s in cases]
    assert 0 < sum(verdicts) < len(cases)


def test_predicates_on_long_words():
    n = 100_003  # the word length of the `large` benchmark
    word = christoffel_word(ChristoffelSpec(n, 30_001))
    assert is_balanced(word)
    assert is_primitive(word)
    assert not is_balanced(Word(word.symbols + "xx", AX))
    for k in range(0, n, 9_973):
        assert is_circularly_balanced(conjugate(word, k)), k
    dense = christoffel_word(ChristoffelSpec(n, 70_001))
    assert "aa" in dense.symbols
    assert not is_balanced(Word(dense.symbols + "xx", AX))
    power = Word(word.symbols * 3, AX)
    assert not is_primitive(power)
    assert is_balanced(power) and is_circularly_balanced(power)
    fraenkel = fraenkel_word(12)
    assert is_balanced(fraenkel) and is_circularly_balanced(fraenkel)


def test_import_does_not_load_numpy():
    # Each of these would slow CLI start; dataclasses also loads inspect, ast, dis and tokenize.
    src = os.path.dirname(os.path.dirname(os.path.abspath(christoffel.__file__)))
    probe = ("import sys, christoffel.cli; "
             "print(sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_circular_balance_implies_balance():
    for s in words_upto("ab", 10):
        w = Word(s, OrderedAlphabet("ab"))
        if is_circularly_balanced(w):
            assert is_balanced(w), s


def test_projection_preserves_circular_balance_exhaustively():
    letters = "123"
    circ = [s for s in balanced_words(letters, 10) if brute_circularly_balanced(s)]
    assert len(circ) > 1000
    for s in circ:
        w = Word(s, OrderedAlphabet(letters))
        assert is_circularly_balanced(w)
        for letter in letters:
            assert is_circularly_balanced(projection(w, letter, "x")), (s, letter)


def test_reverse_examples():
    assert reverse(Word("aaxaaxax", AX)).symbols == "xaxaaxaa"
    aba = Word("aba", OrderedAlphabet("ab"))
    assert reverse(aba) == aba
    bz = OrderedAlphabet("bz")
    assert reverse(Word("bzzzbzzzbzzzz", bz)).symbols == "zzzzbzzzbzzzb"


@given(st.text(alphabet="abc", max_size=30))
def test_reverse_involution(s):
    w = Word(s, OrderedAlphabet("abc"))
    assert reverse(reverse(w)) == w


def test_conjugate_examples():
    aab = Word("aab", OrderedAlphabet("ab"))
    assert conjugate(aab, 1).symbols == "aba"
    assert conjugate(aab, 3) == aab
    bz = OrderedAlphabet("bz")
    w = Word("bzzzbzzzbzzzz", bz)
    assert conjugate(w, 9).symbols == "zzzzbzzzbzzzb"
    assert conjugate(w, 9) == reverse(w)


def test_conjugate_empty_word():
    empty = Word("", AX)
    assert conjugate(empty, 0) == empty
    with pytest.raises(ValueError):
        conjugate(empty, 1)


def test_conjugate_composition_exhaustive_small():
    for s in words_upto("ab", 8):
        if not s:
            continue
        n = len(s)
        w = Word(s, OrderedAlphabet("ab"))
        for i in range(-n, n + 1):
            wi = conjugate(w, i)
            for j in range(-n, n + 1):
                assert conjugate(wi, j) == conjugate(w, i + j)
        assert conjugate(w, n) == w


@given(st.text(alphabet="ab", min_size=1, max_size=12), st.data())
@settings(max_examples=200)
def test_conjugate_composition(s, data):
    n = len(s)
    i = data.draw(st.integers(min_value=-n, max_value=n))
    j = data.draw(st.integers(min_value=-n, max_value=n))
    w = Word(s, OrderedAlphabet("ab"))
    assert conjugate(conjugate(w, i), j) == conjugate(w, i + j)
    assert conjugate(w, n) == w


def test_is_primitive():
    assert is_primitive(Word("aaxaaxax", AX))
    assert not is_primitive(Word("axax", AX))
    assert is_primitive(Word("a", AX))
    with pytest.raises(ValueError):
        is_primitive(Word("", AX))


def _check_primitivity_exhaustively(alphabets):
    """is_primitive against the reference on every nonempty word up to each length."""
    for letters, max_len in alphabets:
        over = OrderedAlphabet(letters)
        for s in words_upto(letters, max_len):
            if s:
                assert is_primitive(Word(s, over)) == brute_primitive(s), s


def test_is_primitive_matches_brute_force_on_all_short_words():
    _check_primitivity_exhaustively((("ab", 14), ("abc", 9)))


def test_is_primitive_matches_brute_force_on_long_powers():
    # Lengths with many small prime factors, a large power of 2, a prime
    # square and a prime; u**k has exactly that length when k divides it.
    rng = Random(13)
    for length in (30_030, 2**16, 101**2, 100_003):
        for k in range(1, 8):
            m = length // k
            alpha = next(a for a in range(m * 3 // 8, m) if gcd(a, m) == 1)
            roots = [cw(m, alpha).symbols, "".join(rng.choice("ax") for _ in range(m))]
            for root in roots:
                s = root * k
                # With its last letter changed, s loses every period it had.
                for t in (s, s[:-1] + ("a" if s[-1] == "x" else "x")):
                    assert is_primitive(Word(t, AX)) == brute_primitive(t), (length, k)
            assert is_primitive(Word(roots[0] * k, AX)) == (k == 1)


def _naive_prime_divisors(n, primes):
    """The distinct prime divisors of n, by trial division over `primes`, which must reach sqrt(n)."""
    out = []
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    return out + [n] * (n > 1)


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    return [i for i in range(limit) if sieve[i]]


def test_prime_divisors_match_naive_factorization():
    small = list(range(2, 200))  # every integer, so no prime is assumed
    for n in range(1, 20_001):
        assert list(words_module._prime_divisors(n)) == _naive_prime_divisors(n, small), n
    primes = _primes_below(10**6 + 1)  # up to the square root of 10**12
    rng = Random(12)
    cases = [p * p for p in rng.sample(primes, 20) + primes[-3:]]  # prime squares
    cases += [2**a * 3**b for a in range(40) for b in range(26) if 2**a * 3**b <= 10**12]
    cases += [p * q for p, q in zip(primes[-6:], primes[-5:])]  # products of two close primes
    cases += [6 * p * q for p, q in zip(primes[1000:1010], primes[1001:1011])]
    large = []
    while len(large) < 6:
        k = rng.randrange(10**11 // 6, 10**12 // 6)  # primes 6k - 1 and 6k + 1
        large += [n for n in (6 * k - 1, 6 * k + 1) if _naive_prime_divisors(n, primes) == [n]]
    for n in cases + large:
        assert list(words_module._prime_divisors(n)) == _naive_prime_divisors(n, primes), n


@pytest.mark.parametrize("block", [1, 2, 3])
def test_is_primitive_matches_brute_force_across_blocks(monkeypatch, block):
    monkeypatch.setattr(words_module, "_BLOCK", block)
    _check_primitivity_exhaustively((("ab", 11), ("aβc", 7)))
    # Periods that straddle a block, and powers changed in one letter of
    # their last block, at each place in it.
    rng = Random(block)
    for d in range(1, 4 * block + 3):
        for k in range(2, 5):
            s = "".join(rng.choices("ax", k=d)) * k
            n = len(s)
            assert not is_primitive(Word(s, AX)), s
            last = n - 1 - (n - 1 - d) % block  # the start of the last block compared
            for i in range(last, n):
                t = s[:i] + "ax"[s[i] == "a"] + s[i + 1:]
                assert is_primitive(Word(t, AX)) == brute_primitive(t), (t, i)


def test_is_primitive_does_not_double_the_word():
    # The traced peak is the block compared, one byte a letter here, and a
    # few small objects; a copy of the word would be 100 KB.
    primitive = cw(100_003, 37_001)
    power = Word(cw(33_334, 10_001).symbols * 3, AX)
    for word, expected in ((primitive, True), (power, False)):
        tracemalloc.start()
        try:
            assert is_primitive(word) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * words_module._BLOCK, (expected, peak)


def test_projection_examples():
    w = Word("1232343112", DIGITS)
    assert projection(w, "1", "x").symbols == "1xxxxxx11x"
    assert projection(w, "2", "x").symbols == "x2x2xxxxx2"
    assert projection(w, "3", "x").symbols == "xx3x3x3xxx"
    assert projection(w, "4", "x").symbols == "xxxxx4xxxx"
    assert projection(w, "1", "x").alphabet.letters == ("1", "x")


def test_projection_without_occurrences():
    w = Word("222", DIGITS)
    assert projection(w, "1", "x").symbols == "xxx"


def test_projection_filler_collision():
    w = Word("12", DIGITS)
    with pytest.raises(ValueError):
        projection(w, "1", "2")


def test_decimation_worked_example():
    ab = OrderedAlphabet("ab")
    w = Word("aabaabababa", ab)
    first = decimate(w, DecimationSpec(1, 3, Direction.RIGHT_TO_LEFT, "a"))
    assert first.symbols == "abababab"
    second = decimate(first, DecimationSpec(1, 2, Direction.LEFT_TO_RIGHT, "b"))
    assert second.symbols == "aabaab"


def test_decimation_zero_removals():
    ab = OrderedAlphabet("ab")
    w = Word("abbaba", ab)
    for direction in Direction:
        assert decimate(w, DecimationSpec(0, 1, direction, "a")) == w


def test_decimation_spec_validation():
    with pytest.raises(ValueError):
        DecimationSpec(2, 1, Direction.LEFT_TO_RIGHT, "a")
    with pytest.raises(ValueError):
        DecimationSpec(-1, 3, Direction.LEFT_TO_RIGHT, "a")
    for direction in ("sideways", "LEFT_TO_RIGHT", None, 0):
        with pytest.raises(ValueError):
            DecimationSpec(1, 2, direction, "a")
    for letter in ("ab", "", "\n", 7):
        with pytest.raises(ValueError, match="is not a single printable character"):
            DecimationSpec(1, 2, Direction.LEFT_TO_RIGHT, letter)


# Every public entry point that takes integer data: (call, valid arguments, their names).
INT_ENTRY_POINTS = [
    (ChristoffelSpec, (8, 5), ("n", "alpha")),
    (lambda p, q: DecimationSpec(p, q, Direction.LEFT_TO_RIGHT), (1, 2), ("p", "q")),
    (christoffel.SuperimpositionProblem, (13, 13, 2, 4, 3), ("n", "m", "q", "alpha", "beta")),
    (christoffel.SuperimpositionProblem.from_letter_counts, (13, 8, 13, 6), ("n", "a_count", "m", "b_count")),
    (christoffel.reversal_superimposition_criterion, (13, 4, 3), ("n", "alpha", "beta")),
    (christoffel.CoinPair, (8, 5), ("a", "b")),
    (lambda amount: christoffel.representable(christoffel.CoinPair(8, 5), amount), (27,), ("amount",)),
    (fraenkel_word, (3,), ("k",)),
    (christoffel.BeattySpec, (13, 4), ("numerator", "denominator")),
    (christoffel.beatty_disjoint_exists, (13, 4, 13, 3), ("p1", "q1", "p2", "q2")),
    (lambda modulus: christoffel.PositionSet(modulus, (0, 3)), (5,), ("modulus",)),
    (christoffel.modular_complement, (4, 13), ("alpha", "n")),
    (christoffel.oracle_beatty_disjoint, (13, 4, 13, 3), ("p1", "q1", "p2", "q2")),
    (lambda lo, hi: christoffel.beatty_slice(christoffel.BeattySpec(3, 2), lo, hi), (1, 4), ("lo", "hi")),
    (christoffel.christoffel_path, (2, 3), ("a", "b")),
    (lambda k: conjugate(cw(8, 5), k), (3,), ("k",)),
    (lambda k: conjugate(Word("", AX), k), (0,), ("k",)),
    (christoffel.modular_inverse, (4, 13), ("a", "n")),
]


class _Int(int):
    """An int subclass: equal to its int, and still not an int to the checks."""

    def __repr__(self):
        return f"_Int({int(self)})"


def test_int_arguments_refuse_bools_floats_and_strs():
    for call, valid, names in INT_ENTRY_POINTS:
        call(*valid)
        for i, name in enumerate(names):
            for bad in (True, float(valid[i]), str(valid[i]), _Int(valid[i])):
                with pytest.raises(TypeError) as raised:
                    call(*valid[:i], bad, *valid[i + 1:])
                assert str(raised.value) == f"{name} must be an int, got {bad!r}", (names, i, bad)
        # Arguments all of one type that is not int: the first in the signature is named.
        with pytest.raises(TypeError) as raised:
            call(*map(_Int, valid))
        assert str(raised.value) == f"{names[0]} must be an int, got _Int({valid[0]})", names


def test_decimation_spec_takes_direction_values():
    w = cw(7, 4)  # aaxaxax
    expected = {"left-to-right": "axxax", "right-to-left": "axaxx"}
    for value, result in expected.items():
        spec = DecimationSpec(1, 2, value)
        assert spec.direction is Direction(value)
        assert spec == DecimationSpec(1, 2, Direction(value))
        assert decimate(w, spec).symbols == result


def _reference_decimate(s, p, q, direction, letter, occ=None):
    """Position-by-position reference: walk the occurrence list explicitly.

    `occ`, the indices of `letter` in `s` from left to right, may be passed
    in when one word is decimated many times.
    """
    if occ is None:
        occ = [i for i, c in enumerate(s) if c == letter]
    if direction is Direction.RIGHT_TO_LEFT:
        occ = occ[::-1]
    doomed = set()
    for start in range(0, len(occ) + 1, q):
        block = occ[start:start + q]
        doomed.update(block[:p])
    return "".join(c for i, c in enumerate(s) if i not in doomed)


def _check_decimation_exhaustively(alphabets):
    """decimate against the reference on every word up to each length, for every (p, q <= 5)."""
    for letters, max_len in alphabets:
        alpha = OrderedAlphabet(letters)
        specs = [DecimationSpec(p, q, direction, letter)
                 for letter in letters for q in range(1, 6) for p in range(q + 1) for direction in Direction]
        for s in words_upto(letters, max_len):
            w = Word(s, alpha)
            occ = {letter: [i for i, c in enumerate(s) if c == letter] for letter in letters}
            for spec in specs:
                expected = _reference_decimate(s, spec.p, spec.q, spec.direction, spec.letter, occ[spec.letter])
                assert decimate(w, spec).symbols == expected, (s, spec)


def test_decimation_matches_reference_exhaustively():
    # A third letter shows that letters other than the target are left in place.
    _check_decimation_exhaustively((("ab", 10), ("abc", 6)))


@pytest.mark.parametrize("block", [1, 2, 3])
def test_decimation_matches_reference_across_blocks(monkeypatch, block):
    # Blocks of a few letters: occurrences fall in every phase at every block
    # boundary, and the non-ASCII letter is split on and deleted there too.
    monkeypatch.setattr(words_module, "_BLOCK", block)
    _check_decimation_exhaustively((("ab", 6), ("aβc", 4)))


def test_decimation_removal_count_on_a_long_word():
    w = christoffel_word(ChristoffelSpec(100_003, 37_001, "a", "b"))
    assert len(w) > 3 * words_module._BLOCK
    n_occ = 37_001
    occ = [i for i, c in enumerate(w.symbols) if c == "a"]
    for p, q in [(1, 1), (1, 3), (2, 5), (4, 7), (0, 4), (5, 5)]:
        for direction in Direction:
            result = decimate(w, DecimationSpec(p, q, direction, "a"))
            removed = p * (n_occ // q) + min(p, n_occ % q)
            assert result.symbols.count("a") == n_occ - removed, (p, q, direction)
            assert result.symbols.count("b") == 100_003 - n_occ
            assert result.symbols == _reference_decimate(w.symbols, p, q, direction, "a", occ), (p, q, direction)


def test_decimation_across_blocks_with_a_non_ascii_letter():
    rng = Random(7)
    s = "".join(rng.choices("aβc", k=3 * words_module._BLOCK + 7))
    w = Word(s, OrderedAlphabet("aβc"))
    for letter in "aβc":
        for direction in Direction:
            expected = _reference_decimate(s, 2, 5, direction, letter)
            assert decimate(w, DecimationSpec(2, 5, direction, letter)).symbols == expected, (letter, direction)


def test_decimation_scratch_memory_is_bounded_by_the_block():
    # The traced peak counts the result (about one byte a letter here, held
    # once as block strings and once joined) and one block's pieces; a split
    # of the whole word costs 20 to 26 bytes a letter.
    w = cw(1_000_003, 370_001)
    for letter in "ax":
        for direction in Direction:
            spec = DecimationSpec(2, 5, direction, letter)
            tracemalloc.start()
            try:
                decimate(w, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * len(w), (letter, direction, peak)


@given(st.text(alphabet="ab", max_size=40), st.data())
@settings(max_examples=300)
def test_decimation_matches_reference(s, data):
    q = data.draw(st.integers(min_value=1, max_value=6))
    p = data.draw(st.integers(min_value=0, max_value=q))
    direction = data.draw(st.sampled_from(list(Direction)))
    letter = data.draw(st.sampled_from(["a", "b"]))
    w = Word(s, OrderedAlphabet("ab"))
    result = decimate(w, DecimationSpec(p, q, direction, letter))
    assert result.symbols == _reference_decimate(s, p, q, direction, letter)


@given(st.text(alphabet="ab", max_size=40), st.data())
@settings(max_examples=200)
def test_decimation_removal_count(s, data):
    q = data.draw(st.integers(min_value=1, max_value=6))
    p = data.draw(st.integers(min_value=0, max_value=q))
    direction = data.draw(st.sampled_from(list(Direction)))
    w = Word(s, OrderedAlphabet("ab"))
    n_occ = s.count("a")
    result = decimate(w, DecimationSpec(p, q, direction, "a"))
    full_blocks = n_occ // q
    partial = min(p, n_occ - full_blocks * q)
    removed = full_blocks * p + partial
    assert result.symbols.count("a") == n_occ - removed
    assert result.symbols.count("b") == s.count("b")
