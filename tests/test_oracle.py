import re
import tracemalloc
from itertools import permutations
from math import gcd
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import christoffel.oracle as oracle_module
from christoffel import (
    CoinPair,
    OrderedAlphabet,
    SuperimpositionProblem,
    Word,
    conjugate,
    is_superimposable,
    merge_superimposition,
    oracle_frobenius,
    oracle_superimposable,
    perfectly_superimposable,
)
from christoffel.christoffel import _MEMO_MAX_N, _MEMO_SIZE
from christoffel.superimpose import _marked_letters

from conftest import brute_superimposable, cw, words_upto


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
        oracle_superimposable(Word("ax", OrderedAlphabet("ax")), Word("xa", OrderedAlphabet("ax")))
    with pytest.raises(ValueError):
        oracle_superimposable(Word("", OrderedAlphabet("ax")), Word("bx", OrderedAlphabet("bx")))


def _as_tuple(result):
    return result.decision, result.witnesses, result.modulus


def test_oracle_matches_literal_reference_on_christoffel_pairs():
    specs = [(n, a) for n in range(1, 31) for a in range(1, n + 1) if gcd(a, n) == 1]
    firsts = [cw(n, a) for n, a in specs]
    seconds = [cw(n, a, "b", "x") for n, a in specs]
    for u in firsts:
        for v in seconds:
            expected = brute_superimposable(u, v)
            assert _as_tuple(oracle_superimposable(u, v)) == expected, (u, v)
            # Unequal lengths fix which word moves, so the order cannot matter.
            if len(u) == len(v):
                expected = brute_superimposable(v, u)
            assert _as_tuple(oracle_superimposable(v, u)) == expected, (v, u)


def test_oracle_matches_literal_reference_on_sweep_sized_unequal_pairs():
    # The oracle folds the fixed word's n letters onto p = gcd(n, m) in
    # n/p blocks, and the moving word's m letters in m/p.  Seeded length
    # pairs from 61-120 give coprime lengths (p = 1, the deepest folds) and
    # both parities of the fixed block count; a proper divisor n of m gives
    # a single fixed block, which is not folded.
    rng = Random(2010)
    lengths = [tuple(sorted(rng.sample(range(61, 121), 2))) for _ in range(150)]
    for m in rng.sample([m for m in range(61, 121) if any(m % d == 0 for d in range(2, m))], 20):
        lengths.append((rng.choice([n for n in range(2, m) if m % n == 0]), m))
    copies = {n // gcd(n, m) for n, m in lengths}
    assert 1 in copies and any(c % 2 == 0 for c in copies) and any(c % 2 and c > 1 for c in copies)
    assert any(gcd(n, m) == 1 for n, m in lengths)
    decisions = set()
    for n, m in lengths:
        counts = [(a, b) for a in range(1, n + 1) if gcd(a, n) == 1 for b in range(1, m + 1) if gcd(b, m) == 1]
        rng.shuffle(counts)
        # One random count pair, and the first superimposable one if any, so
        # both decisions occur; the fast path only picks the inputs.
        picked = counts[:1] + [c for c in counts[1:200]
                               if is_superimposable(SuperimpositionProblem.from_letter_counts(n, c[0], m, c[1]))][:1]
        for a, b in picked:
            u, v = cw(n, a), cw(m, b, "b", "x")
            for first, second in ((u, v), (v, u)):
                expected = brute_superimposable(first, second)
                assert _as_tuple(oracle_superimposable(first, second)) == expected, (n, a, m, b)
                decisions.add(expected[0])
    assert decisions == {False, True}


def test_oracle_matches_literal_reference_on_long_pairs():
    # Lengths 150-600, where the common period runs to ~360,000 letters:
    # random pairs, pairs with a large common factor, and divisor pairs.
    rng = Random(2012)
    lengths = [tuple(rng.sample(range(150, 601), 2)) for _ in range(14)]
    for g in (rng.randint(150, 300) for _ in range(12)):
        lengths.append((g * rng.randint(1, 600 // g), g * rng.randint(1, 600 // g)))
    lengths += [(200, 600), (151, 453), (597, 199)]
    assert any(n != m and (n % m == 0 or m % n == 0) for n, m in lengths)
    decisions = set()
    for n, m in lengths:
        a = rng.choice([c for c in range(1, 40) if gcd(c, n) == 1])
        b = rng.choice([c for c in range(1, 40) if gcd(c, m) == 1])
        u, v = cw(n, a), cw(m, b, "b", "x")
        for first, second in ((u, v), (v, u)):
            expected = brute_superimposable(first, second)
            assert _as_tuple(oracle_superimposable(first, second)) == expected, (n, a, m, b)
            decisions.add(expected[0])
    assert decisions == {False, True}


def _marked_residues(u, v):
    """(F, M): the numbers of marked residues mod gcd(n, m) of the fixed (shorter) and the moving word."""
    if len(u) > len(v):
        u, v = v, u
    p = gcd(len(u), len(v))
    return tuple(len({i % p for i, c in enumerate(w.symbols) if c != "x"}) for w in (u, v))


def test_oracle_matches_literal_reference_whichever_side_is_sparser():
    # The oracle walks the marks of whichever side has fewer, and stops once
    # every shift is blocked.  Every pair of words of length <= 12, primitive
    # words and powers, in both orders, covers each side walked, ties, n > m,
    # a moving word of length 1, and both a stop (no free shift) and none;
    # a lone free shift is also moved to each end of the mask.
    specs = [(n, a) for n in range(1, 13) for a in range(1, n + 1)]
    seen = set()
    for n, a in specs:
        u = cw(n, a)
        for m, b in specs:
            v = cw(m, b, "b", "x")
            for first, second in ((u, v), (v, u)):
                expected = brute_superimposable(first, second)
                assert _as_tuple(oracle_superimposable(first, second)) == expected, (n, a, m, b)
                fixed, moving = _marked_residues(first, second)
                sparser = "tie" if fixed == moving else "fixed" if fixed < moving else "moving"
                seen.add((sparser, expected[0]))
                seen.add(("n > m", len(first) > len(second), expected[0]))
                seen.add(("m = 1", max(n, m) == 1, expected[0]))
                if len(expected[1]) == 1:
                    # Rotating the moving word puts its one free shift on the
                    # first bit of the mask, then on the last.
                    k, last = expected[1][0], max(n, m) - 1
                    for r, witness in ((k, 0), (k + 1, last)):
                        if len(first) <= len(second):
                            pair = first, conjugate(second, r)
                        else:
                            pair = conjugate(first, r), second
                        assert brute_superimposable(*pair)[1] == (witness,)
                        assert oracle_superimposable(*pair).witnesses == (witness,), (n, a, m, b, r)
    assert seen >= {(side, free) for side in ("fixed", "moving", "tie") for free in (False, True)}
    assert seen >= {("n > m", True, free) for free in (False, True)}
    assert seen >= {("m = 1", True, False)}


def test_oracle_memory_is_linear_in_the_lengths():
    # One common period of 4001 x 4003 is ~16 million letters; the masks the
    # oracle holds are a few 4003-bit ints.
    u, v = cw(4001, 1000), cw(4003, 1000, "b", "x")
    tracemalloc.start()
    try:
        oracle_superimposable(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def _memo_keys(u, v):
    """The keys under which the oracle memoises the two words of (u, v): each word, its mark, the filler and p."""
    mark_u, mark_v, filler = _marked_letters(u, v)
    p = gcd(len(u), len(v))
    return (u.symbols, mark_u, filler, p), (v.symbols, mark_v, filler, p)


def _check_memo_entry(key, entry):
    """Assert that a memo entry is the residue string, its count and the doubled mask of its key's word."""
    symbols, mark, filler, p = key
    bits, count, mask = entry
    marks = {i % p for i, c in enumerate(symbols) if c == mark}
    assert bits == "".join("1" if r in marks else "0" for r in range(p)), key
    assert count == len(marks), key
    assert mask == int(bits * 2, 2), key  # the string written twice, first letter highest


def test_oracle_answers_do_not_depend_on_the_memo():
    # Every Christoffel word, powers too, against every conjugate of every
    # Christoffel word with n, m <= 16: from an empty memo against the literal
    # reference, then again from a full memo, call for call the same results.
    memo = oracle_module._cached_residues
    firsts = [cw(n, a) for n in range(1, 17) for a in range(1, n + 1)]
    seconds = [conjugate(cw(m, b, "b", "x"), k) for m in range(1, 17) for b in range(1, m + 1) for k in range(m)]
    memo.cache_clear()
    cold, checked = [], set()
    for u in firsts:
        for v in seconds:
            result = oracle_superimposable(u, v)
            assert _as_tuple(result) == brute_superimposable(u, v), (u, v)
            cold.append(result)
            for key in _memo_keys(u, v):
                if key not in checked:
                    # Each entry the call just used, read back as a hit, is
                    # what the undecorated helper computes, and holds the
                    # literal readings of the word's marked residues.
                    hits = memo.cache_info().hits
                    entry = memo(*key)
                    assert entry == memo.__wrapped__(*key), key
                    assert memo.cache_info().hits == hits + 1
                    _check_memo_entry(key, entry)
                    checked.add(key)
    assert len(checked) > memo.cache_info().maxsize  # entries were evicted along the way
    warm = iter(cold)
    for u in firsts:
        for v in seconds:
            assert oracle_superimposable(u, v) == next(warm), (u, v)


def test_oracle_memo_keeps_to_its_bounds():
    memo = oracle_module._cached_residues
    assert memo.cache_info().maxsize == _MEMO_SIZE
    at_limit = cw(_MEMO_MAX_N, 5, "b", "x")
    oracle_superimposable(cw(7, 3), at_limit)
    before = memo.cache_info()
    oracle_superimposable(at_limit, cw(7, 3))
    assert memo.cache_info().hits == before.hits + 2  # one for each word
    # A longer word of _MEMO_MAX_N + 1 letters, on either side, with an
    # equal or a short partner, never reaches the memo.
    long_u, long_v = cw(_MEMO_MAX_N + 1, 7), cw(_MEMO_MAX_N + 1, 5, "b", "x")
    before = memo.cache_info()
    for pair in ((long_u, long_v), (long_v, long_u), (cw(7, 3), long_v), (long_v, cw(7, 3))):
        oracle_superimposable(*pair)
        oracle_superimposable(*pair)
    assert memo.cache_info() == before


def test_oracle_memo_hits_parse_and_convert_nothing(monkeypatch):
    # Every int() the oracle module calls and every word it parses is
    # counted: a word is parsed once per new gcd of the lengths it meets, and
    # a call on two memoised words, in either role, parses no word and
    # converts no bit string.
    ints, parses = [], []
    real_mark_mask = oracle_module._mark_mask

    def counting_int(*args):
        ints.append(args)
        return int(*args)

    def counting_mark_mask(*args):
        parses.append(args)
        return real_mark_mask(*args)

    monkeypatch.setattr(oracle_module, "int", counting_int, raising=False)
    monkeypatch.setattr(oracle_module, "_mark_mask", counting_mark_mask)
    oracle_module._cached_residues.cache_clear()
    u, v, short = cw(13, 4), cw(13, 3, "b", "x"), cw(9, 2, "b", "x")
    # (u, v) walks the sparser moving side and (v, u) the sparser fixed side;
    # (short, u) has p = 1, which u meets for the first time.
    for pair, parsed in (((u, v), 2), ((u, v), 0), ((v, u), 0), ((short, u), 2), ((u, short), 0)):
        del parses[:]
        result = oracle_superimposable(*pair)
        assert _as_tuple(result) == brute_superimposable(*pair), pair
        assert len(parses) == parsed, pair
    assert ints == []


def test_oracle_memo_memory_is_bounded():
    # A full memo at the length limit, filled from both sides of pairs of
    # equal length, so p = _MEMO_MAX_N and every entry is full size: a word's
    # letters and its residue string, _MEMO_MAX_N letters each, its mark
    # count and its doubled mask of 2 * _MEMO_MAX_N bits.
    memo = oracle_module._cached_residues
    fixed, moving = cw(_MEMO_MAX_N, 301), cw(_MEMO_MAX_N, 299, "b", "x")
    memo.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(_MEMO_SIZE + 8):
            oracle_superimposable(conjugate(fixed, k), conjugate(moving, k))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert memo.cache_info().currsize == _MEMO_SIZE
    assert retained <= 1024 * 1024


_bits =st.lists(st.booleans(), min_size=1, max_size=60)


@given(st.permutations("012a"), _bits, _bits)
@example(["1", "0", "2", "a"], [True, False, True, True], [False, True, False])
@example(["1", "0", "2", "a"], [False] * 5, [True] * 7)
@example(["0", "1", "2", "a"], [True] * 6, [False] * 4)
@example(["2", "1", "0", "a"], [True] * 3, [True] * 3)
def test_oracle_matches_literal_reference_on_binary_words(letters, bits_u, bits_v):
    # Digits as letters: a mark "0" with a filler "1" breaks any translation
    # to bit strings that substitutes one letter at a time.
    filler, mark_u, mark_v = letters[:3]
    u = Word("".join([mark_u if b else filler for b in bits_u]), OrderedAlphabet(filler + mark_u))
    v = Word("".join([mark_v if b else filler for b in bits_v]), OrderedAlphabet(mark_v + filler))
    assert _as_tuple(oracle_superimposable(u, v)) == brute_superimposable(u, v)
    assert _as_tuple(oracle_superimposable(v, u)) == brute_superimposable(v, u)


def test_oracle_matches_literal_reference_on_every_short_binary_pair():
    # Every pair of words of 1 to 7 letters, in both orders: pairs with every
    # shift free and with none, m = 1, and fixed sides with more marks than
    # the moving side, whose free shifts are read back negated.
    firsts = [Word(s, OrderedAlphabet("ax")) for s in words_upto("ax", 7) if s]
    seconds = [Word(s, OrderedAlphabet("bx")) for s in words_upto("bx", 7) if s]
    for u in firsts:
        for v in seconds:
            assert _as_tuple(oracle_superimposable(u, v)) == brute_superimposable(u, v), (u, v)
            assert _as_tuple(oracle_superimposable(v, u)) == brute_superimposable(v, u), (v, u)


@pytest.mark.parametrize("u, v, message", [
    ("", "bx", "superimposition needs nonempty words"),
    ("ax", "", "superimposition needs nonempty words"),
    ("ax", "by", "alphabets ('a', 'x') and ('b', 'y') must share exactly the filler"),
    ("ax", "xa", "alphabets ('a', 'x') and ('x', 'a') must share exactly the filler"),
    ("abx", "bx", "alphabets ('a', 'b', 'x') and ('b', 'x') must share exactly the filler"),
    ("ax", "bcx", "alphabets ('a', 'x') and ('b', 'c', 'x') must share exactly the filler"),
])
def test_oracle_error_messages(u, v, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        oracle_superimposable(Word(u, OrderedAlphabet(u or "ax")), Word(v, OrderedAlphabet(v or "bx")))


def _reference_marks(lu, lv):
    """(mark of u, mark of v, filler) by set algebra; None unless both have two letters, one shared."""
    common = set(lu) & set(lv)
    if len(lu) != 2 or len(lv) != 2 or len(common) != 1:
        return None
    (mark_u,), (mark_v,), (filler,) = set(lu) - common, set(lv) - common, common
    return mark_u, mark_v, filler


def test_marks_and_filler_match_a_set_reference():
    pool = "abxy"
    alphabets = [letters for size in (1, 2, 3) for letters in permutations(pool, size)]
    for lu in alphabets:
        for lv in alphabets:
            u, v = Word("".join(lu), OrderedAlphabet(lu)), Word("".join(lv), OrderedAlphabet(lv))
            reference = _reference_marks(lu, lv)
            if reference is None:
                message = f"^{re.escape(f'alphabets {lu} and {lv} must share exactly the filler')}$"
                with pytest.raises(ValueError, match=message):
                    perfectly_superimposable(u, v)
                with pytest.raises(ValueError, match=message):
                    oracle_superimposable(u, v)
                continue
            mark_u, mark_v, filler = reference
            # Every word of length 1 to 3 on each side, so the answers depend on which letter marks.
            for su in (s for s in words_upto(lu, 3) if s):
                for sv in (s for s in words_upto(lv, 3) if s):
                    u, v = Word(su, OrderedAlphabet(lu)), Word(sv, OrderedAlphabet(lv))
                    g = gcd(len(su), len(sv))
                    meet = {i % g for i, c in enumerate(su) if c == mark_u} & {
                        j % g for j, c in enumerate(sv) if c == mark_v}
                    assert perfectly_superimposable(u, v) == (not meet), (su, sv)
                    assert _as_tuple(oracle_superimposable(u, v)) == brute_superimposable(u, v), (su, sv)
            # The overlay's alphabet spells out the marks and the filler.
            merged = merge_superimposition(Word(filler, OrderedAlphabet(lu)), Word(filler, OrderedAlphabet(lv)))
            assert merged.alphabet.letters == (mark_u, mark_v, filler)


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


def test_oracle_frobenius_covers_unit_coins():
    assert oracle_frobenius(CoinPair(1, 5)) == oracle_frobenius(CoinPair(5, 1)) == (-1, 0)

