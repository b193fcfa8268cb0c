import tracemalloc
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import christoffel.superimpose as superimpose_module
from christoffel import (
    BezoutSolution,
    ChristoffelSpec,
    OrderedAlphabet,
    SuperimpositionProblem,
    Word,
    alphabet,
    analyze,
    canonical_shift,
    canonical_witness,
    christoffel_word,
    collapse_merge,
    conjugate,
    count_superimpositions,
    crosscheck,
    interval_offsets,
    is_superimposable,
    make_word,
    merge_superimposition,
    oracle_superimposable,
    perfectly_superimposable,
    reversal_superimposition_criterion,
    reverse,
    solve_bezout,
)
from christoffel.superimpose import _bezout, _marked_letters

from conftest import coprimes, cw, scan_positions


def reference_superimposable(u, v):
    """The validator letter by letter: the residues mod gcd(n, m) of u's marks against v's."""
    if len(u) == 0 or len(v) == 0:
        raise ValueError("superimposition needs nonempty words")
    mark_u, mark_v, _ = _marked_letters(u, v)
    g = gcd(len(u), len(v))
    res_u = {i % g for i, c in enumerate(u.symbols) if c == mark_u}
    return not any(j % g in res_u for j, c in enumerate(v.symbols) if c == mark_v)


def reference_merge(u, v):
    """The overlay letter by letter, raising at the first position where both words have a mark."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    mark_u, mark_v, filler = _marked_letters(u, v)
    out = []
    for i in range(len(u)):
        if u.symbols[i] == mark_u:
            if v.symbols[i] == mark_v:
                raise ValueError(f"marked letters collide at position {i}")
            out.append(mark_u)
        elif v.symbols[i] == mark_v:
            out.append(mark_v)
        else:
            out.append(filler)
    return Word("".join(out), OrderedAlphabet((mark_u, mark_v, filler)))


def merge_outcome(merge, u, v):
    """The merged word, or the message of the ValueError that `merge` raised instead."""
    try:
        return merge(u, v)
    except ValueError as error:
        return str(error)


def short_words(letters, max_len):
    """Every nonempty word over `letters` of length at most `max_len`."""
    return [make_word("".join(t), alphabet(letters))
            for length in range(1, max_len + 1) for t in product(letters, repeat=length)]


def same_length_problems(max_n):
    for n in range(1, max_n + 1):
        for a in coprimes(n):
            for b in coprimes(n):
                yield SuperimpositionProblem.from_letter_counts(n, a, n, b)


def test_problem_validation():
    with pytest.raises(ValueError):
        SuperimpositionProblem(8, 8, 1, 2, 3)  # 2 not coprime to 8
    with pytest.raises(ValueError):
        SuperimpositionProblem(13, 13, 1, 4, 6)  # alpha, beta not coprime
    with pytest.raises(ValueError):
        SuperimpositionProblem.from_letter_counts(8, 1, 8, 2)  # second word is a power
    with pytest.raises(ValueError, match=r"^marked-letter counts must be positive$"):
        SuperimpositionProblem.from_letter_counts(8, 0, 8, 1)
    SuperimpositionProblem(13, 13, 2, 4, 3)  # valid: 8 and 6 both coprime to 13


def test_solve_bezout_examples():
    assert solve_bezout(SuperimpositionProblem(13, 13, 1, 4, 3)) == BezoutSolution(1, 3, 1)
    assert solve_bezout(SuperimpositionProblem(5, 5, 1, 1, 1)) == BezoutSolution(4, 1, 0)
    assert solve_bezout(SuperimpositionProblem(7, 7, 1, 2, 3)) == BezoutSolution(2, 1, 1)


def test_solve_bezout_window_and_coprimality():
    for problem in same_length_problems(40):
        sol = solve_bezout(problem)
        rhs = problem.p - 2 * problem.alpha * problem.beta * (problem.q - 1)
        assert sol.x * problem.alpha + sol.y * problem.beta == rhs
        assert 1 <= sol.y <= problem.alpha
        assert sol.z == problem.alpha - sol.y
        assert gcd(problem.alpha, sol.z) == 1


def test_is_superimposable_examples():
    assert is_superimposable(SuperimpositionProblem(13, 13, 1, 4, 3))
    assert not is_superimposable(SuperimpositionProblem(3, 4, 1, 1, 1))
    assert is_superimposable(SuperimpositionProblem(4, 6, 1, 1, 1))


def test_count_examples():
    assert count_superimpositions(SuperimpositionProblem(13, 13, 1, 4, 3)) == 3
    assert count_superimpositions(SuperimpositionProblem(4, 6, 1, 1, 1)) == 3
    assert count_superimpositions(SuperimpositionProblem(3, 4, 1, 1, 1)) == 0


def test_count_matches_oracle_witnesses():
    result = oracle_superimposable(cw(4, 1), cw(6, 1, "b", "x"))
    assert result.witnesses == (1, 3, 5)
    assert result.modulus == 6


def test_canonical_shift_examples():
    prob = SuperimpositionProblem(13, 13, 1, 4, 3)
    assert canonical_shift(prob) == (0, True)
    u, witness = canonical_witness(prob, "a", "b", "z")
    assert u.symbols == "azzazzazzazzz"
    assert witness.symbols == "zzzzbzzzbzzzb"
    assert perfectly_superimposable(u, witness)


def test_canonical_shift_zero_whenever_q_is_one():
    for problem in same_length_problems(25):
        if problem.q == 1 and is_superimposable(problem):
            assert canonical_shift(problem)[0] == 0


def test_canonical_shift_requires_superimposable():
    with pytest.raises(ValueError):
        canonical_shift(SuperimpositionProblem(3, 4, 1, 1, 1))


def test_single_mark_against_reversed_double_mark():
    # C(8,1) overlays the reversal of C(8,2) with no shift at all.
    u = cw(8, 1)
    v = reverse(cw(8, 2, "b", "x"))
    assert u.symbols == "axxxxxxx"
    assert v.symbols == "xxxbxxxb"
    assert scan_positions(u, "a") == {0}
    assert scan_positions(v, "b") == {3, 7}
    assert perfectly_superimposable(u, v)


def test_perfectly_superimposable_examples():
    u = make_word("aaxaxx", alphabet("ax"))
    v = make_word("xxbxxx", alphabet("bx"))
    assert perfectly_superimposable(u, v)
    assert not perfectly_superimposable(make_word("axx", alphabet("ax")),
                                         make_word("bxx", alphabet("bx")))
    assert perfectly_superimposable(cw(13, 4, "a", "z"),
                                    make_word("zzzzbzzzbzzzb", alphabet("bz")))


def test_perfectly_superimposable_unequal_periods():
    # period 2 versus period 3 collide somewhere in lcm 6 despite distinct heads
    u = make_word("ax", alphabet("ax"))
    v = make_word("xxb", alphabet("bx"))
    res_u = {0, 2, 4}
    res_v = {2, 5}
    assert bool(res_u & res_v)
    assert not perfectly_superimposable(u, v)


@settings(max_examples=500)
@given(st.text(alphabet="ax", min_size=1, max_size=40), st.text(alphabet="bx", min_size=1, max_size=40))
def test_perfectly_superimposable_matches_oracle_on_arbitrary_words(u, v):
    u, v = make_word(u, alphabet("ax")), make_word(v, alphabet("bx"))
    assert perfectly_superimposable(u, v) == (0 in oracle_superimposable(u, v).witnesses)


def test_perfectly_superimposable_matches_reference_on_every_short_pair():
    us, vs = short_words("ax", 7), short_words("bx", 7)
    assert len(us) * len(vs) == 64_516
    for u in us:
        for v in vs:
            assert perfectly_superimposable(u, v) == reference_superimposable(u, v), (u.symbols, v.symbols)


def test_validator_and_merge_match_references_on_christoffel_pairs():
    # Every count, so powers too, against every conjugate of the second word.
    firsts = [cw(n, a) for n in range(1, 17) for a in range(1, n + 1)]
    seconds = {n: [conjugate(cw(n, b, "b", "x"), k) for b in range(1, n + 1) for k in range(n)]
               for n in range(1, 17)}
    for u in firsts:
        for vs in seconds.values():
            for v in vs:
                assert perfectly_superimposable(u, v) == reference_superimposable(u, v), (u, v)
        for v in seconds[len(u)]:
            assert merge_outcome(merge_superimposition, u, v) == merge_outcome(reference_merge, u, v), (u, v)


@pytest.mark.parametrize("n, a_count, m, b_count", [(100_003, 37_001, 100_003, 50_001),
                                                    (100_000, 30_001, 150_000, 70_001)])
def test_perfectly_superimposable_memory_is_linear_in_the_lengths(n, a_count, m, b_count):
    u, v = cw(n, a_count), cw(m, b_count, "b", "x")
    tracemalloc.start()
    try:
        perfectly_superimposable(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (n + m)


def test_perfectly_superimposable_alphabet_mismatch():
    with pytest.raises(ValueError):
        perfectly_superimposable(make_word("ax", alphabet("ax")), make_word("ax", alphabet("ax")))
    with pytest.raises(ValueError):
        perfectly_superimposable(make_word("ax", alphabet("ax")), make_word("by", alphabet("by")))
    with pytest.raises(ValueError):
        perfectly_superimposable(make_word("", alphabet("ax")), make_word("b", alphabet("bx")))


def test_merge_example():
    u = cw(13, 4, "a", "z")
    v = make_word("zzzzbzzzbzzzb", alphabet("bz"))
    merged = merge_superimposition(u, v)
    assert merged.symbols == "azzabzazbazzb"
    assert merged.alphabet.letters == ("a", "b", "z")
    collapsed = collapse_merge(merged, "z")
    assert collapsed.symbols == "aababab"
    assert collapsed == cw(7, 4, "a", "b")


def test_merge_all_filler():
    u = make_word("zzz", alphabet("az"))
    v = make_word("zzz", alphabet("bz"))
    assert merge_superimposition(u, v).symbols == "zzz"
    assert collapse_merge(merge_superimposition(u, v), "z").symbols == ""
    empty = merge_superimposition(make_word("", alphabet("az")), make_word("", alphabet("bz")))
    assert empty == make_word("", alphabet("abz"))


def test_merge_matches_reference_on_every_short_equal_length_pair():
    us, vs = short_words("az", 7), short_words("bz", 7)
    pairs = [(u, v) for u in us for v in vs if len(u) == len(v)]
    assert len(pairs) == 21_844
    for u, v in pairs:
        merged = merge_outcome(merge_superimposition, u, v)
        assert merged == merge_outcome(reference_merge, u, v), (u, v)
        if isinstance(merged, Word):
            # The merge skips the checks; the checked constructors take its fields as they are.
            assert merged == Word(merged.symbols, OrderedAlphabet(merged.alphabet.letters)), (u, v)


def test_merge_conflict_and_length_errors():
    with pytest.raises(ValueError, match="collide"):
        merge_superimposition(make_word("az", alphabet("az")), make_word("bz", alphabet("bz")))
    with pytest.raises(ValueError, match="length"):
        merge_superimposition(make_word("az", alphabet("az")), make_word("zzb", alphabet("bz")))


def test_collapse_merge_validation():
    with pytest.raises(ValueError):
        collapse_merge(make_word("ab", alphabet("ab")), "z")


def test_reversal_criterion_examples():
    assert reversal_superimposition_criterion(13, 4, 3)
    assert reversal_superimposition_criterion(7, 3, 2)
    assert reversal_superimposition_criterion(6, 1, 2)
    with pytest.raises(ValueError):
        reversal_superimposition_criterion(5, 2, 2)
    with pytest.raises(ValueError, match=r"^length must be positive$"):
        reversal_superimposition_criterion(0, 1, 1)
    with pytest.raises(ValueError, match=r"^marked counts must lie in \[1, n\]$"):
        reversal_superimposition_criterion(5, 6, 1)


def test_reversal_criterion_matches_position_check():
    # Also covers marked counts sharing a factor with the length (powers).
    for n in range(1, 81):
        words = {alpha: cw(n, alpha) for alpha in range(1, n + 1)}
        positions = {alpha: scan_positions(words[alpha], "a") for alpha in words}
        for alpha in range(1, n + 1):
            for beta in range(1, n + 1):
                if gcd(alpha, beta) != 1:
                    continue
                mirrored = {n - 1 - i for i in positions[beta]}
                direct = not (positions[alpha] & mirrored)
                assert reversal_superimposition_criterion(n, alpha, beta) == direct, (n, alpha, beta)


def test_reversal_criterion_coincides_with_equal_length_decision():
    for n in range(1, 81):
        for alpha in coprimes(n):
            for beta in coprimes(n):
                if gcd(alpha, beta) != 1:
                    continue
                problem = SuperimpositionProblem(n, n, 1, alpha, beta)
                assert is_superimposable(problem) == reversal_superimposition_criterion(n, alpha, beta)


def test_interval_offset_examples():
    assert interval_offsets(SuperimpositionProblem(13, 13, 1, 4, 3)) == (0, 4, 8, 12)


def test_interval_offset_unit_alpha_hits_shifted_endpoint():
    problem = SuperimpositionProblem(13, 13, 1, 1, 3)
    sol = solve_bezout(problem)
    assert sol.y == 1 and sol.x == 10
    assert interval_offsets(problem) == (13 - sol.x - 3,)


def test_free_residues_count_and_map_onto_oracle_witnesses():
    # Interval r is [-(q-1)*beta, q*beta - 1] moved left by offset r.  The
    # residues mod p it leaves free, stepped by e = -(q*beta)^-1 mod p
    # (negated when n > m) and lifted by multiples of p, are the witnesses.
    for n in range(1, 26):
        for m in range(1, 26):
            p, length = gcd(n, m), max(n, m)
            for a_count in coprimes(n):
                for b_count in coprimes(m):
                    problem = SuperimpositionProblem.from_letter_counts(n, a_count, m, b_count)
                    q, b = problem.q, problem.beta
                    blocked = {t % p for off in interval_offsets(problem)
                               for t in range(-(q - 1) * b - off, q * b - off)}
                    free = [k for k in range(p) if k not in blocked]
                    assert len(free) * (length // p) == count_superimpositions(problem), problem
                    e = -pow(q * b, -1, p) if n <= m else pow(q * b, -1, p)
                    lifted = {e * k % p + j * p for k in free for j in range(length // p)}
                    witnesses = oracle_superimposable(problem.first_word(), problem.second_word()).witnesses
                    assert lifted == set(witnesses), problem


def test_bezout_is_the_unique_windowed_solution():
    for a in range(1, 16):
        for b in (b for b in range(1, 16) if gcd(a, b) == 1):
            for rhs in range(-60, 60):
                x, y = _bezout(rhs, 1, a, b)
                assert a * x + b * y == rhs
                assert 1 <= y <= a


def test_superimposable_needs_room_at_gcd_length():
    for problem in same_length_problems(40):
        if is_superimposable(problem):
            assert problem.q * (problem.alpha + problem.beta) <= problem.p


def test_canonical_shift_and_lifts_validate():
    for problem in same_length_problems(36):
        if not is_superimposable(problem):
            continue
        u, witness = canonical_witness(problem)
        assert perfectly_superimposable(u, witness)
        v = problem.second_word()
        base, p, m = canonical_shift(problem)[0], problem.p, problem.m
        for shift in ((base + i * p) % m for i in range(m // p)):
            assert perfectly_superimposable(u, conjugate(reverse(v), shift)), (problem, shift)


def test_every_lift_is_an_oracle_witness():
    # reverse(v) is the conjugate of v that undoes a rotation by c, found by
    # trying every rotation, so a lift s of the reversed word rotates v
    # itself by s - c.
    for m in range(2, 31):
        for b_count in coprimes(m):
            v = cw(m, b_count, "b", "x")
            (c,) = [k for k in range(m) if conjugate(reverse(v), k) == v]
            for n in range(2, m + 1):
                for a_count in coprimes(n):
                    problem = SuperimpositionProblem.from_letter_counts(n, a_count, m, b_count)
                    if not is_superimposable(problem):
                        continue
                    witnesses = set(oracle_superimposable(cw(n, a_count), v).witnesses)
                    base, p = canonical_shift(problem)[0], problem.p
                    for s in ((base + i * p) % m for i in range(m // p)):
                        assert (s - c) % m in witnesses, (n, a_count, m, b_count, s)


def test_canonical_shift_validates_unequal_lengths():
    for n in range(2, 25):
        for m in range(2, 25):
            if n == m:
                continue
            for a in coprimes(n):
                for b in coprimes(m):
                    problem = SuperimpositionProblem.from_letter_counts(n, a, m, b)
                    if not is_superimposable(problem):
                        continue
                    u, witness = canonical_witness(problem)
                    assert perfectly_superimposable(u, witness), problem


def test_gcd_reduction_matches_oracle_shift_sets():
    # Valid shifts modulo the gcd length coincide with the valid shifts of
    # the reduced problem, oracle against oracle.  The oracle reports shifts
    # of the longer word, so when the first word is longer its shifts are
    # negated to read as shifts of the second.
    for n in range(2, 37):
        for m in range(2, 37):
            if n == m:
                continue
            p = gcd(n, m)
            for a in coprimes(n):
                if a > p:
                    continue
                for b in coprimes(m):
                    if b > p:
                        continue
                    full = oracle_superimposable(cw(n, a), cw(m, b, "b", "x"))
                    reduced = oracle_superimposable(cw(p, a), cw(p, b, "b", "x"))
                    assert full.decision == reduced.decision
                    if m >= n:
                        as_second = {k % p for k in full.witnesses}
                    else:
                        as_second = {-k % p for k in full.witnesses}
                    assert as_second == set(reduced.witnesses), (n, m, a, b)


def test_merge_pipeline_collapses_to_reduced_word():
    # Overlaying superimposable same-length words and dropping the filler
    # always leaves the Christoffel word with the two reduced counts.
    for n in range(2, 121):
        for alpha in coprimes(n):
            if alpha == n:
                continue
            for beta in coprimes(n):
                if beta == n or gcd(alpha, beta) != 1:
                    continue
                problem = SuperimpositionProblem(n, n, 1, alpha, beta)
                if not is_superimposable(problem):
                    continue
                u, witness = canonical_witness(problem, "a", "b", "z")
                merged = merge_superimposition(u, witness)
                collapsed = collapse_merge(merged, "z")
                assert collapsed == cw(alpha + beta, alpha, "a", "b"), (n, alpha, beta)


def test_analyze_report():
    report = analyze(SuperimpositionProblem(13, 13, 1, 4, 3))
    assert report.superimposable
    assert report.bezout == BezoutSolution(1, 3, 1)
    assert report.count == 3
    assert report.canonical_shift == 0
    assert report.superimposable
    negative = analyze(SuperimpositionProblem(3, 4, 1, 1, 1))
    assert not negative.superimposable
    assert negative.count == 0
    assert negative.canonical_shift is None
    for problem in same_length_problems(12):
        report = analyze(problem)
        assert report.superimposable == is_superimposable(problem)
        assert report.bezout == solve_bezout(problem)
        assert report.count == count_superimpositions(problem)
        assert report.canonical_shift == (canonical_shift(problem)[0] if report.superimposable else None)


SUPERIMPOSABLE = SuperimpositionProblem(13, 13, 1, 4, 3)
NOT_SUPERIMPOSABLE = SuperimpositionProblem(3, 4, 1, 1, 1)


@pytest.mark.parametrize("call, problem", [
    pytest.param(call, problem, id=f"{call.__name__}-{kind}")
    for call in (is_superimposable, count_superimpositions, canonical_shift, analyze, crosscheck)
    for kind, problem in (("superimposable", SUPERIMPOSABLE), ("not-superimposable", NOT_SUPERIMPOSABLE))
    if call is not canonical_shift or problem is SUPERIMPOSABLE  # it raises when no shift exists
])
def test_each_call_solves_once(monkeypatch, call, problem):
    calls = []
    real = superimpose_module._bezout

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(superimpose_module, "_bezout", counting)
    call(problem)
    assert len(calls) == 1


def test_problem_words_are_the_spec_words():
    letter_pairs = (("a", "x"), ("1", "0"), ("b", "x"), ("z", "a"))
    spec_words = {(n, a, *letters): christoffel_word(ChristoffelSpec(n, a, *letters))
                  for n in range(1, 31) for a in coprimes(n) for letters in letter_pairs}
    for n in range(1, 31):
        for m in range(1, 31):
            for a in coprimes(n):
                for b in coprimes(m):
                    problem = SuperimpositionProblem.from_letter_counts(n, a, m, b)
                    assert problem.first_word() == spec_words[n, a, "a", "x"], (n, a)
                    assert problem.second_word() == spec_words[m, b, "b", "x"], (m, b)
                    assert problem.first_word("1", "0") == spec_words[n, a, "1", "0"], (n, a)
                    assert problem.second_word("z", "a") == spec_words[m, b, "z", "a"], (m, b)


@pytest.mark.parametrize("problem", [SuperimpositionProblem(13, 13, 1, 4, 3),
                                     SuperimpositionProblem(2003, 2005, 1, 1, 2)],
                         ids=["memoised", "too-long-for-the-memo"])
def test_problem_words_reject_letters_like_the_spec(problem):
    words = ((problem.first_word, problem.n, problem.q * problem.alpha, "a"),
             (problem.second_word, problem.m, problem.q * problem.beta, "b"))
    for word, length, count, mark in words:
        for letters in ((mark, mark), ("x", "x"), ("ab", "x"), (mark, "ab"), ("\n", "x"), (mark, "\n"),
                        (1, "x"), (mark, 1), (["a"], "x"), (mark, ["a"])):
            with pytest.raises(Exception) as expected:
                ChristoffelSpec(length, count, *letters)
            with pytest.raises(expected.type) as got:
                word(*letters)
            assert str(got.value) == str(expected.value), letters
            # A failed call leaves nothing behind: good letters at the same lengths still work.
            assert word(mark, "x") == christoffel_word(ChristoffelSpec(length, count, mark, "x"))
