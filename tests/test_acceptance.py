"""Acceptance suite: one test per criterion, each printing a PASS line.

The fast-vs-oracle grid (criteria 3-5, each instance through `crosscheck`)
and the structural invariants (criteria 9-10) are checked here and nowhere
else; the unit modules keep examples, error cases and the properties no
criterion states.

The heavy superimposition grid is swept once by a module fixture.  Lengths
up to 40 are covered exhaustively for every operand pair; for longer unequal
pairs every instance that could possibly superimpose (marked counts within
the gcd bound, plus a margin) is included together with deterministic sparse
samples, since the literal full cross product is tens of millions of oracle
runs.
"""

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from math import gcd

import pytest

from christoffel import (
    ChristoffelSpec,
    CoinPair,
    SuperimpositionProblem,
    boundary_word,
    canonical_shift,
    cayley_graph,
    christoffel_path,
    conjugate,
    count_superimpositions,
    crosscheck,
    crosscheck_money,
    decimate,
    DecimationSpec,
    Direction,
    OrderedAlphabet,
    Word,
    analyze,
    fraenkel_word,
    frobenius_number,
    interval_offsets,
    is_circularly_balanced,
    is_superimposable,
    letter_frequencies,
    letter_positions,
    modular_complement,
    perfectly_superimposable,
    projection,
    reversal_superimposition_criterion,
    reverse,
    shifted_cayley,
)
from christoffel.cli import main

from conftest import coprimes, cw, scan_positions

GRID_MAX = 120
EXHAUSTIVE_MAX = 40


def run_cli(capsys, *args):
    status = main(list(args))
    out = capsys.readouterr().out
    return status, out


@dataclass
class GridResult:
    """The instances swept, and those on which each part of `crosscheck` disagreed."""
    instances: int = 0
    superimposable: int = 0
    decision: list = field(default_factory=list)
    count: list = field(default_factory=list)
    shift: list = field(default_factory=list)
    elapsed: float = 0.0


def _check_instance(result, n, m, a_count, b_count):
    problem = SuperimpositionProblem.from_letter_counts(n, a_count, m, b_count)
    verdict, part = crosscheck(problem)
    result.instances += 1
    result.superimposable += verdict.decision
    if part:
        getattr(result, part).append((n, m, a_count, b_count))
    # crosscheck reads analyze; the three single calls must give its fields.
    report = analyze(problem)
    assert is_superimposable(problem) == report.superimposable, problem
    assert count_superimpositions(problem) == report.count, problem
    assert not report.superimposable or canonical_shift(problem) == (report.canonical_shift, True), problem


@pytest.fixture(scope="module")
def grid():
    result = GridResult()
    start = time.perf_counter()

    for n in range(1, GRID_MAX + 1):
        cop = coprimes(n)
        for a_count in cop:
            for b_count in cop:
                _check_instance(result, n, n, a_count, b_count)

    for n in range(1, GRID_MAX + 1):
        cop_n = coprimes(n)
        for m in range(1, GRID_MAX + 1):
            if m == n:
                continue
            cop_m = coprimes(m)
            p = gcd(n, m)
            if max(n, m) <= EXHAUSTIVE_MAX:
                pairs = [(a, b) for a in cop_n for b in cop_m]
            else:
                # a + b <= p + 1: each a <= p takes the prefix of cop_m up to p + 1 - a.
                pairs = [(a, b) for a in cop_n[:bisect_right(cop_n, p)]
                         for b in cop_m[:bisect_right(cop_m, p + 1 - a)]]
                pairs.append((cop_n[-1], cop_m[-1]))
                pairs.append((cop_n[len(cop_n) // 2], cop_m[len(cop_m) // 2]))
            for a_count, b_count in pairs:
                _check_instance(result, n, m, a_count, b_count)

    result.elapsed = time.perf_counter() - start
    return result


def test_criterion_1_worked_superimposition_pipeline(capsys):
    start = time.perf_counter()
    status, out = run_cli(capsys, "gen", "--n", "13", "--alpha", "4", "--letters", "a,z")
    assert status == 0 and out == "azzazzazzazzz\n"
    status, out = run_cli(capsys, "gen", "--n", "13", "--alpha", "3", "--letters", "b,z")
    assert status == 0 and out == "bzzzbzzzbzzzz\n"

    problem = SuperimpositionProblem(13, 13, 1, 4, 3)
    shift, applies_to_reversal = canonical_shift(problem)
    assert (shift, applies_to_reversal) == (0, True)
    witness = conjugate(reverse(cw(13, 3, "b", "z")), shift)
    assert witness.symbols == "zzzzbzzzbzzzb"

    status, out = run_cli(capsys, "merge", "--n", "13", "--a", "4", "--b", "3")
    assert status == 0
    lines = out.splitlines()
    assert lines[2] == "witness: zzzzbzzzbzzzb"
    assert lines[3] == "merged: azzabzazbazzb"
    assert lines[4] == "collapsed: aababab"
    assert cw(7, 4, "a", "b").symbols == "aababab"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - worked pipeline reproduced in {elapsed:.3f}s")


def test_criterion_2_worked_examples_byte_exact(capsys):
    start = time.perf_counter()

    status, out = run_cli(capsys, "gen", "--n", "8", "--alpha", "5", "--letters", "a,x")
    assert status == 0 and out == "aaxaaxax\n"
    assert cw(8, 5).symbols == "aaxaaxax"
    word = Word("1232343112", OrderedAlphabet("1234"))
    assert projection(word, "1", "x").symbols == "1xxxxxx11x"
    assert projection(word, "2", "x").symbols == "x2x2xxxxx2"
    assert projection(word, "3", "x").symbols == "xx3x3x3xxx"
    assert projection(word, "4", "x").symbols == "xxxxx4xxxx"

    start_word = Word("aabaabababa", OrderedAlphabet("ab"))
    first = decimate(start_word, DecimationSpec(1, 3, Direction.RIGHT_TO_LEFT, "a"))
    assert first.symbols == "abababab"
    second = decimate(first, DecimationSpec(1, 2, Direction.LEFT_TO_RIGHT, "b"))
    assert second.symbols == "aabaab"

    assert boundary_word(CoinPair(8, 5)).word.symbols == "ααβααβαβααβαβ"
    assert christoffel_path(8, 5).encode("α", "β").symbols == "ααβααβαβααβαβ"
    status, out = run_cli(capsys, "boundary", "--a", "8", "--b", "5", "--values")
    assert status == 0
    assert out.splitlines() == [
        "ααβααβαβααβαβ",
        "27, 32, 37, 29, 34, 39, 31, 36, 28, 33, 38, 30, 35, 27",
    ]

    assert cayley_graph(ChristoffelSpec(8, 5)).traversal == (0, 3, 6, 1, 4, 7, 2, 5, 0)
    assert cayley_graph(ChristoffelSpec(8, 5)).labels == "aaxaaxax"
    assert cayley_graph(ChristoffelSpec(13, 8)).traversal == \
        (0, 5, 10, 2, 7, 12, 4, 9, 1, 6, 11, 3, 8, 0)
    assert shifted_cayley(CoinPair(8, 5)) == (27, 32, 37, 29, 34, 39, 31, 36, 28, 33, 38, 30, 35, 27)
    assert shifted_cayley(CoinPair(2, 3)) == (1, 4, 2, 5, 3, 1)

    status, out = run_cli(capsys, "frobenius", "--a", "8", "--b", "5")
    assert status == 0 and out == "g(8,5) = 27; non-representable: 14\n"
    assert frobenius_number(CoinPair(2, 5)) == 3
    status, out = run_cli(capsys, "positions", "--n", "8", "--alpha", "5")
    assert status == 0 and out == "0 1 3 4 6\n"
    status, out = run_cli(capsys, "fraenkel", "--k", "3")
    assert status == 0 and out == "1213121\n"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2: PASS - tabulated outputs byte-exact in {elapsed:.3f}s")


def test_criterion_3_decision_matches_oracle(grid):
    assert grid.elapsed < 300.0, f"grid sweep took {grid.elapsed:.0f}s"
    assert not grid.decision, grid.decision[:10]
    print(f"\nACCEPTANCE 3: PASS - decision agrees on {grid.instances} instances "
          f"({grid.superimposable} superimposable) in {grid.elapsed:.0f}s")


def test_criterion_4_count_matches_oracle(grid):
    assert not grid.count, grid.count[:10]
    print(f"\nACCEPTANCE 4: PASS - shift counts exact on {grid.instances} instances")


def test_criterion_5_canonical_shift_always_valid(grid):
    assert not grid.shift, grid.shift[:10]
    print(f"\nACCEPTANCE 5: PASS - canonical shift valid on {grid.superimposable} "
          f"superimposable instances")


def test_criterion_6_multiple_count_special_case():
    checked = 0
    for n in range(1, GRID_MAX + 1):
        for alpha_ in coprimes(n):
            q = 1
            while q * alpha_ <= n:
                if gcd(q * alpha_, n) == 1:
                    problem = SuperimpositionProblem.from_letter_counts(n, alpha_, n, q * alpha_)
                    expected = (2 * alpha_ - 1) * q < n
                    assert is_superimposable(problem) == expected, (n, alpha_, q)
                    if expected:
                        shift, _ = canonical_shift(problem)
                        r = pow(alpha_, -1, n)
                        assert shift == (1 - r) % n
                        u = cw(n, alpha_)
                        v = cw(n, q * alpha_, "b", "x")
                        assert perfectly_superimposable(u, conjugate(reverse(v), shift)), (n, alpha_, q)
                    checked += 1
                q += 1
    print(f"\nACCEPTANCE 6: PASS - divisor special case on {checked} instances")


def test_criterion_7_reversal_criterion_matches_positions():
    checked = 0
    for n in range(1, GRID_MAX + 1):
        masks = {}
        rev_masks = {}
        for a in coprimes(n):
            positions = scan_positions(cw(n, a), "a")
            masks[a] = sum(1 << i for i in positions)
            rev_masks[a] = sum(1 << (n - 1 - i) for i in positions)
        for a in coprimes(n):
            for b in coprimes(n):
                if gcd(a, b) != 1:
                    continue
                direct = masks[a] & rev_masks[b] == 0
                assert reversal_superimposition_criterion(n, a, b) == direct, (n, a, b)
                checked += 1
    print(f"\nACCEPTANCE 7: PASS - reversal criterion on {checked} triples")


def test_criterion_8_money_problem():
    start = time.perf_counter()
    checked = 0
    for a in range(1, 41):
        for b in range(a + 1, 41):
            if gcd(a, b) != 1:
                continue
            coins = CoinPair(a, b)
            assert crosscheck_money(coins)[1] is None, (a, b)
            assert boundary_word(coins, "a", "x").word == cw(a + b, a), (a, b)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 8: PASS - money problem on {checked} coin pairs in {elapsed:.1f}s")


def test_criterion_9_fraenkel_properties():
    for k in range(1, 13):
        word = fraenkel_word(k)
        assert len(word) == 2 ** k - 1, k
        assert is_circularly_balanced(word), k
        freq = letter_frequencies(word)
        expected = {word.alphabet.letters[i - 1]: 2 ** (k - i) for i in range(1, k + 1)}
        assert freq == expected, k
    for k in range(1, 7):
        word = fraenkel_word(k)
        for letter in word.alphabet.letters:
            proj = projection(word, letter, "x")
            assert is_circularly_balanced(proj), (k, letter)
            assert proj.symbols.count(letter) == word.symbols.count(letter), (k, letter)
    print("\nACCEPTANCE 9: PASS - Fraenkel words balanced with dyadic frequencies")


def test_criterion_10_structural_invariants():
    positions_checked = 0
    for n in range(1, GRID_MAX + 1):
        # positions formula vs direct scan, for primitive words and powers
        for a in range(1, n + 1):
            assert set(letter_positions(ChristoffelSpec(n, a))) == scan_positions(cw(n, a), "a")
            positions_checked += 1
        # mirror rule and conjugation identity need coprime counts
        for a in coprimes(n):
            if a == n:
                continue
            word = cw(n, a)
            mirrored = reverse(word)
            rule = {i for i in range(n) if (i + 1) * a // n > i * a // n}
            assert scan_positions(mirrored, "a") == rule, (n, a)
            abar = modular_complement(a, n)
            assert conjugate(mirrored, abar) == word, (n, a)
        # dividing counts give nested position sets
        for a in range(1, n + 1):
            pos_a = scan_positions(cw(n, a), "a")
            for b in range(a, n + 1, a):
                assert pos_a <= scan_positions(cw(n, b), "a"), (n, a, b)

    offsets_checked = 0
    for n in range(1, GRID_MAX + 1):
        for a_count in coprimes(n):
            for b_count in coprimes(n):
                problem = SuperimpositionProblem.from_letter_counts(n, a_count, n, b_count)
                sol = analyze(problem).bezout
                q, a, b = problem.q, problem.alpha, problem.beta
                offsets = interval_offsets(problem)
                assert offsets[0] == 0
                if sol.y == a:
                    assert offsets[-1] == n - sol.x - 2 * b * (q - 1) - b
                else:
                    assert offsets[-1] == n - sol.x - 2 * b * (q - 1)
                floors = [sol.z * r // a for r in range(a + 1)]
                zero_steps = 0
                for r in range(a):
                    diff = floors[r + 1] - floors[r]
                    assert diff in (0, 1)
                    if diff == 0:
                        zero_steps += 1
                    if r + 1 < a:
                        assert offsets[r + 1] - offsets[r] == sol.x + (2 * q - 1) * b - b * diff
                assert zero_steps == sol.y, problem
                if a > 1:
                    abar = modular_complement(a, n)
                    zinv = pow(sol.z, -1, a)
                    for i in range(a):
                        assert offsets[(i * zinv) % a] % n == (-i * abar * b) % n
                offsets_checked += 1

    decompositions = 0
    for n in range(2, GRID_MAX + 1):
        for total in coprimes(n):
            if total == n:
                continue
            word_positions = scan_positions(cw(n, total), "a")
            step = modular_complement(total, n)
            for q in (d for d in range(1, total + 1) if total % d == 0):
                a = total // q
                base = {(k * modular_complement(a, n)) % n for k in range(a)}
                union = {(pos + k * step) % n for k in range(q) for pos in base}
                assert union == word_positions, (n, total, q)
                decompositions += 1

    print(f"\nACCEPTANCE 10: PASS - structural invariants "
          f"({positions_checked} position sets, {offsets_checked} offset families, "
          f"{decompositions} decompositions)")
