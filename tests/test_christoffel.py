import re
import sys
import threading
import tracemalloc
from math import gcd

import pytest

from christoffel import (
    ChristoffelSpec,
    PositionSet,
    Step,
    cayley_graph,
    christoffel_path,
    christoffel_word,
    conjugate,
    is_circularly_balanced,
    is_primitive,
    letter_positions,
    modular_complement,
    modular_inverse,
    reverse,
)
from christoffel.christoffel import _MEMO_MAX_N, _cached_word
from christoffel.words import _christoffel_symbols

from conftest import brute_christoffel, cw, scan_positions


def test_modular_complement_examples():
    assert modular_complement(5, 8) == 3
    assert modular_complement(3, 13) == 4
    for n in range(2, 30):
        assert modular_complement(1, n) == n - 1


def test_modular_complement_matches_scan():
    for n in range(2, 61):
        for alpha in range(1, n):
            if gcd(alpha, n) != 1:
                continue
            brute = next(r for r in range(n) if (alpha * r) % n == n - 1)
            assert modular_complement(alpha, n) == brute


def test_modular_complement_errors():
    with pytest.raises(ValueError):
        modular_complement(2, 4)
    with pytest.raises(ValueError):
        modular_complement(1, 1)


def test_modular_inverse_error_names_the_gcd():
    with pytest.raises(ValueError, match=r"6 has no inverse modulo 9 \(gcd 3\)"):
        modular_inverse(6, 9)
    assert modular_inverse(5, 1) == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        ChristoffelSpec(8, 0)
    with pytest.raises(ValueError):
        ChristoffelSpec(8, 9)
    with pytest.raises(ValueError):
        ChristoffelSpec(8, 3, "a", "a")


def test_christoffel_word_examples():
    assert cw(8, 5).symbols == "aaxaaxax"
    assert cw(13, 4, "a", "z").symbols == "azzazzazzazzz"
    assert cw(4, 2).symbols == "axax"
    assert cw(5, 5).symbols == "aaaaa"
    assert cw(1, 1).symbols == "a"


def test_christoffel_word_and_positions_match_brute_force():
    # Every word up to length 300: primitive, powers and alpha = n.
    for n in range(1, 301):
        for alpha in range(1, n + 1):
            spec = ChristoffelSpec(n, alpha)
            word = christoffel_word(spec)
            assert word.symbols == brute_christoffel(n, alpha), (n, alpha)
            assert tuple(letter_positions(spec)) == tuple(sorted(scan_positions(word, "a"))), (n, alpha)


def test_builder_matches_the_floor_definition_with_str_and_bytes_letters():
    # alpha = 0, which no ChristoffelSpec reaches, and alpha = n included.
    for n in range(1, 201):
        for alpha in range(n + 1):
            word = _christoffel_symbols(n, alpha, "a", "x")
            assert word == brute_christoffel(n, alpha), (n, alpha)
            assert _christoffel_symbols(n, alpha, b"a", b"x") == word.encode(), (n, alpha)


def test_christoffel_word_memory_is_linear_in_its_length():
    n = 100_003
    for alpha in (1, 37_001, 61_804, n - 1):
        tracemalloc.start()
        try:
            christoffel_word(ChristoffelSpec(n, alpha))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n, alpha


def test_christoffel_word_and_positions_at_large_n():
    n = 100_003
    cases = [
        (n, 37_001),  # primitive
        (7 * 14_281, 7 * 5_003),  # a 7th power
        (n, 1),
        (n, n - 1),
    ]
    for length, alpha in cases:
        spec = ChristoffelSpec(length, alpha, "0", "1")
        word = christoffel_word(spec)
        assert word.symbols == brute_christoffel(length, alpha, "0", "1"), (length, alpha)
        assert tuple(letter_positions(spec)) == tuple(sorted(scan_positions(word, "0"))), (length, alpha)


def test_memoised_builds_match_brute_force_on_both_sides_of_the_cutoff():
    for n in range(_MEMO_MAX_N - 2, _MEMO_MAX_N + 3):
        for alpha in (1, 2, n // 3, n // 2, n - 1, n):
            for low, high in (("a", "x"), ("1", "0")):
                first = cw(n, alpha, low, high)
                assert first.symbols == brute_christoffel(n, alpha, low, high), (n, alpha)
                assert cw(n, alpha, low, high) == first, (n, alpha)


def test_memo_keeps_the_checks_of_the_build():
    assert cw(8, 5).symbols == "aaxaaxax"
    # Rejected letters raise every time, and never reach the memo.
    for letter in (["a"], 1, "\n", "ab"):
        before = _cached_word.cache_info()
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(f"letter {letter!r} is not a single printable character")):
                christoffel_word(ChristoffelSpec(8, 5, letter, "x"))
        assert _cached_word.cache_info() == before


def test_long_builds_bypass_the_memo():
    cw(_MEMO_MAX_N, 5)
    before = _cached_word.cache_info()
    cw(_MEMO_MAX_N, 5)
    assert _cached_word.cache_info().hits == before.hits + 1
    before = _cached_word.cache_info()
    for n in (_MEMO_MAX_N + 1, 5000):
        cw(n, 7)
        cw(n, 7)
    assert _cached_word.cache_info() == before


def test_memo_under_concurrent_builds():
    specs = [(n, alpha) for n in range(1, 61) for alpha in range(1, n + 1)]  # ~7x what the memo holds
    expected = {spec: brute_christoffel(*spec) for spec in specs}
    wrong, errors = [], []

    def build(offset):
        try:
            for n, alpha in specs[offset:] + specs[:offset]:
                if cw(n, alpha).symbols != expected[n, alpha]:
                    wrong.append((n, alpha))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k * 97,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and wrong == []


def test_letter_positions_at_extreme_ratios():
    # With n = d*alpha + r the gaps between positions are d and d + 1.  Bytes
    # hold them up to d = 254; from d = 255 on the floor formula is used.
    cases = [(254 * 1000 + r, 1000) for r in (0, 1, 999)]
    cases += [(255 * 1000 + r, 1000) for r in (0, 1, 999)]
    cases += [(254, 1), (255, 1), (256, 1)]
    cases += [(3_000_001, alpha) for alpha in (1, 2, 3)]  # gaps either side of 0x110000
    cases += [(0xD800 * 7 + 3, 7), (0xDFFF * 5 + 4, 5)]  # gaps in the surrogate range
    for n, alpha in cases:
        positions = letter_positions(ChristoffelSpec(n, alpha))
        assert positions.modulus == n
        assert positions.residues == tuple(k * n // alpha for k in range(alpha)), (n, alpha)
        assert_positions_pass_public_checks(positions)


def assert_positions_pass_public_checks(positions):
    """`letter_positions` skips the checks of `PositionSet`, so its output must pass them."""
    residues = positions.residues
    assert type(residues) is tuple and all(type(r) is int for r in residues)
    assert all(a < b for a, b in zip(residues, residues[1:])), positions.modulus
    assert PositionSet(positions.modulus, residues) == positions


def test_letter_positions_pass_the_public_checks():
    for n in range(1, 61):
        for alpha in range(1, n + 1):
            assert_positions_pass_public_checks(letter_positions(ChristoffelSpec(n, alpha)))


def test_position_set_checks():
    assert PositionSet(7, [5, 0, 3]).residues == (0, 3, 5)
    for residues in [(1.5, 2), (True, 2), (1, "2"), (1, None)]:
        with pytest.raises(TypeError, match="residues must be ints"):
            PositionSet(5, residues)
    with pytest.raises(ValueError, match="modulus must be positive"):
        PositionSet(0, ())
    with pytest.raises(ValueError, match="distinct"):
        PositionSet(5, (1, 3, 1))
    for residues in [(5,), (-1, 2), (0, 7)]:
        with pytest.raises(ValueError, match=r"lie in \[0, 5\)"):
            PositionSet(5, residues)


def test_letter_positions_examples():
    assert tuple(letter_positions(ChristoffelSpec(8, 5))) == (0, 1, 3, 4, 6)
    assert tuple(letter_positions(ChristoffelSpec(13, 4))) == (0, 3, 6, 9)
    for n in (1, 2, 7):
        assert tuple(letter_positions(ChristoffelSpec(n, n))) == tuple(range(n))


def test_positions_match_word_scan():
    for n in range(1, 201):
        for alpha in range(1, n + 1):
            if alpha != n and gcd(alpha, n) != 1:
                continue
            word = cw(n, alpha)
            assert set(letter_positions(ChristoffelSpec(n, alpha))) == scan_positions(word, "a"), (n, alpha)


def test_position_membership_matches_scan():
    for n, alpha in [(1, 1), (8, 5), (13, 4), (12, 8), (30, 30), (101, 37)]:
        positions = letter_positions(ChristoffelSpec(n, alpha))
        for r in range(-2 * n, 2 * n):
            assert (r in positions) == any((r - p) % n == 0 for p in positions.residues), (n, alpha, r)
    assert 3 not in PositionSet(5, ())


def test_reversal_identity():
    # Reversal swaps the letter order: the mirror of C(n, alpha) over (a < x)
    # spells C(n, n - alpha) over (x < a).
    for n in range(2, 201):
        for alpha in range(1, n):
            mirrored = reverse(cw(n, alpha))
            assert mirrored.symbols == cw(n, n - alpha, "x", "a").symbols, (n, alpha)


def test_conjugation_identity():
    # C(n, alpha) equals its own reversal rotated by the modular complement.
    for n in range(2, 201):
        for alpha in range(1, n):
            if gcd(alpha, n) != 1:
                continue
            word = cw(n, alpha)
            abar = modular_complement(alpha, n)
            assert conjugate(reverse(word), abar) == word, (n, alpha)


def test_primitive_balanced_lexmin():
    for n in range(1, 49):
        for alpha in range(1, n + 1):
            if gcd(alpha, n) != 1:
                continue
            word = cw(n, alpha)
            assert is_primitive(word)
            assert is_circularly_balanced(word)
            rotations = [conjugate(word, k).symbols for k in range(n)]
            assert word.symbols == min(rotations), (n, alpha)


def test_power_decomposition():
    for n in range(1, 51):
        for alpha in range(1, n + 1):
            if gcd(alpha, n) != 1:
                continue
            for q in range(1, 200 // n + 1):
                assert cw(n * q, alpha * q).symbols == cw(n, alpha).symbols * q


def test_cayley_graph_examples():
    g = cayley_graph(ChristoffelSpec(8, 5))
    assert g.traversal == (0, 3, 6, 1, 4, 7, 2, 5, 0)
    assert g.labels == "aaxaaxax"
    assert cayley_graph(ChristoffelSpec(13, 8)).traversal == (0, 5, 10, 2, 7, 12, 4, 9, 1, 6, 11, 3, 8, 0)
    assert cayley_graph(ChristoffelSpec(2, 1)).labels == "ax"


def test_cayley_graph_spells_word():
    for n in range(2, 101):
        for alpha in range(1, n):
            assert cayley_graph(ChristoffelSpec(n, alpha)).labels == cw(n, alpha).symbols


def test_cayley_graph_rejects_degenerate():
    with pytest.raises(ValueError):
        cayley_graph(ChristoffelSpec(5, 5))


def test_cayley_edge_structure():
    g = cayley_graph(ChristoffelSpec(8, 5))
    for src, dst, label in g.edges:
        assert dst == (src + 3) % 8
        assert label == ("a" if src < dst else "x")


def test_christoffel_path_examples():
    path = christoffel_path(5, 3)
    assert path.encode("a", "x").symbols == "aaxaaxax"
    assert path.endpoint == (5, 3)
    assert christoffel_path(1, 1).steps == (Step.RIGHT, Step.UP)
    greek = christoffel_path(8, 5).encode("α", "β")
    assert greek.symbols == "ααβααβαβααβαβ"


def test_christoffel_path_stays_below_segment():
    for a, b in [(5, 3), (8, 5), (1, 1), (7, 2), (3, 10), (12, 7)]:
        path = christoffel_path(a, b)
        x = y = 0
        for step in path.steps:
            x, y = (x + 1, y) if step is Step.RIGHT else (x, y + 1)
            assert b * x - a * y >= 0, (a, b, x, y)
        assert (x, y) == (a, b)


def test_christoffel_path_rejects_bad_slopes():
    with pytest.raises(ValueError):
        christoffel_path(6, 4)
    with pytest.raises(ValueError):
        christoffel_path(0, 3)
