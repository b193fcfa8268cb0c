"""Christoffel words and their powers: construction, position sets, Cayley graphs, lattice paths."""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from math import gcd
from numbers import Number

from .words import (
    OrderedAlphabet, Word, _Value, _christoffel_symbols, _ints, _new, _prechecked_alphabet, _prechecked_word,
    _single_chars,
)

__all__ = (
    "CayleyGraph", "ChristoffelSpec", "LatticePath", "PositionSet", "Step", "cayley_graph",
    "christoffel_path", "christoffel_word", "letter_positions", "modular_complement",
    "modular_inverse",
)


def modular_inverse(a: int, n: int) -> int:
    """The inverse of a modulo n, in [0, n), for coprime inputs and a positive modulus n."""
    if not type(a) is type(n) is int:
        _ints(("a", "n"), a, n)
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise ValueError(f"{a} has no inverse modulo {n} (gcd {gcd(a, n)})") from None


def modular_complement(alpha: int, n: int) -> int:
    """The unique residue r in [0, n) with alpha*r = -1 (mod n)."""
    _ints(("alpha", "n"), alpha, n)
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    return (-modular_inverse(alpha, n)) % n


def _check_letters(low: str, high: str) -> None:
    """The letter checks of a Christoffel word: distinct, single printable characters."""
    if low == high:
        raise ValueError("low and high letters must differ")
    _single_chars(low, high)


class ChristoffelSpec(_Value):
    """Identifies C(n, alpha): length n with alpha occurrences of the low letter.

    When gcd(n, alpha) = r > 1 this is the r-th power of the primitive word
    C(n/r, alpha/r).  alpha = n is admitted as the degenerate word low**n.
    """

    _fields = __slots__ = ("n", "alpha", "low", "high")

    def __init__(self, n: int, alpha: int, low: str = "a", high: str = "x"):
        _ints(("n", "alpha"), n, alpha)
        if n < 1:
            raise ValueError(f"length must be positive, got {n}")
        if not 1 <= alpha <= n:
            raise ValueError(f"need 1 <= alpha <= n, got alpha={alpha}, n={n}")
        _check_letters(low, high)
        _set_spec_n(self, n)
        _set_alpha(self, alpha)
        _set_low(self, low)
        _set_high(self, high)

    @property
    def beta(self) -> int:
        return self.n - self.alpha

    @property
    def alphabet(self) -> OrderedAlphabet:
        return OrderedAlphabet((self.low, self.high))


_set_spec_n, _set_alpha, _set_low, _set_high = ChristoffelSpec._setters


class PositionSet(_Value):
    """A set of residues modulo `modulus`, kept sorted.

    A modulus or residue that is not an int raises TypeError; a modulus below
    1, or residues that repeat or leave [0, modulus), raise ValueError.
    """

    _fields = __slots__ = ("modulus", "residues")

    def __init__(self, modulus: int, residues: tuple[int, ...]):
        _ints(("modulus",), modulus)
        try:
            residues = tuple(residues)
        except TypeError:
            raise TypeError(f"residues must be iterable, got {residues!r}") from None
        for r in residues:
            if type(r) is not int:
                raise TypeError(f"residues must be ints, got {r!r}")
        residues = tuple(sorted(residues))
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if len(set(residues)) != len(residues):
            raise ValueError("residues must be distinct")
        if residues and not 0 <= residues[0] <= residues[-1] < modulus:
            raise ValueError(f"residues must lie in [0, {modulus})")
        _set_modulus(self, modulus)
        _set_residues(self, residues)

    def __contains__(self, r):
        """Whether r is a member modulo `modulus`; a value that is not a number never is."""
        if not isinstance(r, Number):  # a str would be %-formatted
            return False
        try:
            r %= self.modulus
        except TypeError:  # a number without %, such as a complex
            return False
        i = bisect_left(self.residues, r)
        return i < len(self.residues) and self.residues[i] == r

    def __iter__(self):
        return iter(self.residues)

    def __len__(self):
        return len(self.residues)


_set_modulus, _set_residues = PositionSet._setters


def _prechecked_positions(modulus: int, residues: tuple[int, ...]) -> PositionSet:
    """A PositionSet stored without its constructor's checks (see `words._prechecked_word`).

    The caller guarantees a positive int modulus and a strictly increasing
    tuple of ints in [0, modulus).
    """
    positions = _new(PositionSet)
    _set_modulus(positions, modulus)
    _set_residues(positions, residues)
    return positions


# Sweeps over short words meet the same C(n, alpha) once per partner, so
# short builds are memoised by (n, alpha, low, high); long words are never
# kept alive.  The memo holds at most _MEMO_SIZE * _MEMO_MAX_N symbols
# (256 * 1024).  A hit returns an equal, immutable Word without building its
# alphabet again, and a build whose letters fail validation is not kept.  A
# miss, short or long, checks its letters and builds their alphabet once per
# letter pair, through a second memo of _MEMO_SIZE entries that keeps only
# pairs that passed, so every word over one pair shares one alphabet.
_MEMO_MAX_N = 1024
_MEMO_SIZE = 256


def _letter_pair(low: str, high: str) -> OrderedAlphabet:
    """The alphabet (low < high), after ChristoffelSpec's letter checks."""
    _check_letters(low, high)
    return _prechecked_alphabet((low, high))


_cached_letter_pair = lru_cache(maxsize=_MEMO_SIZE)(_letter_pair)


def _build_word(n: int, alpha: int, low: str, high: str) -> Word:
    try:
        alphabet = _cached_letter_pair(low, high)
    except TypeError:  # an unhashable letter, which the letter checks name
        alphabet = _letter_pair(low, high)
    # Checked before the letters are concatenated; the images of low and
    # high are concatenations of low and high only.
    return _prechecked_word(_christoffel_symbols(n, alpha, low, high), alphabet)


_cached_word = lru_cache(maxsize=_MEMO_SIZE)(_build_word)


def _word(n: int, alpha: int, low: str, high: str) -> Word:
    """C(n, alpha) over (low < high), for 1 <= alpha <= n already checked.

    The letters get ChristoffelSpec's checks, with its errors, on a memo miss
    only: a memo entry exists only for a build whose letters passed them.
    """
    if n <= _MEMO_MAX_N:
        try:
            return _cached_word(n, alpha, low, high)
        except TypeError:  # an unhashable letter, which the build's checks name
            pass
    return _build_word(n, alpha, low, high)


def christoffel_word(spec: ChristoffelSpec) -> Word:
    """The word C(n, alpha) over (low < high).

    Letter i is low exactly when (i+1)*beta advances modulo n past i*beta
    without wrapping, beta = n - alpha.  Without coprimality the same rule
    yields the power (C(n/r, alpha/r))**r.  Euclid's algorithm on (alpha,
    beta) builds it, concatenating the two letters' images once per partial
    quotient (standard factorization, Berstel, Lauve, Reutenauer, Saliola 2008).
    Words of length up to 1024 come from a bounded memo of recent builds,
    keyed by (n, alpha, low, high).
    """
    return _word(spec.n, spec.alpha, spec.low, spec.high)


def letter_positions(spec: ChristoffelSpec) -> PositionSet:
    """Positions of the low letter in C(n, alpha), as residues modulo n.

    The k-th low letter (k = 0 .. alpha-1) sits at floor(k*n/alpha), for
    primitive words, their powers and alpha = n alike.  For coprime
    (n, alpha) these are the alpha multiples of the modular complement of
    alpha.

    With n = d*alpha + r, 0 <= r < alpha, consecutive positions differ by d
    or d + 1, and the gap sequence is the Christoffel word C(alpha, alpha - r)
    over (d < d + 1) (Berstel, Lauve, Reutenauer, Saliola 2008).  It is built
    as bytes by the same concatenation of letter images as the word itself,
    and its prefix sums are the positions.
    """
    n, alpha = spec.n, spec.alpha
    d, r = divmod(n, alpha)
    if d >= 255:
        # A byte holds the gap letters only up to d + 1 = 255.  Past that,
        # alpha <= n/255, so a floor division per position is cheap.  Its
        # values k*n // alpha step by at least 255 and stay below n.
        residues = tuple(map(alpha.__rfloordiv__, range(0, alpha * n, n)))
    else:
        # Prefix sums of gaps d >= 1 and d + 1 that add up to n, last one left out.
        gaps = _christoffel_symbols(alpha, alpha - r, bytes((d,)), bytes((d + 1,)))
        residues = tuple(accumulate(gaps[:-1], initial=0))
    # Either way the residues strictly increase within [0, n).
    return _prechecked_positions(n, residues)


class CayleyGraph(_Value):
    """The labelled cycle on residues mod n stepping by beta, walked from 0."""

    _fields = __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple[tuple[int, int, str], ...]):
        _set_graph_n(self, n)
        _set_edges(self, edges)

    @property
    def traversal(self) -> tuple[int, ...]:
        """Vertices in walk order, starting and ending at 0."""
        return (0,) + tuple(dst for _, dst, _ in self.edges)

    @property
    def labels(self) -> str:
        """Edge labels in walk order; they spell the Christoffel word."""
        return "".join(label for _, _, label in self.edges)


_set_graph_n, _set_edges = CayleyGraph._setters


def cayley_graph(spec: ChristoffelSpec) -> CayleyGraph:
    """Walk i -> i + beta (mod n) from 0; label low when the step ascends."""
    if spec.alpha == spec.n:
        raise ValueError("Cayley graph is undefined for alpha = n (no high letter)")
    n, beta = spec.n, spec.beta
    edges = []
    v = 0
    for _ in range(n):
        u = (v + beta) % n
        edges.append((v, u, spec.low if v < u else spec.high))
        v = u
    return CayleyGraph(n, tuple(edges))


class Step(Enum):
    RIGHT = "R"
    UP = "U"


class LatticePath(_Value):
    """A monotone lattice path of unit Right/Up steps from the origin."""

    _fields = __slots__ = ("steps", "endpoint")

    def __init__(self, steps: tuple[Step, ...], endpoint: tuple[int, int]):
        _set_steps(self, steps)
        _set_endpoint(self, endpoint)

    def encode(self, low: str = "a", high: str = "x") -> Word:
        """Spell the path, Right as the low letter and Up as the high one."""
        return Word(
            "".join(low if s is Step.RIGHT else high for s in self.steps),
            OrderedAlphabet((low, high)),
        )


_set_steps, _set_endpoint = LatticePath._setters


def christoffel_path(a: int, b: int) -> LatticePath:
    """The lattice path from (0,0) to (a,b) hugging the segment from below.

    Encoding Right -> low and Up -> high spells C(a+b, a).  The cross product
    b*x - a*y stays in [0, a+b) at every vertex, so the path is weakly below
    the segment and encloses no interior lattice point.
    """
    _ints(("a", "b"), a, b)
    if a < 1 or b < 1:
        raise ValueError(f"endpoint coordinates must be positive, got ({a}, {b})")
    if gcd(a, b) != 1:
        raise ValueError(f"slope must be reduced: gcd({a}, {b}) != 1")
    word = christoffel_word(ChristoffelSpec(a + b, a))
    steps = tuple(Step.RIGHT if c == "a" else Step.UP for c in word.symbols)
    return LatticePath(steps, (a, b))
