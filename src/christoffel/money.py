"""The two-coin money problem, solved geometrically with Christoffel words."""

from __future__ import annotations

from math import gcd

from .christoffel import ChristoffelSpec, cayley_graph, modular_inverse
from .words import Word, _Value, _ints

__all__ = (
    "CoinPair", "QuadrantBoundary", "boundary_word", "frobenius_number", "nonrepresentable_count",
    "representable", "shifted_cayley",
)


class CoinPair(_Value):
    """Two coprime coin denominations."""

    _fields = __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if not type(a) is type(b) is int:
            _ints(("a", "b"), a, b)
        if a < 1 or b < 1:
            raise ValueError("denominations must be positive")
        if gcd(a, b) != 1:
            raise ValueError(f"denominations must be coprime, got {a}, {b}")
        _set_a(self, a)
        _set_b(self, b)


_set_a, _set_b = CoinPair._setters


def frobenius_number(coins: CoinPair) -> int:
    """Largest amount not payable with the two coins: (a-1)(b-1) - 1.

    With a unit coin every amount is payable, and the formula gives -1.
    """
    return (coins.a - 1) * (coins.b - 1) - 1


def nonrepresentable_count(coins: CoinPair) -> int:
    """How many amounts can never be paid: (a-1)(b-1) / 2."""
    return (coins.a - 1) * (coins.b - 1) // 2


def representable(coins: CoinPair, amount: int) -> bool:
    """True iff amount = a*x + b*y for some nonnegative x, y.

    The smallest x >= 0 with a*x = amount (mod b) is amount * a^-1 mod b; the
    amount is payable iff that x leaves a nonnegative remainder for y.
    """
    _ints(("amount",), amount)
    if amount < 0:
        raise ValueError("amounts are nonnegative")
    x = amount * modular_inverse(coins.a, coins.b) % coins.b
    return coins.a * x <= amount


class QuadrantBoundary(_Value):
    """Staircase boundary of the quadrant cells whose value x*b + y*a stays below a*b.

    `word` codes the walk (right moves then up moves as its two letters),
    `values` lists the walked values starting and ending at a*b - a - b, and
    `cells` maps each retained coordinate (x, -y) to its value.
    """

    _fields = __slots__ = ("word", "values", "cells")

    def __init__(self, word: Word, values: tuple[int, ...], cells: dict[tuple[int, int], int]):
        _set_word(self, word)
        _set_values(self, values)
        _set_cells(self, cells)


_set_word, _set_values, _set_cells = QuadrantBoundary._setters


def boundary_word(coins: CoinPair, low: str = "α", high: str = "β") -> QuadrantBoundary:
    """Walk the lower-right boundary of the cells with value below a*b.

    Start from the value a*b - a - b; move right (+b, the low letter) while
    that stays under a*b, otherwise move up (-a, the high letter).  The walk
    spells C(a+b, a) and its values retrace the Cayley graph shifted by
    a*b - a - b.
    """
    a, b = coins.a, coins.b
    limit = a * b
    value = limit - a - b
    values = [value]
    letters = []
    for _ in range(a + b):
        if value + b < limit:
            letters.append(low)
            value += b
        else:
            letters.append(high)
            value -= a
        values.append(value)
    word = Word("".join(letters), ChristoffelSpec(a + b, a, low, high).alphabet)
    cells = {
        (x, -y): x * b + y * a
        for x in range(a)
        for y in range(b)
        if x * b + y * a < limit
    }
    return QuadrantBoundary(word, tuple(values), cells)


def shifted_cayley(coins: CoinPair) -> tuple[int, ...]:
    """Cayley traversal of C(a+b, a) with every vertex raised by a*b - a - b.

    The first and last entries both equal the Frobenius number a*b - a - b.
    """
    a, b = coins.a, coins.b
    shift = a * b - a - b
    graph = cayley_graph(ChristoffelSpec(a + b, a))
    return tuple(v + shift for v in graph.traversal)
