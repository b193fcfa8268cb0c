"""A reference task that times the machine, not the program.

The machine this benchmark was written on is shared: its speed for the same
Python code drifted by up to ~40% between phases lasting seconds to minutes,
in CPU time as much as in wall time.  So the benchmark also times a fixed
pure-Python loop, in the same thread, around each round and around set-up,
and scales the times it reports to the speed at which that loop takes
LOOP_REF_S.  The loop runs none of the package's code.
"""

from __future__ import annotations

from time import perf_counter

LOOP_ITERATIONS = 20000
LOOP_REF_S = 0.002  # the loop's duration at the reference speed


def slowness() -> float:
    """How many times slower than the reference speed this thread runs now.

    Scaled time = measured time / slowness.
    """
    start = perf_counter()
    acc = 0
    table = {}
    for i in range(LOOP_ITERATIONS):
        acc += (i * i) % 7
        table[i & 255] = acc
    return (perf_counter() - start) / LOOP_REF_S
