"""A machine-speed reference: a fixed pure-Python loop that runs no cepde code.

The benchmark's times are scaled by NOMINAL_S / (the loop's measured time), so
that they read as if the machine ran at the speed it had when NOMINAL_S was
taken.  On a shared machine the speed of one core can drift by 1.5x or more
over minutes, in CPU time as much as in wall time.  The loop slows with it,
and the scaled figures do not.  Code changes in cepde cannot move the loop.
"""

from time import perf_counter

ITERATIONS = 100_000
NOMINAL_S = 0.006  # the loop's time at full speed on the reference machine


def reference_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = perf_counter()
    s = 0
    for i in range(ITERATIONS):
        s += i * i
    return perf_counter() - t0
