"""The fixed stdlib-Fraction reference loop that wall_norm divides by.

One timing of the loop swings by a fifth on a shared machine, so a
reference is the median of several short timings.
"""

import statistics
import time
from fractions import Fraction


def reference_seconds(samples=5):
    """Median of several timings of a fixed loop of Fraction additions mod 1."""
    return statistics.median(_loop_seconds() for _ in range(samples))


def _loop_seconds():
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 30000):
        acc = (acc + Fraction(i % 97, i % 13 + 1)) % 1
    elapsed = time.perf_counter() - start
    if acc != Fraction(92669, 360360):
        raise AssertionError("reference loop result changed: %s" % acc)
    return elapsed
