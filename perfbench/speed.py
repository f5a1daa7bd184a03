"""Processor speed reference, so that run times can be compared across runs.

On a shared machine the processor runs the same code at two or more speeds,
switching every few seconds to minutes as other tenants come and go. On the
2-vCPU VM this benchmark was built on, a fixed loop ran about 1.45x slower
in the slow state than in the fast one. A benchmark run of 25 s can fall
wholly inside a slow stretch, so raw times moved by up to 45% between runs
of the same seed.

The reference is a fixed loop of interpreter and small numpy work, the mix
the program's ops are made of, and it shares no code with the program. Its
time, taken every few dozen milliseconds between ops, gives the speed the
processor ran at; an op's time divided by that speed is its time at the
reference speed, the speed at which the loop takes NOMINAL_S.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# The loop's time in the fast state of the machine the benchmark was built
# on (Python 3.11, numpy 2.4, x86_64); it only fixes the unit.
NOMINAL_S = 0.00042


def _loop() -> float:
    rows = [{"i": i, "half": i * 0.5, "key": (i, i % 7)} for i in range(600)]
    total = sum(row["half"] for row in rows if row["key"][1])
    values = np.arange(256.0)
    for _ in range(24):
        values = np.cumsum(values[::-1]) % 997.0
    return total + float(values[0])


def factor() -> float:
    """How much slower than the reference speed the processor runs now:
    the fastest of three runs of the loop, over NOMINAL_S."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _loop()
        best = min(best, perf_counter() - start)
    return best / NOMINAL_S
