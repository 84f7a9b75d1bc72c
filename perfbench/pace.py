"""Machine pace: wall time scaled to a fixed reference speed.

The speed of one vCPU of a shared host moves between levels about 1.7x
apart within seconds, so the wall time of one op varies that much within a
run.  Every timed interval is bracketed by two samples of a fixed kernel
that shares no code with hawkfol, and its wall time is scaled by
`REFERENCE_S` over their mean: the interval's length in reference seconds,
on a machine on which the kernel takes exactly `REFERENCE_S` (about its time
at the fast level).  See README.md, "Reference seconds".
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.018
_MATRIX = np.random.default_rng(0).normal(size=(300, 300))


def sample() -> float:
    """Seconds the reference kernel takes now (about 18 ms at the fast level)."""
    start = perf_counter()
    for _ in range(6):
        _MATRIX @ _MATRIX
    total = 0
    for i in range(200_000):
        total += i * i
    return perf_counter() - start


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """Wall time in reference seconds, given the pace samples around it."""
    return wall_s * REFERENCE_S / (0.5 * (before_s + after_s))
