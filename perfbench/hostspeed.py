"""Host speed reference for the benchmark's timings.

On a shared host the same deterministic work can take two to nearly three
times as long for minutes at a time while other tenants load the physical
cores; a `policy-doorway10` control step read 120 ms in one quarter hour and
260 to 300 ms in another. Such swings are larger than any bound a
regression check can use, so every timed interval is scaled by the host's
speed measured beside it. A fixed reference kernel (interpreter loops,
small numpy calls and small matrix products, no program code) is timed
about every half second of a run, and an interval counts as

    wall time * REFERENCE_S / kernel time at the interval's midpoint

with the kernel time interpolated between the measurements around it.
REFERENCE_S is the kernel's time on the reference host (2 cores of an
Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4 with OpenBLAS on one thread),
so scaled figures read as wall time on that host when it is unloaded. The
kernel runs no program code, so a change to the program moves the scaled
figures in proportion to wall time. The program slows a little more than
the kernel under load, so the scaling removes most of a slowdown, not all
of it. The raw wall times are reported beside the scaled ones.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0060
_A = np.linspace(0.0, 1.0, 48)
_M = np.arange(1024, dtype=float).reshape(32, 32) / 1024.0


def kernel() -> float:
    """Seconds one pass of the reference work takes now."""
    t0 = perf_counter()
    s = 0.0
    for i in range(30_000):
        s += (i * 0.5) % 3.0
    for _ in range(400):
        b = np.hypot(_A, _A[::-1])
        int(np.argmin(b))
        c = np.clip(_A * 1.01, 0.0, 1.0)
        np.column_stack([_A, c]).sum(axis=0)
    for _ in range(400):
        _M @ _M
    return perf_counter() - t0


class HostSpeed:
    """Kernel times measured through a run, and the scale factor they give
    at any moment of it."""

    def __init__(self, every_s: float = 0.5):
        self.every_s = every_s
        self.at: list[float] = []          # perf_counter of each measurement
        self.kernel_s: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Measure the kernel if the last measurement is older than
        `every_s`. Call it next to the timed intervals, and with `force`
        once after the last one."""
        if force or not self.at or perf_counter() - self.at[-1] >= self.every_s:
            self.kernel_s.append(median(kernel() for _ in range(3)))
            self.at.append(perf_counter())

    def factor(self, start: float, wall: float) -> float:
        """Scale factor for an interval: REFERENCE_S over the kernel time
        interpolated at the interval's midpoint."""
        k = np.interp(start + wall / 2.0, self.at, self.kernel_s)
        return REFERENCE_S / float(k)
