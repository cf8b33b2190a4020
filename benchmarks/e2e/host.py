"""Host-speed calibration.

A shared host runs the same code at speeds that drift by tens of percent
over minutes: a run's wall times mix the program's cost with how busy
the neighbours are.  Each run therefore times a fixed task that does not
use the library, mixing the kinds of work the library does (interpreted
loops, NumPy calls on small arrays, random gathers and sorts over larger
ones, a k-d tree query), several times between its measurements.  The
run's times are reported in *reference seconds*: measured seconds scaled
by ``REFERENCE_S / median(calibration seconds)``, what they would have
been on the host the reference was measured on, at its usual speed.  A
change to the library leaves the task's time alone, so it still moves
the scaled times as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

#: The task's median seconds on the reference host (two cores of a shared
#: x86-64 VM, Python 3.11, NumPy 2.4) at its usual speed; measured there
#: between 6 and 9 ms as the neighbours' load came and went.  A fixed
#: unit: changing it rescales every reported time.
REFERENCE_S = 0.0065


class Calibration:
    """The task's inputs, built once, and every timing taken of it."""

    def __init__(self):
        rng = np.random.default_rng(0xCA1)
        self._big = rng.random(1 << 17)
        self._gather = rng.integers(0, self._big.size, 3 * self._big.size)
        self._small = rng.random(64)
        self._points = rng.random((2048, 2))
        self.samples: list[float] = []

    def _task(self) -> float:
        acc = 0.0
        for i in range(20_000):  # interpreted arithmetic and a dict
            acc += (i * 7) % 13
        counts: dict = {}
        for i in range(15_000):
            counts[i & 255] = counts.get(i & 255, 0) + 1
        for _ in range(750):  # NumPy dispatch on tiny arrays
            acc += float(np.add(self._small, 1.0).sum())
        acc += float(np.take(self._big, self._gather).sum())  # random gathers
        acc += float(np.sort(self._big)[7])
        tree = cKDTree(self._points)  # pointer chasing in compiled code
        acc += float(tree.query_ball_point(self._points, 0.04, return_length=True).sum())
        return acc

    def sample(self, times: int = 1) -> None:
        """Time the task ``times`` times."""
        for _ in range(times):
            t = time.perf_counter()
            self._task()
            self.samples.append(time.perf_counter() - t)

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
