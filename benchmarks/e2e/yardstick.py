"""A yardstick for the machine's speed, so that timings survive a noisy host.

The reference machine is a 2-core VM whose speed changes by 1.3-1.7x for
seconds or minutes at a time (a loop of fixed work shows it with nothing else
running).  Wall-clock medians then differ between two runs of one commit by
more than any sensible regression bound.  So next to every timed request the
benchmark times a fixed piece of work that has nothing to do with the package
— half interpreter loop, half NumPy sort/scan/scatter on arrays of the size
the typed backend handles — and reports each request's time multiplied by
``REFERENCE_S / yardstick``: milliseconds *at reference speed*.  On a quiet
reference machine the factor is 1 and the numbers are plain wall-clock; a
slowdown of the host stretches request and yardstick alike and cancels.  The
factor depends on nothing a change to the package can touch.  Reports keep the
raw wall-clock medians beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

#: The yardstick's duration on the quiet reference machine (median of 2000).
REFERENCE_S = 0.0071
#: A measurement older than this is taken again before the next request.
MAX_AGE_S = 0.1


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 4096, 40_000)
        self.values = rng.uniform(size=40_000)
        self.factor = 1.0
        self.history: list[float] = []   # every measurement, in seconds
        self._measured_at = float("-inf")

    def measure(self) -> float:
        """Time the fixed work once; remember ``REFERENCE_S / seconds``."""
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        order = np.argsort(self.keys, kind="stable")
        np.cumsum(self.values[order])
        np.bincount(self.keys, weights=self.values, minlength=4096)
        now = time.perf_counter()
        seconds = now - start
        self.history.append(seconds)
        self.factor = REFERENCE_S / seconds
        self._measured_at = now
        return seconds

    def steady(self) -> float:
        """The median of three measurements, for a factor many samples share."""
        return sorted(self.measure() for _ in range(3))[1]

    def fresh_factor(self) -> float:
        """The factor for a request issued now, measured at most 0.1 s ago."""
        if time.perf_counter() - self._measured_at > MAX_AGE_S:
            self.measure()
        return self.factor
