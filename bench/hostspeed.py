"""Host-speed calibration, which takes the shared host's speed out of the times.

On a shared host the same verdict can run half as long again from one minute
to the next, as other tenants load the machine, and a whole run can fall in
a fast or a slow spell.  So a fixed reference kernel, which does not touch
rootdrill, is timed ``BURST`` times right before and right after each
measured call.  The median of those times against the kernel's nominal
``NOMINAL_S`` tells how fast the host ran just then, and the call's time is
scaled by that ratio:

    scaled = dt * NOMINAL_S / median(kernel times before and after)

A scaled time is the call's time on a host on which the kernel takes
``NOMINAL_S``.  The program is not touched, so a faster program still shows
in full.  The scaling assumes that nothing else of the program runs while the
kernel does, so the benchmark fails a verdict that leaves a thread or a child
process running.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

NOMINAL_S = 0.010
BURST = 3  # kernel runs on each side of a call; one alone varies by half

_VALUES = np.random.default_rng(0).random(40_000)
_KEYS = (_VALUES * 5000).astype(np.int64)


def kernel_time() -> float:
    """Wall time of one run of the reference kernel.

    It mixes what a verdict does: numpy sorting and grouping, a Python loop
    over a dict, and string work.  The collector is off, so the garbage a
    verdict left behind is not collected on the kernel's clock.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        np.sort(_VALUES)
        np.unique(_KEYS)
        np.bincount(_KEYS, weights=_VALUES)
        acc: dict[int, float] = {}
        for i in range(15_000):
            acc[i % 101] = acc.get(i % 101, 0.0) + _VALUES[i]
        ",".join(str(x) for x in range(3000)).split(",")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Scaler:
    """Scales the times of consecutive calls by the host speed around each."""

    def __init__(self) -> None:
        kernel_time()  # warm-up
        self.kernel_times: list[float] = []
        self._before = self._burst()

    def _burst(self) -> list[float]:
        times = [kernel_time() for _ in range(BURST)]
        self.kernel_times += times
        return times

    def scale(self, dt: float | None) -> float | None:
        """``dt`` of the call made since the last one, scaled; None stays None."""
        after = self._burst()
        before, self._before = self._before, after
        return None if dt is None else dt * NOMINAL_S / statistics.median(before + after)
