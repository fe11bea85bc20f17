"""How fast the machine runs at the moment, from a fixed reference kernel.

The benchmark runs on a shared host whose speed swings by a third or more
within a minute as other tenants come and go, and a run that falls in a
slow stretch reads slow from end to end.  So every timed operation is
bracketed by runs of a fixed kernel, and its time is scaled by
REFERENCE_S / (the kernel's median time around it).  The scaled time reads
as the operation's time on a machine where one kernel run takes
REFERENCE_S.

The kernel is numpy and Python work shaped like the pipeline's (voxel
keys through np.unique, cylinder masks, small least-squares solves, dict
updates), so that it slows with the machine as the program does.  It uses
numpy only, never cyldet: a change to the program moves the scaled times
in the same proportion as the raw ones.
"""

import statistics
from time import perf_counter

import numpy as np

# About the kernel's median time on the 2-vCPU x86-64 VM the benchmark was
# tuned on; any fixed value would do, this one keeps scaled times near raw.
REFERENCE_S = 5.5e-3
BRACKET = 8             # kernel runs on each side of a bracketed operation

_RNG = np.random.default_rng(0)
_POINTS = _RNG.uniform(-20.0, 20.0, size=(3300, 3))
_SYSTEM = _RNG.normal(size=(8, 3))


def kernel():
    keys = np.floor(_POINTS / 0.2).astype(np.int64)
    np.unique(keys, axis=0)
    for k in range(12):
        centre = _POINTS[7 * k]
        inside = ((_POINTS[:, 0] - centre[0]) ** 2
                  + (_POINTS[:, 2] - centre[2]) ** 2 < 9.0)
        _POINTS[inside].mean(axis=0)
    for k in range(40):
        np.linalg.lstsq(_SYSTEM, _SYSTEM[:, 0] + k, rcond=None)
    sums = {}
    for k in range(600):
        key = (k % 17, k % 5)
        sums[key] = sums.get(key, 0.0) + 0.5 * k


class Pace:
    """Kernel times of one run, in the order they were taken."""

    def __init__(self):
        self.samples = []
        self.tick(BRACKET)          # warm-up: these samples are never used

    def tick(self, n=1):
        """Run the kernel n times; returns the seconds that took."""
        start = perf_counter()
        for _ in range(n):
            t0 = perf_counter()
            kernel()
            self.samples.append(perf_counter() - t0)
        return perf_counter() - start

    def scale(self, since):
        """Factor that turns times taken since sample `since` into
        reference-speed times."""
        return REFERENCE_S / statistics.median(self.samples[since:])

    def around(self, call):
        """(call(), factor for times taken during the call), with BRACKET
        kernel runs just before and just after it."""
        since = len(self.samples)
        self.tick(BRACKET)
        result = call()
        self.tick(BRACKET)
        return result, self.scale(since)

    def timed(self, call):
        """(call(), its time at reference speed)."""
        def run():
            start = perf_counter()
            return call(), perf_counter() - start
        (result, took), factor = self.around(run)
        return result, took * factor

    @property
    def kernel_ms(self):
        return 1e3 * statistics.median(self.samples[BRACKET:])
