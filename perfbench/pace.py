"""The pace of the shared machine a run measures on.

The benchmark's machine shares its cores with other tenants, and its
speed swings by a third or more, over spans from milliseconds to
minutes; every timing of a run moves with it.  ``Pace`` times a fixed
pure-Python reference loop between items, about once per
``PACE_EVERY_S`` of run time.  A timed span is paced by dividing its
length by the slowdown around it: the mean time of the ``NEAREST``
samples nearest its middle, over ``REF_S``.  The paced times read as on
a machine running at the reference pace.  The loop does not touch
vdfield, so no change to the program can move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

CLOCK = time.perf_counter
PACE_EVERY_S = 0.05
NEAREST = 8
# Sets the scale only: about the loop's mean sample time within a run on
# a 2-vCPU Xeon VM at 2.1 GHz with Python 3.11, so that paced figures read
# close to unpaced ones there.
REF_S = 0.0015


def reference_work():
    """Exact rationals summed into a dict keyed by tuples, as the
    library's series arithmetic does."""
    acc = {}
    for i in range(1, 400):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i % 7 + 1)
    return acc


class Pace:
    def __init__(self):
        self.ends = []       # when each sample ended
        self.samples = []    # how long each took
        self.sample()

    def sample(self):
        """Time the loop's second run, with the garbage collector off, so
        that neither the program's heap nor what it left in the caches
        moves the sample."""
        gc.disable()
        try:
            reference_work()
            t0 = CLOCK()
            reference_work()
            end = CLOCK()
        finally:
            gc.enable()
        self.ends.append(end)
        self.samples.append(end - t0)

    def tick(self):
        """Take one sample for each PACE_EVERY_S since the last one, so
        the samples spread evenly over the run's time."""
        for _ in range(int((CLOCK() - self.ends[-1]) / PACE_EVERY_S)):
            self.sample()

    def paced(self, start, end):
        """The span's length divided by the slowdown around it."""
        i = bisect.bisect(self.ends, (start + end) / 2)
        lo = max(0, min(i - NEAREST // 2, len(self.ends) - NEAREST))
        return (end - start) / (statistics.mean(self.samples[lo:lo + NEAREST]) / REF_S)

    def mean_slowdown(self):
        return statistics.mean(self.samples) / REF_S
