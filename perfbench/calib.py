"""A fixed reference computation that measures the host's current speed.

The benchmark's hosts share their cores, and their speed moves by up to a
factor of two within seconds and by a quarter over minutes.  Every timing
of the end-to-end metrics is therefore taken next to runs of this kernel,
which is pure Python code of the benchmark (exact rational arithmetic in
Q(sqrt 2) on dict polynomials, as in the field layer) and does not change
with the program.  A time is reported at the nominal speed:

    normalised = measured * NOMINAL_S / (median kernel time around it)

so a host that runs everything 20 % slower leaves the figures as they
are, while a program that gets 20 % slower moves them by 20 %.
"""
from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction

# the kernel's time on an uncontended core of a 2-vCPU VM (Xeon, Python
# 3.11); it only sets the scale of the reported figures and must never
# change between commits
NOMINAL_S = 0.27e-3
WINDOW_S = 0.25         # kernel runs this close to a timing set its speed
MIN_SAMPLES = 5

_rng = random.Random(1)


def _q():
    return Fraction(_rng.randint(-30, 30) or 1, _rng.randint(1, 12))


_A = [((i, j), (_q(), _q())) for i in range(3) for j in range(2)][:5]
_B = [((i, j), (_q(), _q())) for i in range(2) for j in range(2)]


def kernel():
    c = {}
    for (i, j), (a0, a1) in _A:
        for (k, l), (b0, b1) in _B:
            key = (i + k, j + l)
            r0 = a0 * b0 + 2 * a1 * b1
            r1 = a0 * b1 + a1 * b0
            old = c.get(key)
            c[key] = (r0, r1) if old is None else (old[0] + r0, old[1] + r1)
    return c


class Speed:
    """Kernel runs with their time stamps, taken between timed pieces of
    work; :meth:`normalise` scales a piece by the kernel runs near it."""

    def __init__(self):
        self.at = []        # mid-point of each kernel run, perf_counter
        self.dur = []

    def sample(self):
        t = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.at.append((t + end) / 2)
        self.dur.append(end - t)

    def normalise(self, start, end):
        """The time ``end - start`` at nominal speed.  The speed is the
        median kernel time within WINDOW_S of the interval, widened to the
        MIN_SAMPLES nearest runs when fewer lie there."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        ref = statistics.median(self.dur[lo:hi])
        return (end - start) * NOMINAL_S / ref
