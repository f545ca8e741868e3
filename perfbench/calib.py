"""The host's speed, measured with a fixed piece of work that never calls cfinite.

On the 2-CPU virtual machine where the benchmark was built, the speed of
a process switches between states, about 1.75x apart, that last from a
fraction of a second to tens of seconds.  Every job class slows by the
same factor, a fixed input included, and a whole 20-second run can fall
in one state.  So the worker runs a short slice of `work()` before the
first job, after the last, and between jobs every CALIBRATE_EVERY_S
seconds, and scales each job's latency by the speed the slices around it
show: `REF_S / median seconds of those slices`.  That turns a measured
time into seconds on a host where `work()` takes REF_S.  `work()` uses
only the standard library, mpmath and the benchmark's oracle, so a
change to cfinite cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction as F

import mpmath

import oracle as O

# seconds work() takes on the reference host; a constant, so that two
# commits measured with the same benchmark code scale alike
REF_S = 0.01
CALIBRATE_EVERY_S = 0.25
# slices on each side of a job that give its speed
WINDOW = 2

_REC = [F(2), F(-1, 3), F(5, 7), F(-4, 9)]
_INIT = [F(1), F(1, 2), F(-3, 4), F(2, 5)]
_POLY = [1, -3, 7, 11]


def work():
    """Fraction arithmetic, big-integer sums and products, and mpmath roots at
    50 digits: the kinds of work cfinite spends its time in."""
    O.berlekamp_massey(O.unroll(_INIT, _REC, 60)[:30])
    big = O.unroll([1, 2, 3], [3, -1, 2], 200)
    sum(a * b for a, b in zip(big[100:], big[:100]))
    with mpmath.workdps(50):
        mpmath.polyroots(_POLY, maxsteps=200, extraprec=50)


def seconds(slices):
    """Seconds of work(), one sample per slice."""
    out = []
    for _ in range(slices):
        t0 = time.perf_counter()
        work()
        out.append(time.perf_counter() - t0)
    return out


def speed(samples):
    """The speed, relative to the reference host, that these slices show."""
    return REF_S / statistics.median(samples)


def job_speeds(marks, n):
    """The speed of each of n jobs from marks [(jobs done before the slice,
    seconds)], ordered by position: the median of the WINDOW slices before
    the job and the WINDOW after it."""
    positions = [p for p, _ in marks]
    out = []
    for i in range(n):
        j = bisect.bisect_right(positions, i)
        out.append(speed([s for _, s in marks[max(0, j - WINDOW) : j + WINDOW]]))
    return out
