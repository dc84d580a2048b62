"""Machine-speed probe, and the scaling of measured times by it.

A shared machine runs the same code at different speeds from one minute to
the next (neighbours on the same cores).  On a shared 2-core x86-64 VM a
fixed loop took from 1x to 1.9x its best time, in phases of 5 to 35 seconds,
and whole 30-second runs moved by 25 %.  So every child runs a small fixed
kernel of Fraction, string and dict work, close to what the program does,
every INTERVAL_S from a SIGALRM timer, and records when it started and how
long it took.  A measured interval is reported as the time it would have
taken had the kernel run in REFERENCE_S: the probe time inside it is removed
and the rest is scaled by REFERENCE_S / the mean probe duration around it.
Raw times are printed next to the scaled ones.  The kernel uses only the
standard library, so a change to the program cannot change the scale.

Timestamps are time.perf_counter(), which is CLOCK_MONOTONIC on Linux and so
comparable between the parent and its children.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
MIN_PROBES = 10
# about the kernel's duration on an idle core of that VM under Python 3.11;
# a fixed constant, so that runs on one machine compare
REFERENCE_S = 0.00025


def kernel():
    """About half Fraction arithmetic, half string and dict work, as in a
    command-line request; pure Fraction work overstated the slowdown of the
    program's small requests in contended phases."""
    acc = {}
    s = Fraction(0)
    for i in range(1, 30):
        s += Fraction(i, i + 1) * Fraction(1, i)
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + i
    for i in range(120):
        k, _, v = f"--opt{i}=value{i},{i * 3}".partition("=")
        acc[k.lstrip("-")] = v.split(",")
    return s


class SpeedProbe:
    """Runs `kernel` now and every INTERVAL_S until stopped."""

    def __init__(self):
        self.samples: list = []   # [start, duration]

    def fire(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.samples.append([t0, time.perf_counter() - t0])

    def start(self):
        signal.signal(signal.SIGALRM, self.fire)
        self.fire()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.fire()


def mean_factor(samples: list) -> float:
    """The scale factor of a whole process, for times it did not span."""
    return statistics.fmean(REFERENCE_S / d for _, d in samples)


class Scaler:
    """Scales intervals by the probe samples of one child."""

    def __init__(self, samples: list):
        self.starts = [s for s, _ in samples]
        self.durations = [d for _, d in samples]

    def __call__(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(self.durations[lo:hi])
        # a short interval also takes the probes just around it: the speed
        # phases last seconds, a single probe is noisy
        a, b = lo, hi
        while b - a < MIN_PROBES and (a > 0 or b < len(self.durations)):
            a, b = max(0, a - 1), min(len(self.durations), b + 1)
        factor = statistics.fmean(REFERENCE_S / d
                                  for d in self.durations[a:b])
        return (t1 - t0 - inside) * factor
