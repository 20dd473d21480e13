"""Host-speed reference for timings taken on a shared host.

On a host shared with other tenants the same pure-Python work can run up to
twice as slow from one few seconds to the next, and all code slows down
alike.  While a ``SpeedProbe`` runs, a SIGALRM timer interrupts the process
every INTERVAL_S seconds to time a fixed reference loop, and ``now()`` is a
clock that stops while it does, so timings taken with it leave the loops
out.  Each timing is then divided by the host's slowness around it: the
median duration of the nearby reference loops over REFERENCE_S, to the
power SENSITIVITY.  A normalized time is "seconds at the reference speed",
the speed at which the reference loop takes REFERENCE_S.  The loop does the
kind of work ambigcolor does (small integers, bit operations, lists, dicts,
calls) and nothing of ambigcolor, so no change to the program moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

clock = time.perf_counter

REFERENCE_S = 0.005        # the reference loop at the reference speed
INTERVAL_S = 0.25          # one sample per interval of wall time
NEAREST = 9                # samples that set the factor of a short timing
# Fitted on same-seed repeats only (ten processes per workload, one seed,
# so the inputs do not vary): the log of the raw round time against the log
# of the reference loop's time has a pooled within-workload slope of 0.77.
# The ten-seed runs that show the bounds are a separate set.
SENSITIVITY = 0.77


def _step(x):
    return (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF


def reference_loop():
    """Fixed work; returns its duration in seconds."""
    t0 = clock()
    acc = 0
    seen = {}
    rows = [0] * 16
    x = 0x9E3779B97F4A7C15
    for i in range(12000):
        x = _step(x)
        r = x >> 40
        rows[i & 15] |= r & -r
        acc += r.bit_count() + (rows[(i + 1) & 15] & r).bit_length()
        seen[i & 255] = acc
    return clock() - t0


def slowness(loop_s):
    """How many times slower than at the reference speed the benchmark's
    work runs while the reference loop takes `loop_s` seconds."""
    return (loop_s / REFERENCE_S) ** SENSITIVITY


def sample():
    """The faster of two reference loops: a loop that was preempted says
    nothing about the host's speed."""
    return min(reference_loop(), reference_loop())


class SpeedProbe:
    """Samples the host's speed on a timer while active (``with probe:``).

    Main thread only, as signal handlers are.  ``now()`` is perf_counter
    minus the time spent sampling; ``factor(t0, t1)`` is how many times
    slower than the reference speed the host ran over [t0, t1] of ``now()``.
    """

    def __init__(self):
        self.samples = []          # (now() at the sample, loop seconds)
        self.paused = 0.0
        self._previous = None

    def now(self):
        return clock() - self.paused

    def _take(self, signum=None, frame=None):
        start = clock()
        at = start - self.paused
        self.samples.append((at, sample()))
        self.paused += clock() - start

    def __enter__(self):
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def factor(self, t0, t1):
        """Slowness at the median of the samples taken within [t0, t1], or
        of the NEAREST samples to it if fewer were."""
        def distance(s):
            return max(t0 - s[0], s[0] - t1, 0.0)
        near = sorted(self.samples, key=distance)
        inside = sum(1 for s in near if distance(s) == 0.0)
        chosen = near[:max(inside, NEAREST)]
        return slowness(statistics.median(d for _, d in chosen))
