"""Rescaling host time to a reference CPU speed.

On a shared virtual machine the speed the host gives this process changes
by up to 2x within seconds.  Steal time does not show it: process CPU time
grows just as wall time does.  A pass of 20 s therefore varies by about 20%
from run to run, which is wider than any useful regression bound.

While an operation is timed, SIGALRM fires every PERIOD_S of wall time and
runs a fixed pure-Python snippet, whose duration samples the current speed.
Host seconds are rescaled by REFERENCE_S / (snippet time), averaged over the
samples: a second in which the snippet ran twice as slow counts as half a
reference second.  On the 2-vCPU machine the baseline was taken on, this
cut the interquartile spread of 25 repeats of a 1.5 s election from 16% to
5%.  The snippet costs about 15 us per 5 ms, or 0.3% of the timed work.

The snippet is integer arithmetic only.  A snippet that allocated objects
tracked the CLI runs more closely, but it also ran the garbage collector on
the workload's objects, so it slowed down with the workload and hid the
slowdowns the workload caused itself: it put the tracing overhead on
sparse_search at 1%, where this snippet puts it at 6%.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.005
# The snippet's time on that machine's vCPU when the host leaves it alone.
REFERENCE_S = 15e-6


def _snippet() -> None:
    x = 1
    for _ in range(200):
        x = (x * 5 + 1) & 0xFFFF


def burst_scale(count: int = 200, clock=time.perf_counter) -> float:
    """Reference seconds per host second, from `count` snippets run back
    to back now: for work that cannot be sampled while it runs."""
    inverse_sum = 0.0
    for _ in range(count):
        t0 = clock()
        _snippet()
        inverse_sum += 1.0 / (clock() - t0)
    return REFERENCE_S * inverse_sum / count


class SpeedSampler:
    """Context manager sampling the speed while timed work runs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = 0
        self.inverse_sum = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = self.clock()
        _snippet()
        self.samples += 1
        self.inverse_sum += 1.0 / (self.clock() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Reference seconds per host second; 1.0 before any sample."""
        if not self.samples:
            return 1.0
        return REFERENCE_S * self.inverse_sum / self.samples
