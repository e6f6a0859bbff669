"""Host-speed correction for timings taken on a shared machine.

Other tenants of a shared host slow this process down by up to a factor
of two, in stretches from a fraction of a second to minutes (a busy
sibling hyperthread, shared caches); CPU time slows down with wall time,
so it is no steadier.  Medians over a run remove short bursts but not a
slowdown that lasts for much of the run.

`HostSpeed` therefore times a fixed reference computation, which does not
depend on the code under test, every `interval` seconds from a SIGALRM
handler, and once right before and right after each timed call.  A call's
corrected time is its own wall time (minus the time spent in the handler
meanwhile) times REFERENCE_S over the mean of the reference times taken
around and during the call: the time the call takes on a core where the
reference takes REFERENCE_S, its time on an undisturbed core of a 2-vCPU
Xeon VM under Python 3.11.  If the code under test gets twice as fast, so
does its corrected time; if the host slows down, the reference slows down
with it.  Corrected times compare across runs on one machine, not across
machines.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List, NamedTuple, Tuple

INTERVAL_S = 0.01
REFERENCE_S = 150e-6


def reference_work() -> Fraction:
    """Pure-Python rational arithmetic, the kind of work the solver does;
    about 0.15 ms on an undisturbed core."""
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i, i + 7)
    return s


class Timing(NamedTuple):
    wall: float         # wall time of the call, handler time excluded
    reference: float    # mean reference time around and during the call


class HostSpeed:
    """Samples the reference while active; use as a context manager."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: List[Tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        reference_work()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args):
        """Calls fn(*args); returns (Timing, its result)."""
        first = len(self.samples)
        self.sample()
        t0 = perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        self.sample()
        window = self.samples[first:]
        inside = sum(d for start, d in window if t0 <= start < t1)
        return Timing(t1 - t0 - inside,
                      statistics.fmean(d for _, d in window)), result

    def slowdown(self) -> float:
        """Median reference time over REFERENCE_S."""
        return statistics.median(d for _, d in self.samples) / REFERENCE_S


def corrected(timing: Timing) -> float:
    """The call's time on a core where the reference takes REFERENCE_S."""
    return timing.wall * REFERENCE_S / timing.reference
