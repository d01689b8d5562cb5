"""Host-speed clock: times measured in seconds at a fixed reference speed.

The speed of a shared host wanders: on a shared 2-core Xeon VM a fixed
pure-Python loop took anywhere from 1x to 1.7x its quickest time, in
spells of seconds to minutes, and CPU time slowed with wall time, so
neither clock can tell a slower program from a slower host.  A timer
signal therefore interrupts the worker every ``PERIOD_S`` and runs a short
fixed probe: Fraction arithmetic, dict and list updates, the kind of work
k3lat does.  Each gap between two probes is scaled by ``REFERENCE_S`` over
the mean duration of the two probes around it.  The probes' own time is
left out.  The result is what the interval would have taken on a host
where the probe takes ``REFERENCE_S``, so a change to k3lat moves it and a
change of host speed mostly does not.

The probe costs about 1.5% of the worker's time and is the same on every
commit.  Its interval and size are part of the benchmark's definition.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
PROBE_STEPS = 200
# The probe's duration on a quiet host of the kind the README names.  Only
# the ratio to measured probe durations matters; it sets the scale.
REFERENCE_S = 0.0005


def _probe_work() -> Fraction:
    total = Fraction(0)
    table: dict[int, list[int]] = {}
    for i in range(1, PROBE_STEPS):
        total += Fraction(i % 7, i % 5 + 1)
        table[i % 97] = [total.numerator % 11, i]
    return total


class HostClock:
    """Probes the host's speed on a timer and converts intervals of
    ``time.monotonic()`` into reference seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._probing = False

    def _probe(self, *_signal_args) -> None:
        # A signal that arrives during a probe would nest a second one and
        # leave the lists out of time order.
        if self._probing:
            return
        self._probing = True
        t0 = time.monotonic()
        _probe_work()
        t1 = time.monotonic()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self._probing = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._probe()

    def probe_ms(self) -> float:
        """Median probe duration: the host's speed while the clock ran."""
        return statistics.median(self.durations) * 1e3

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done in ``[t0, t1]``, probes left
        out.  Before the first probe and after the last, the nearest probe
        sets the speed."""
        # Gap i runs from the end of probe i-1 to the start of probe i; the
        # first gap that ends after t0 and the last that begins before t1:
        first = bisect.bisect_right(self.starts, t0)
        last = bisect.bisect_left(self.ends, t1)
        total = 0.0
        for i in range(first, last + 1):
            lo = self.ends[i - 1] if i > 0 else float("-inf")
            hi = self.starts[i] if i < len(self.starts) else float("inf")
            overlap = min(hi, t1) - max(lo, t0)
            if overlap > 0:
                near = self.durations[max(0, i - 1):i + 1]
                total += overlap * REFERENCE_S / statistics.fmean(near)
        return total
