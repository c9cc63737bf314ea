"""Speed probes that scale the end-to-end times to a nominal machine speed.

The host this benchmark was defined on changes speed by a third or more
within seconds, for all code alike.  While a timed region runs, a timer
signal interrupts it every PROBE_INTERVAL_S seconds and runs a fixed probe
loop of Fraction and dict arithmetic (the kind of work qshuffle does),
recording how long the loop took.  A region that took t seconds, b of them
in probes, is reported as

    (t - b) * NOMINAL_PROBE_S * mean(1 / probe durations)

that is, the time it would have taken at the speed where one probe takes
NOMINAL_PROBE_S.  The probe is the benchmark's own code, so a change to the
program moves the scaled time exactly as it moves the raw one.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.02
PROBE_ITERATIONS = 200
# About the probe's duration on the machine the benchmark was defined on
# (Python 3.11.7, 2-vCPU virtual machine); it only sets the unit.
NOMINAL_PROBE_S = 0.0007


def _probe_loop() -> float:
    t0 = perf_counter()
    acc: dict = {}
    for i in range(PROBE_ITERATIONS):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7, 1 + i % 5)
    return perf_counter() - t0


class SpeedProbe:
    """Context manager that probes the machine's speed while its body runs;
    one more probe runs on exit, so even a short region has one.  Not
    reentrant: it owns SIGALRM while active."""

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[float] = []
        self.starts: list[float] = []
        self.busy = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _on_alarm(self, signum, frame) -> None:
        self.starts.append(perf_counter())
        self.samples.append(_probe_loop())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.busy = sum(self.samples)
        self.samples.append(_probe_loop())

    def busy_between(self, start: float, end: float) -> float:
        """Time the probes that started within [start, end] took."""
        i, j = bisect_left(self.starts, start), bisect_right(self.starts, end)
        return sum(self.samples[i:j])

    def unprobed(self, t: float) -> float:
        """t without the time the probes inside the region took."""
        return t - self.busy

    def scaled(self, t: float) -> float:
        """t at the nominal speed."""
        speed = sum(1 / p for p in self.samples) / len(self.samples)
        return self.unprobed(t) * NOMINAL_PROBE_S * speed
