"""Pace correction for timings taken on a shared host.

On a few cores of a shared machine, other tenants slow pure-Python code
by up to a factor of two for seconds to minutes at a time, so the raw
wall time of identical work spreads by about 20% between runs.  A
``Pace`` sampler measures that slowdown while the work runs: every
PERIOD_S a SIGALRM handler times a fixed probe of Fraction and dict
work, with the garbage collector off so the probe does not depend on
the program's heap.  ``since`` turns a wall interval into paced
seconds:

    paced = (wall - probe time inside it) * mean(REFERENCE_PROBE_S / probe)

that is, the time the same work would take on a host that runs one
probe in REFERENCE_PROBE_S.  Averaging the inverse of the probe times
weights every sample by the same share of the interval, and a probe
that was preempted counts as a slow moment instead of dominating.

The probe is the benchmark's own code, so a faster program shows as
fewer paced seconds while the probe stays the same.  About 0.6% of the
time goes to probes, and that time is subtracted.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
# seconds one probe takes at the reference pace
REFERENCE_PROBE_S = 250e-6
# intervals with fewer probes inside take their pace from the latest ones
MIN_SAMPLES = 8


def probe() -> Fraction:
    s = Fraction(0)
    seen = {}
    for i in range(1, 40):
        s += Fraction(1, i) * Fraction(i + 1, i + 2)
        seen[i % 7, i % 11] = s
    return s


def paced_seconds(wall: float, inside: list, pace_samples: list) -> float:
    """`wall` seconds that contained the probes `inside`, at the pace the
    probe durations `pace_samples` show."""
    if not pace_samples:
        raise ValueError("no probe samples to pace by")
    speed = statistics.fmean(REFERENCE_PROBE_S / c for c in pace_samples)
    return (wall - sum(inside)) * speed


class Pace:
    """Probes on a timer for as long as it is started."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            probe()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        for _ in range(2 * MIN_SAMPLES):
            self._sample()
        del self.samples[:MIN_SAMPLES]  # first calls warm the interpreter
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), len(self.samples)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(wall seconds, paced seconds) from `mark` to now."""
        t0, n0 = mark
        wall = time.perf_counter() - t0
        n1 = len(self.samples)
        start = max(0, min(n0, n1 - MIN_SAMPLES))
        return wall, paced_seconds(wall, self.samples[n0:n1],
                                   self.samples[start:n1])
