"""Correction of wall-clock times for the speed of a shared host.

On a shared virtual machine the same code runs at speeds up to 1.8x apart,
and the speed shifts within seconds and drifts over minutes, so two runs of
the same commit can differ more than any change worth measuring.  The
benchmark therefore times a fixed piece of plain-Python work (the probe)
every PROBE_EVERY_S seconds, from an interval timer's signal handler.  It
scales each op's wall time, less the probes that interrupted it, by
NOMINAL_S over the mean probe time during the op.  The result is the op's
time on a host where the probe takes NOMINAL_S, in seconds.  The probe calls
nothing in grstacks, so no change to the program can move it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

clock = time.perf_counter

# The probe's median time on the 2-vCPU x86 host the benchmark was tuned on,
# in its faster state; it fixes the scale of every corrected time.
NOMINAL_S = 0.0005
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.1
_BIG = 3**400


class _Point:
    __slots__ = ("a",)

    def __init__(self, a: int):
        self.a = a

    def plus(self, other: "_Point") -> "_Point":
        return _Point(self.a + other.a)


def _work() -> tuple:
    """Small-int Fractions, big-int products, tuple hashing and method calls:
    the kinds of work the package's rings, tower and verifiers do."""
    acc = Fraction(0)
    seen = set()
    x = 1
    p, one = _Point(0), _Point(1)
    for i in range(1, 120):
        acc += Fraction(i, i + 7)
        x = (x * _BIG + i) % (_BIG - 2)
        seen.add((i % 13, i * i % 17))
        p = p.plus(one).plus(one)
    return acc, x, len(seen), p.a


def probe() -> float:
    """Median seconds of PROBE_REPEATS runs of the probe.  The collector is
    off meanwhile, so the probe neither pays for the program's garbage nor
    takes that cost out of the op it interrupts."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_REPEATS):
            start = clock()
            _work()
            times.append(clock() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


class Speedometer:
    """Probe times sampled by an interval timer while started, and the
    correction they give."""

    def __init__(self):
        self.began: list[float] = []  # when each probe began
        self.ended: list[float] = []  # when each probe ended
        self.took: list[float] = []  # what each probe measured
        self._running = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        began = clock()
        took = probe()
        self.began.append(began)
        self.ended.append(clock())
        self.took.append(took)

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._running = False
        self._sample()

    def correct(self, start: float, seconds: float) -> float:
        """The wall time ``seconds`` of an interval that began at ``start``,
        less the probes inside it, times NOMINAL_S over the mean time of the
        probes from the last one before it to the first one after it."""
        end = start + seconds
        lo = max(0, bisect.bisect_right(self.ended, start) - 1)
        hi = min(len(self.ended) - 1, bisect.bisect_left(self.ended, end))
        probed = sum(
            min(e, end) - max(b, start)
            for b, e in zip(self.began[lo : hi + 1], self.ended[lo : hi + 1])
            if b < end and e > start
        )
        return (seconds - probed) * NOMINAL_S / statistics.fmean(self.took[lo : hi + 1])
