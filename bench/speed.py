"""Machine-speed probe for untraced executions.

On a shared host the same code runs up to twice as slow from one minute to
the next, while the ratio between two pieces of CPU-bound code stays within
a few per cent.  So an untraced execution runs a fixed reference kernel
every INTERVAL_S (from a SIGALRM handler, in the benchmark's own code) and
times it.  The time spent in the handler is taken out of every span the
workload measures, and each span is scaled by the mean speed seen during it,
a sample's speed being REFERENCE_S over its kernel time: the result is the
span's length at the reference speed.  (Samples are even in time, so the
mean speed is the work done per second over the span.)  The kernel mixes a
small-int loop with big-integer products, the two kinds of work phylorank
does, and allocates nothing the garbage collector tracks, so the program's
heap does not change its time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# The kernel's time on a calm 2.0 GHz Xeon vCPU (CPython 3.11): the speed
# that scaled times refer to.  Any fixed value would do; this one keeps
# scaled seconds close to wall seconds there.
REFERENCE_S = 0.0017
# A span with fewer kernel samples than this is scaled by the execution's
# samples as a whole.
MIN_SAMPLES = 10

_A = 3**5000
_B = 7**4500


def kernel() -> int:
    x = 0
    for i in range(3000):
        x += i * i
    for i in range(12):
        x ^= (_A + i) * _B
    return x


class SpeedProbe:
    """Times ``kernel`` every INTERVAL_S and keeps the handler's time out of
    ``clock()``.  ``mark()`` splits the samples into the spans to scale."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self.marks: list[int] = [0]

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.stolen += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter() without the time spent in the probe."""
        return time.perf_counter() - self.stolen

    def mark(self) -> None:
        """End the current span of samples."""
        self.marks.append(len(self.samples))

    def factors(self) -> list[float]:
        """The mean of REFERENCE_S / kernel time, for each span between marks."""
        speeds = [REFERENCE_S / k for k in self.samples] or [1.0]
        bounds = self.marks + [len(speeds)]
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            part = speeds[lo:hi]
            out.append(statistics.fmean(part if len(part) >= MIN_SAMPLES else speeds))
        return out


class NoProbe:
    """Traced executions: no probe, plain perf_counter()."""

    samples: list[float] = []
    stolen = 0.0

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def clock(self) -> float:
        return time.perf_counter()

    def mark(self) -> None:
        pass

    def factors(self) -> list[float]:
        return [1.0, 1.0]
