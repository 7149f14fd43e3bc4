"""Host-speed normalisation of measured times.

On a shared 2-vCPU Xeon VM (2.1 GHz) the host switches between speed phases
lasting seconds to tens of seconds, the slow phase up to about 2x slower for
pure-Python code, so a raw 10-second measurement lands in one phase or the
other: the raw ``wall_s`` of identical runs differed by up to a factor of
1.67, the normalised one by at most 1.07 (baseline.json).  So every reported
time is normalised: a fixed pure-Python reference kernel is timed next to the
measured work, and a duration ``T`` measured while the kernel took ``d``
seconds is reported as
``T * NOMINAL_S / d``, the time the work would take on a host that runs the
kernel in ``NOMINAL_S``.  The kernel does not touch the program, so a change
that makes the program slower or faster moves the normalised time by the
same factor.

While `RefSpeed` is running, SIGALRM runs the kernel every ``PERIOD_S``
seconds inside this (single) thread; kernel time falling inside a measured
interval is subtracted from it.  The set-up probe (ready.py) runs its own
`RefSpeed` around its set-up, so the kernel is sampled during the imports it
times.

The kernel is pure Python.  Once a hot loop moves into compiled code, check
that it still tracks the host's speed phases: ``baseline.json`` keeps the
raw figures next to the normalised ones for that comparison.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

KERNEL_STEPS = 300
NOMINAL_S = 0.0015
PERIOD_S = 0.05


def _field(y):
    return (y[1], -y[0] ** 3 - 0.1 * y[1] + 0.2 * y[0] * y[0])


def kernel_seconds() -> float:
    """Run the reference kernel once; its duration.

    The kernel is a small list-based RK4 integration: the same mix of calls,
    float arithmetic and short-lived lists as the pipeline's stepper, so
    both slow down by about the same factor in a slow host phase.
    """
    t0 = time.perf_counter()
    y, h, kept = [1.0, 0.0], 0.01, []
    for _ in range(KERNEL_STEPS):
        k1 = _field(y)
        k2 = _field([a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = _field([a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = _field([a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6 * (b + 2 * c + 2 * d + e)
             for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
        if not all(math.isfinite(v) for v in y):
            raise ArithmeticError("reference kernel diverged")
        kept.append(y)
    return time.perf_counter() - t0


class RefSpeed:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._saved = None

    def _probe(self, *_signal_args):
        self.starts.append(time.perf_counter())
        self.durations.append(kernel_seconds())

    def __enter__(self):
        self._probe()  # so even work shorter than a period has a sample
        self._saved = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def _near(self, t0, t1):
        """Index range of the samples within one period of [t0, t1] (the
        nearest sample if there is none)."""
        lo = bisect.bisect_left(self.starts, t0 - PERIOD_S)
        hi = bisect.bisect_right(self.starts, t1 + PERIOD_S)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(self.starts) - 1)
            hi = lo + 1
        return lo, hi

    def raw_seconds(self, t0: float, t1: float) -> float:
        """Duration of the work over [t0, t1]: kernel samples taken inside
        the interval are not part of the work."""
        lo, hi = self._near(t0, t1)
        inside = sum(d for s, d in zip(self.starts[lo:hi], self.durations[lo:hi])
                     if t0 <= s < t1)
        return t1 - t0 - inside

    def seconds(self, t0: float, t1: float) -> float:
        """Normalised duration of the work over [t0, t1]: its raw duration
        scaled by ``NOMINAL_S / kernel time`` averaged over nearby samples."""
        lo, hi = self._near(t0, t1)
        scale = statistics.mean(NOMINAL_S / d for d in self.durations[lo:hi])
        return self.raw_seconds(t0, t1) * scale

    def kernel_ms(self) -> float:
        """Median kernel duration over all samples: the host's speed phase."""
        return statistics.median(self.durations) * 1e3
