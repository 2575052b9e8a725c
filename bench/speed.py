"""Times normalised to a reference host speed, measured by a fixed kernel.

On a shared host the same code runs at full speed or up to about 1.8 times
slower, in episodes lasting from a second to minutes, so raw times from two
runs of the same code can differ by a third.  The benchmark therefore times
a fixed pure-Python kernel before and after every task and, through a timer
signal, every ``INTERVAL_S`` while a task runs.  Each stretch of a task
between two kernel runs is scaled by the kernel's speed at its two ends:

    normalised = sum over stretches of length * REFERENCE_S / mean(kernel times)

The kernel runs themselves are left out of the task's time.  The kernel is
the benchmark's own code and never calls the package.  Every sample is the
better of two kernel runs, made with the garbage collector off, so that a
preemption or a collection whose cost grows with the package's live heap
does not read as a slow host.  Like the workloads, the kernel walks a list
of small records and does integer and ``Fraction`` arithmetic, so host
contention slows both alike.
"""

from __future__ import annotations

import gc
import random
import signal
import traceback
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable, List, Optional, Tuple

# The kernel's time at the reference speed: its typical full-speed time on
# the 2-vCPU Xeon host the benchmark was written on.
REFERENCE_S = 0.0011
INTERVAL_S = 0.1
# A boundary sample older than this is taken again before the next task.
FRESH_S = 0.05


@dataclass
class Timing:
    result: object
    error: Optional[str]  # the traceback if the call raised
    raw_s: float
    normalised_s: float


class SpeedProbe:
    """Use as a context manager: the timer signal runs while it is open."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._records: List[tuple] = [(rng.randrange(1440), "DU"[rng.randrange(2)]) for _ in range(6_000)]
        self._fractions = [Fraction(rng.randrange(1, 400), rng.randrange(1, 30)) for _ in range(150)]
        # (start, kernel seconds, seconds the signal handler took)
        self._inner: List[Tuple[float, float, float]] = []
        self._last: Optional[Tuple[float, float]] = None  # (taken at, kernel seconds)
        self._previous_handler = None

    def __enter__(self) -> "SpeedProbe":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _kernel_s(self) -> float:
        """Kernel seconds: the better of two runs, with the collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return min(self._run_kernel(), self._run_kernel())
        finally:
            if enabled:
                gc.enable()

    def _run_kernel(self) -> float:
        started = perf_counter()
        total = 0
        for minute, side in self._records:
            if side == "D":
                total += -(-minute // 3)
        for i in range(6_000):
            total += i * i % 7
        cost = Fraction(total)
        for x in self._fractions:
            cost += abs(x - 7)
        return perf_counter() - started

    def _on_alarm(self, signum, frame) -> None:
        started = perf_counter()
        kernel = self._kernel_s()
        self._inner.append((started, kernel, perf_counter() - started))

    def sample(self) -> float:
        """Kernel seconds now, with the timer held off."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            kernel = self._kernel_s()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        self._last = (perf_counter(), kernel)
        return kernel

    def timed(self, fn: Callable[[], object]) -> Timing:
        """Call ``fn`` and time it, raw and normalised."""
        if self._last is None or perf_counter() - self._last[0] > FRESH_S:
            self.sample()
        before = self._last[1]
        self._inner.clear()
        result, error = None, None
        started = perf_counter()
        try:
            result = fn()
        except Exception:
            error = traceback.format_exc()
        ended = perf_counter()
        inner = [p for p in self._inner if started <= p[0] < ended]
        after = self.sample()
        knots = [(started, before, 0.0), *inner, (ended, after, 0.0)]
        raw = normalised = 0.0
        for (t0, k0, h0), (t1, k1, _) in zip(knots, knots[1:]):
            stretch = max(t1 - (t0 + h0), 0.0)
            raw += stretch
            normalised += stretch * REFERENCE_S / ((k0 + k1) / 2)
        return Timing(result, error, raw, normalised)
