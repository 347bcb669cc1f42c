"""Machine-speed calibration for measurements on a shared host.

On a host shared with other tenants the speed of one core drifts by tens
of percent, in phases from milliseconds to seconds long, in CPU time as
much as in wall time.  Raw timings of identical work then spread too
widely to compare two commits.  A fixed pure-Python kernel, which uses
nothing from the package, is timed before and after every measured call
and, from a timer signal, every ``PERIOD_S`` during it.  A call's time
``t`` (less the kernel's own time) is reported as ``t * REFERENCE_S / k``
with ``k`` the median kernel time around and during the call: the time
the call would have taken on a host where the kernel runs in
``REFERENCE_S``.  Both commits of a comparison are scaled the same way,
and the raw times are reported next to the scaled ones.

The scaling removes most of the drift for work as core-bound as the
kernel (the k=9 and k=5 workloads); work with a larger working set, as
at k=24, slows down less than the kernel under heavy contention, so
there part of the drift remains.  For the same reason a change that
makes the package's work less like the kernel (table lookups in place of
tuple loops, say) reads as faster under contention than it is: a gain
claimed from scaled figures must also show in the raw ones, which
``sweep.py`` prints next to them.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from collections import deque
from time import perf_counter

# Time of the kernel's ROUNDS rounds on an idle 2-vCPU Intel Xeon at
# 2.0 GHz, CPython 3.11; the two are tied.
REFERENCE_S = 0.0004
ROUNDS = 60
PERIOD_S = 0.02
# Kernel samples before a call that its speed is taken from.
WINDOW = 4


def kernel() -> int:
    """Schoolbook products of small digit vectors mod 5: the integer,
    list and tuple work that exact field arithmetic in Python does."""
    a = [(i * 7 + 3) % 5 for i in range(9)]
    b = [(i * 3 + 1) % 5 for i in range(9)]
    acc = 0
    for t in range(ROUNDS):
        prod = [0] * 17
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = tuple(v % 5 for v in prod)
        acc += out[t % 17]
        a = list(out[:9])
        a[0] += 1
    return acc


class Timing:
    """Result of one calibrated measurement."""
    raw: float = 0.0      # seconds, less the kernel's own time
    scaled: float = 0.0   # seconds at the reference speed


class Calibrator:
    """Times calls and scales them by the kernel speed measured around
    them.  Use one per process, from the main thread."""

    def __init__(self):
        self.recent: deque = deque(maxlen=WINDOW)
        self.all: list = []
        self._during = None

    def sample(self) -> float:
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        self.recent.append(took)
        self.all.append(took)
        if self._during is not None:
            self._during.append(took)
        return took

    def _tick(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def timing(self, sample_during: bool = True):
        """Measure the block.  Set ``sample_during`` false where the
        kernel must not run inside the block, as in traced work."""
        self.sample()
        before = list(self.recent)
        during = self._during = []
        result = Timing()
        previous = None
        if sample_during:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = perf_counter()
        try:
            yield result
        finally:
            end = perf_counter()
            if sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self._during = None
            after = self.sample()
        result.raw = end - start - sum(during)
        speed = statistics.median(before + during + [after])
        result.scaled = result.raw * REFERENCE_S / speed
