"""The host's pace during a pass, and pass times at a fixed pace.

On a shared host the speed of one core drifts by 20-60 % within seconds
to minutes, as other tenants come and go.  A run of a few dozen seconds
cannot average that away, so raw pass times of the same code spread past
any useful bound from one run to the next.

While a pass runs, an interval timer interrupts it every PERIOD_S seconds
of wall time, and the handler times a fixed kernel that shares no code with
berngen: a pure-Python arithmetic loop and a loop of numpy calls on a
5-element array, the two kinds of work berngen's passes are made of.  The
kernel's duration tracks the pace of the host at that moment.  A paced
time is the pass's own time (the handler's time taken out) multiplied by
REFERENCE_KERNEL_S / kernel duration, averaged over the samples that fall
inside the interval.  It reads "seconds at the pace at
which the kernel takes REFERENCE_KERNEL_S".  A slower program gives a
proportionally larger paced time; a slower host does not.

The handler runs between bytecodes of the main thread, so a long C call
(a dense LAPACK routine) defers it until the call returns; its samples are
then fewer, not wrong.  Nothing in berngen uses SIGALRM.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

#: wall-clock seconds between two kernel samples
PERIOD_S = 0.05

#: the kernel's duration on a quiet 2-core x86-64 box (Python 3.11,
#: numpy 2.4); paced times are seconds at that pace
REFERENCE_KERNEL_S = 3.5e-4

_SMALL = np.arange(5) + 1j


def kernel() -> None:
    """A fixed loop of about REFERENCE_KERNEL_S.

    Timed alone, the arithmetic half tracked the paces of scalar-table
    and krylov-table passes but missed part of the slowdown of
    trajectory's plan build, which is made of small numpy calls; the
    numpy half alone over-corrected krylov-table.  Together they tracked
    all three best.
    """
    s = 0.0
    for i in range(1, 1500):
        s += math.exp(-1.0 / i)
    a = _SMALL.copy()
    for _ in range(30):
        jp = int(np.argmax(np.abs(a[1:4])))
        a[1:3] /= a[jp]
        a[2:4] -= a[1:3] * 0.5


class Pace:
    """Samples the kernel while active; use as a context manager.

    mark() notes a moment; net(), factor() and seconds() turn two marks
    into raw and paced durations.
    """

    def __init__(self):
        self.samples = []  # (wall time at the end, kernel seconds)
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))
        self.spent += t1 - t0

    def __enter__(self) -> "Pace":
        self._tick(None, None)  # so that every pass has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        """(wall time, handler seconds so far) at this moment."""
        return perf_counter(), self.spent

    @staticmethod
    def net(a: tuple, b: tuple) -> float:
        """Wall seconds from mark a to mark b, handler time taken out."""
        return (b[0] - a[0]) - (b[1] - a[1])

    def seconds(self, a: tuple, b: tuple) -> float:
        """Paced seconds from mark a to mark b."""
        return self.net(a, b) * self.factor(a[0], b[0])

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_KERNEL_S times the mean kernel speed in [t0, t1].

        The mean of 1 / duration weights each sample by the work the host
        did per second at that moment.  An interval too short to hold a
        sample takes the factor of the whole pass so far.
        """
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if not inside:
            inside = [d for _, d in self.samples]
        return REFERENCE_KERNEL_S * statistics.fmean(1.0 / d for d in inside)
