"""Machine-speed probe, so timings read the same on a busy shared machine.

The CPUs here are shared with other tenants, and the speed they give one
process drifts by 30 % and more over tens of seconds: the same ``check``
request, repeated for minutes, took between 0.31 s and 0.60 s, in CPU time
as much as in wall time.  A fixed kernel timed alongside drifts with it.

Four kernels were tried: small-integer and container code, big-integer
arithmetic, numpy calls on small arrays, and tuple interning.  Over 16
census runs and 14 catalog runs spread across an hour, the spread
(interquartile range over median) of the raw request time was 25 % and
22 %; scaled by the container kernel below it was 10 % and 11 %, and by
the geometric mean of all four 17 % and 14 %.  The other kernels sped up
more than the program did when the machine got faster.

:class:`SpeedProbe` times the kernel from a SIGALRM handler every
``INTERVAL_S`` seconds.  :meth:`SpeedProbe.reference_seconds` turns a wall
interval into reference seconds: the interval minus the probe's own time,
divided by the kernel's median time around the interval over
``REFERENCE_S``.  That is the time the work would take on a machine where
the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05
MARGIN_S = 0.5
REFERENCE_S = 0.0005


def kernel() -> int:
    """Fixed work: small-integer arithmetic, dict and list traffic, a sort."""
    acc = 0
    table = {}
    items = []
    for i in range(1500):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
        items.append(acc & 1023)
    items.sort()
    return acc + len(table) + items[len(items) // 2]


class SpeedProbe:
    """Context manager: samples the kernel's time while it is entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.on_busy = None  # called with each sample's duration

    def _tick(self, signum, frame) -> None:
        began = time.monotonic()
        kernel()
        self.starts.append(began)
        self.durations.append(time.monotonic() - began)
        if self.on_busy is not None:
            self.on_busy(self.durations[-1])

    def burst(self, count: int) -> None:
        """Take ``count`` samples now, back to back."""
        for _ in range(count):
            self._tick(None, None)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, began: float, ended: float) -> float | None:
        """Kernel time over ``REFERENCE_S`` near an interval, or None.

        The kernel's time is its median over the samples taken within
        ``MARGIN_S`` of the interval, so one sample slowed by a context
        switch cannot skew a short request.
        """
        lo = bisect.bisect_left(self.starts, began - MARGIN_S)
        hi = bisect.bisect_right(self.starts, ended + MARGIN_S)
        if lo == hi:
            return None
        return statistics.median(self.durations[lo:hi]) / REFERENCE_S

    def wall_seconds(self, began: float, ended: float) -> float:
        """Wall time of the interval minus the probe's own time inside it."""
        lo = bisect.bisect_left(self.starts, began)
        hi = bisect.bisect_left(self.starts, ended)
        return ended - began - sum(self.durations[lo:hi])

    def reference_seconds(self, began: float, ended: float) -> float:
        """Reference seconds of the ``time.monotonic`` interval [began, ended].

        With no sample near the interval the wall time is returned unscaled.
        """
        wall = self.wall_seconds(began, ended)
        slowdown = self.slowdown(began, ended)
        return wall if slowdown is None else wall / slowdown
