"""A clock that runs at a fixed nominal machine speed.

The benchmark shares a few cores of a host with other work, and the
throughput of the core it runs on moves by up to a factor of two within
seconds and drifts over minutes, so wall time measures the neighbours
as much as the program.  :class:`Speedometer` measures that throughput
while the program runs: every :data:`INTERVAL_S` of wall time a
``SIGALRM`` handler runs a small fixed pure-Python :func:`kernel` and
times it.  The kernel is part of the benchmark, never of the library,
so it does the same work whatever the library does.  A sample runs the
kernel twice and times the second run: the first brings the kernel's
code and data back into the cache, so the sample measures the core's
speed, not how much of the cache the program left to the kernel.

:meth:`Speedometer.clock` is wall time with every kernel run taken out,
each interval between two samples scaled by the speed measured around
it: ``NOMINAL_KERNEL_S / kernel time``, smoothed over a few samples.  A
duration read from it is the time the program would have taken on a
machine where the kernel takes :data:`NOMINAL_KERNEL_S`.  The kernel
and the library slow down together when the host is busy, so the
normalized durations keep the program's own changes and lose most of
the host's.  :meth:`Speedometer.raw` is the same wall time, kernel runs
taken out, without the scaling.

:func:`clock` is the normalized clock of the speedometer that is
running, or ``time.perf_counter`` when none is.
"""

from __future__ import annotations

import signal
import statistics
import time
from types import TracebackType
from typing import Any, List, Optional, Type

__all__ = ["NOMINAL_KERNEL_S", "Speedometer", "clock", "kernel"]

#: the kernel's duration at nominal speed
NOMINAL_KERNEL_S = 150e-6
#: wall seconds between two speed samples
INTERVAL_S = 0.005
#: weight of the newest sample in the smoothed speed
SMOOTHING = 0.2
#: kernel runs that set the starting speed
WARMUP_RUNS = 21

_active: Optional["Speedometer"] = None


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def kernel() -> int:
    """Fixed pure-Python work: allocate objects, group them in a dict, sort, walk."""
    groups: dict = {}
    for i in range(200):
        cell = _Cell((i * 7919) % 211, i)
        groups.setdefault(cell.key, []).append(cell)
    total = 0
    for _, cells in sorted(groups.items()):
        for cell in cells:
            total += cell.key ^ cell.value
    return total


class Speedometer:
    """Samples the machine's speed while it is entered; see the module docstring.

    Only one speedometer runs at a time, on the main thread.
    """

    def __init__(self) -> None:
        self.kernel_s = 0.0
        self.samples = 0
        self.speed = 1.0
        self._virtual = 0.0
        self._mark = 0.0
        self._busy = False
        self._previous: Any = None

    def __enter__(self) -> "Speedometer":
        global _active
        if _active is not None:
            raise RuntimeError("a speedometer is already running")
        runs: List[float] = []
        for _ in range(WARMUP_RUNS):
            began = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - began)
        self.speed = NOMINAL_KERNEL_S / statistics.median(runs)
        self._mark = self.raw()
        self._virtual = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        _active = self
        return self

    def __exit__(
        self,
        kind: Optional[Type[BaseException]],
        error: Optional[BaseException],
        trace: Optional[TracebackType],
    ) -> None:
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        _active = None

    def _sample(self, signum: int, frame: Any) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            began = time.perf_counter()
            kernel()
            warm = time.perf_counter()
            kernel()
            ended = time.perf_counter()
            now = began - self.kernel_s
            self._virtual += (now - self._mark) * self.speed
            self._mark = now
            self.kernel_s += ended - began
            self.speed += SMOOTHING * (NOMINAL_KERNEL_S / (ended - warm) - self.speed)
            self.samples += 1
        finally:
            self._busy = False

    def raw(self) -> float:
        """Wall seconds with every kernel run taken out."""
        while True:
            spent = self.kernel_s
            now = time.perf_counter()
            if spent == self.kernel_s:
                return now - spent

    def clock(self) -> float:
        """Seconds at nominal speed."""
        while True:
            samples = self.samples
            virtual, mark, speed = self._virtual, self._mark, self.speed
            now = self.raw()
            if samples == self.samples:
                return virtual + (now - mark) * speed


def clock() -> float:
    """The running speedometer's normalized clock, else ``time.perf_counter``."""
    meter = _active
    return meter.clock() if meter is not None else time.perf_counter()
