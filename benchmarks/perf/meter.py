"""The host meter: a fixed probe interleaved with the timed work.

**Why times are scaled.**  The sandbox's cores change speed under the
benchmark: the same pure-Python loop takes 21 ms or 30 ms depending on what
the neighbouring hardware thread is doing, each core on its own schedule,
flipping every ten seconds or so.  Raw wall times of identical code then
differ by 15 % from run to run and by more between two sets of runs made
minutes apart.  :class:`HostMeter` therefore pins the run to one core,
interleaves a fixed *probe* (Python and numpy, no part of the program) with the
timed work every 0.15 s, and divides every measured duration by
``probe time now / probe time on the reference host``.  The raw durations
and the factors are kept in the ``--out`` file.

This module imports nothing of the program (numpy apart, which the program
needs too), so the probe can bracket the program's import.
"""

from __future__ import annotations

import gc
import heapq
import math
import os
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

#: How often the timed loops stop for a probe, seconds.
PROBE_EVERY = 0.15
#: Probes this close to an interval, in seconds, count towards its factor.
SMOOTH = 1.0

class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c) -> None:
        self.a = a
        self.b = b
        self.c = c


#: The row the probe's numpy third works on (the size of a feature row).
_ROW = np.linspace(0.1, 4.0, 40)


def _probe_work(objects: int = 3500, sums: int = 63_000, rows: int = 1750) -> int:
    """Fixed interpreter work in the program's proportions.

    A quarter objects, a heap and a dict; a quarter integer arithmetic; half
    small numpy calls on a 40-element row.  The weights come from regressing
    the serving, batch and training paths on the three parts over 40 minutes
    of this sandbox's noise: each path follows ``objects^0.2 · sums^0.2 ·
    rows^0.5`` to within 1 % per 10 s.  The numpy part matters most: one kind
    of neighbour slows the program by 1.3x and pure-Python loops by 1.15x,
    but small-array calls by 1.45x.
    """
    heap: list = []
    for index in range(objects):
        heapq.heappush(heap, (index * 7919 % 10007, index, _Cell(index, index + 1, [index])))
    order = []
    while heap:
        order.append(heapq.heappop(heap)[2].a)
    table = {value: position for position, value in enumerate(order)}
    total = 0
    for value in range(objects):
        total += table[value]
    for value in range(sums):
        total += value * value % 7
    row = _ROW
    for _ in range(rows):
        doubled = row * 2.0
        total += int(doubled.sum()) + int(np.argmin(doubled))
    return total


class HostMeter:
    """Times a fixed probe between slices of work and rescales durations by it."""

    #: Seconds the probe takes on the reference host (this sandbox's fast state).
    REFERENCE = 0.0112

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self._last = -math.inf

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            _probe_work()
            ended = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.at.append((started + ended) / 2.0)
        self.took.append(ended - started)
        self._last = ended

    def probe_if_due(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY:
            self.probe()

    def factor(self, started: float, ended: float) -> float:
        """How much slower than the reference the host ran over ``[started, ended]``.

        The mean of the probes from ``SMOOTH`` seconds before the interval to
        ``SMOOTH`` after it (a core keeps one speed for seconds at a time, and
        one 12 ms probe alone is too noisy to scale a 0.2 ms op by), or of
        the nearest probe on each side when that window is empty.
        """
        low = bisect_left(self.at, started - SMOOTH)
        high = bisect_right(self.at, ended + SMOOTH)
        if low == high:
            low, high = max(0, low - 1), min(len(self.at), high + 1)
        window = self.took[low:high]
        if not window:
            return 1.0
        return (sum(window) / len(window)) / self.REFERENCE

    def scaled(self, started: float, ended: float) -> float:
        """``ended - started`` as it would have read on the reference host."""
        return (ended - started) / self.factor(started, ended)

    def calib_ms(self) -> float:
        return statistics.median(self.took) * 1e3 if self.took else 0.0


def pin_to_one_core() -> int | None:
    """Keep this process (and what it forks) on one core, so the probe and
    the work see the same core's speed.  Returns the core, or ``None``."""
    try:
        core = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {core})
        return core
    except (AttributeError, OSError):
        return None
