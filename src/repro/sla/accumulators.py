"""Incremental violation-period accumulators.

The offline search works on small sample workloads, so re-evaluating a goal's
violation period from scratch at every vertex is cheap.  The *runtime*
scheduler, however, walks workloads of tens of thousands of queries (Figure 17
schedules 30,000), and the ``cost-of-X`` feature needs the marginal penalty of
a hypothetical placement at every step.  Recomputing the violation period over
all previously placed queries would make scheduling quadratic.

Each accumulator maintains just enough state to answer two questions in O(1)
or O(log n):

* what is the violation period of everything placed so far, and
* what would it become if one more query (of a given template, with a given
  latency) were placed?

The accumulators mirror the violation-period definitions of Section 3 exactly,
and the property-based tests assert they agree with the batch definitions.

The *offline* A* search uses them too: it prices every child with the
parent's non-mutating :meth:`~ViolationAccumulator.violation_with`, and every
:class:`~repro.search.problem.SearchNode` it builds — only the children it
pops — carries an accumulator describing its partial schedule, obtained by
:meth:`ViolationAccumulator.branch`-ing the parent's and recording the one new
placement.  ``branch`` is copy-on-write — branching is O(1) and the underlying
state is only cloned when a branch actually mutates — so carrying an
accumulator per built vertex costs O(1) extra for every goal except the
percentile goal (whose sorted-latency state is cloned lazily on the first
``add`` after a branch).

*Training* prices ``cost-of-X`` for every vertex of a pass at once.  Besides
the template and the completion time, :meth:`~ViolationAccumulator.violation_with`
reads two floats of the state, its :meth:`~ViolationAccumulator.edge_summary`:
a training walk records them per vertex, and
:meth:`~ViolationAccumulator.violation_with_array`, the array twin of
``violation_with``, prices every recorded vertex × template in one numpy
expression, bit for bit as the scalar would.  ``max(0.0, x)`` is spelled
``np.where(x > 0.0, x, 0.0)`` there: ``np.maximum`` may return ``-0.0``
where Python returns ``0.0``.

The two non-monotonic accumulators also hold their goal's *state*: what the
goal's A* cost-to-go reads of the placements so far
(:meth:`~repro.sla.base.PerformanceGoal.future_cost_lower_bound`), and the
memo key of that bound — average's latency total and count, percentile's
sorted latencies as a tuple.  ``state()`` reads it, and ``state_with``, like
``violation_with``, reads a child's that is priced but not built yet.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

_INF = float("inf")


class ViolationAccumulator(ABC):
    """Incrementally tracks a goal's violation period as queries are placed."""

    __slots__ = ()

    @abstractmethod
    def add(self, template_name: str, latency: float) -> None:
        """Record that a query of *template_name* completed with *latency*."""

    @abstractmethod
    def violation(self) -> float:
        """Violation period (seconds) of everything recorded so far."""

    @abstractmethod
    def violation_with(self, template_name: str, latency: float) -> float:
        """Violation period if one more query were recorded (non-mutating)."""

    @abstractmethod
    def edge_summary(self) -> tuple[float, float]:
        """The two floats :meth:`violation_with` reads of the state.

        Whatever the template and latency asked about: what a training walk
        records per vertex for :meth:`violation_with_array`.
        """

    @abstractmethod
    def violation_with_array(
        self, summaries: np.ndarray, template_names: Sequence[str], latencies: np.ndarray
    ) -> np.ndarray:
        """:meth:`violation_with` of many states and templates at once (non-mutating).

        *summaries* holds one :meth:`edge_summary` per row, *latencies* one
        column per entry of *template_names*.  Element ``[i, j]`` equals, bit
        for bit, ``violation_with(template_names[j], latencies[i, j])`` of the
        state whose summary is row ``i``, of an accumulator of this one's
        goal.  This accumulator's own state is not read.
        """

    @abstractmethod
    def copy(self) -> "ViolationAccumulator":
        """An independent copy of the accumulator's state."""

    def branch(self) -> "ViolationAccumulator":
        """A copy-on-write clone, safe to mutate without affecting this one.

        The default implementation falls back to an eager :meth:`copy`;
        accumulators with non-trivial state (the percentile goal's sorted
        latency list) override it to share state until the clone mutates.
        """
        return self.copy()


class PerQueryViolationAccumulator(ViolationAccumulator):
    """Accumulator for per-query-deadline goals (and max-latency as a special case)."""

    __slots__ = ("_deadlines", "_default_deadline", "_violation")

    def __init__(self, deadlines: dict[str, float], default_deadline: float) -> None:
        self._deadlines = dict(deadlines)
        self._default_deadline = default_deadline
        self._violation = 0.0

    def _overage(self, template_name: str, latency: float) -> float:
        overage = latency - self._deadlines.get(template_name, self._default_deadline)
        return overage if overage > 0.0 else 0.0

    def add(self, template_name: str, latency: float) -> None:
        self._violation += self._overage(template_name, latency)

    def violation(self) -> float:
        return self._violation

    def violation_with(self, template_name: str, latency: float) -> float:
        # The overage inlined: one call per cost-of-X a decision tests.
        overage = latency - self._deadlines.get(template_name, self._default_deadline)
        return self._violation + (overage if overage > 0.0 else 0.0)

    def edge_summary(self) -> tuple[float, float]:
        """The violation so far (and an unused ``0.0``)."""
        return self._violation, 0.0

    def violation_with_array(
        self, summaries: np.ndarray, template_names: Sequence[str], latencies: np.ndarray
    ) -> np.ndarray:
        """Violation so far plus each column's overage⁺ past its template's deadline."""
        deadlines = self._deadlines
        default = self._default_deadline
        overage = latencies - np.array(
            [deadlines.get(name, default) for name in template_names], dtype=np.float64
        )
        return summaries[:, :1] + np.where(overage > 0.0, overage, 0.0)

    def copy(self) -> "PerQueryViolationAccumulator":
        # The deadline table is never mutated, so clones share it; the A*
        # search branches an accumulator per placement edge and a per-clone
        # dict copy would dominate the branch cost.
        clone = object.__new__(type(self))
        clone._deadlines = self._deadlines
        clone._default_deadline = self._default_deadline
        clone._violation = self._violation
        return clone


class MaxLatencyViolationAccumulator(PerQueryViolationAccumulator):
    """Accumulator for max-latency goals: one shared deadline for every template."""

    __slots__ = ()

    def __init__(self, deadline: float) -> None:
        super().__init__({}, deadline)


class AverageLatencyViolationAccumulator(ViolationAccumulator):
    """Accumulator for average-latency goals: tracks the running mean."""

    __slots__ = ("_deadline", "_total", "_count")

    def __init__(self, deadline: float) -> None:
        self._deadline = deadline
        self._total = 0.0
        self._count = 0

    def add(self, template_name: str, latency: float) -> None:
        self._total += latency
        self._count += 1

    def violation(self) -> float:
        if self._count == 0:
            return 0.0
        return max(0.0, self._total / self._count - self._deadline)

    def violation_with(self, template_name: str, latency: float) -> float:
        total = self._total + latency
        count = self._count + 1
        return max(0.0, total / count - self._deadline)

    def edge_summary(self) -> tuple[float, float]:
        """The total latency and the count so far."""
        return self._total, float(self._count)

    def state(self) -> tuple[float, int]:
        """The total latency, a left fold of ``+=``, and the count so far."""
        return self._total, self._count

    def state_with(self, latency: float) -> tuple[float, int]:
        """:meth:`state` if one more query were recorded (non-mutating)."""
        return self._total + latency, self._count + 1

    def violation_with_array(
        self, summaries: np.ndarray, template_names: Sequence[str], latencies: np.ndarray
    ) -> np.ndarray:
        """``((total + t) / (count + 1) − deadline)⁺`` per element."""
        excess = (summaries[:, :1] + latencies) / (summaries[:, 1:] + 1.0) - self._deadline
        return np.where(excess > 0.0, excess, 0.0)

    def copy(self) -> "AverageLatencyViolationAccumulator":
        clone = object.__new__(AverageLatencyViolationAccumulator)
        clone._deadline = self._deadline
        clone._total = self._total
        clone._count = self._count
        return clone


class PercentileViolationAccumulator(ViolationAccumulator):
    """Accumulator for percentile goals: keeps latencies sorted for rank queries.

    The sorted list is shared copy-on-write between an accumulator and its
    :meth:`branch`-es: branching only sets a flag, and the list is cloned on
    the first subsequent :meth:`add`.  The A* search branches once per
    placement child it builds and adds exactly one latency to each branch, so
    the clone is O(n) per built placement rather than per penalty evaluation.
    """

    __slots__ = ("_percent", "_deadline", "_latencies", "_shared")

    def __init__(self, percent: float, deadline: float) -> None:
        self._percent = percent
        self._deadline = deadline
        self._latencies: list[float] = []
        self._shared = False

    def _percentile(self, latencies: list[float]) -> float:
        if not latencies:
            return 0.0
        rank = max(1, math.ceil(self._percent / 100.0 * len(latencies)))
        return latencies[rank - 1]

    def add(self, template_name: str, latency: float) -> None:
        if self._shared:
            self._latencies = list(self._latencies)
            self._shared = False
        bisect.insort(self._latencies, latency)

    def violation(self) -> float:
        if not self._latencies:
            return 0.0
        return max(0.0, self._percentile(self._latencies) - self._deadline)

    def violation_with(self, template_name: str, latency: float) -> float:
        # Hypothetical insertion: find the percentile of the list as if the new
        # latency were present, without actually mutating the sorted list.
        size = len(self._latencies) + 1
        rank = max(1, math.ceil(self._percent / 100.0 * size))
        insert_at = bisect.bisect_right(self._latencies, latency)
        if rank - 1 < insert_at:
            value = self._latencies[rank - 1]
        elif rank - 1 == insert_at:
            value = latency
        else:
            value = self._latencies[rank - 2]
        return max(0.0, value - self._deadline)

    def edge_summary(self) -> tuple[float, float]:
        """The sorted latencies at 0-based positions ``r − 2`` and ``r − 1``.

        ``r`` is the percentile's rank in a list of one more latency, the
        one :meth:`violation_with` asks about; a position outside the list
        reads ``-inf`` (below) or ``inf`` (above).  The new latency's rank
        value is then whichever of the three sits in the middle.
        """
        latencies = self._latencies
        rank = max(1, math.ceil(self._percent / 100.0 * (len(latencies) + 1)))
        return (
            latencies[rank - 2] if rank >= 2 else -_INF,
            latencies[rank - 1] if rank <= len(latencies) else _INF,
        )

    def state(self) -> tuple[float, ...]:
        """The latencies so far, sorted."""
        return tuple(self._latencies)

    def state_with(self, latency: float) -> tuple[float, ...]:
        """:meth:`state` if one more query were recorded (non-mutating)."""
        latencies = self._latencies.copy()
        bisect.insort(latencies, latency)
        return tuple(latencies)

    def violation_with_array(
        self, summaries: np.ndarray, template_names: Sequence[str], latencies: np.ndarray
    ) -> np.ndarray:
        """``(clamp(t, below, at) − deadline)⁺`` per element, ties as ``bisect_right``."""
        below = summaries[:, :1]
        at = summaries[:, 1:]
        # A stored latency equal to t sorts before it, as bisect_right puts it.
        value = np.where(at <= latencies, at, np.where(below <= latencies, latencies, below))
        excess = value - self._deadline
        return np.where(excess > 0.0, excess, 0.0)

    def copy(self) -> "PercentileViolationAccumulator":
        clone = PercentileViolationAccumulator(self._percent, self._deadline)
        clone._latencies = list(self._latencies)
        return clone

    def branch(self) -> "PercentileViolationAccumulator":
        clone = object.__new__(PercentileViolationAccumulator)
        clone._percent = self._percent
        clone._deadline = self._deadline
        clone._latencies = self._latencies
        clone._shared = True
        self._shared = True
        return clone
