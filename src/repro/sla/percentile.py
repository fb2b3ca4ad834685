"""Percentile performance goal (metric 4 in Section 2).

The application requires that at least ``percent``% of the workload's queries
finish within ``deadline`` seconds.  Following Section 3, the violation period
is the amount of time by which the requirement is missed: we measure it as the
overage of the ``percent``-th percentile latency beyond the deadline (if that
percentile finishes in time, the requirement holds and there is no penalty).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from repro import config
from repro.core.outcome import QueryOutcome
from repro.exceptions import GoalError
from repro.sla.accumulators import PercentileViolationAccumulator
from repro.sla.base import PerformanceGoal, latencies
from repro.workloads.templates import TemplateSet


class PercentileGoal(PerformanceGoal):
    """At least ``percent``% of queries must finish within ``deadline`` seconds."""

    kind = "percentile"

    #: The bound below only reads latencies through sorting and rank selection,
    #: so it is invariant (bit-for-bit) under permutations of the assigned
    #: latencies; the search may memoise it per latency multiset.
    future_bound_order_invariant = True

    def __init__(
        self,
        percent: float = config.DEFAULT_PERCENTILE,
        deadline: float = config.DEFAULT_PERCENTILE_DEADLINE,
        penalty_rate: float = config.DEFAULT_PENALTY_RATE,
    ) -> None:
        super().__init__(penalty_rate)
        if not 0 < percent <= 100:
            raise GoalError("percent must be within (0, 100]")
        if deadline <= 0:
            raise GoalError("percentile deadline must be positive")
        self._percent = float(percent)
        self._deadline = float(deadline)

    @property
    def percent(self) -> float:
        """The fraction (in percent) of queries that must meet the deadline."""
        return self._percent

    @property
    def deadline(self) -> float:
        """The latency bound that the percentile must meet, in seconds."""
        return self._deadline

    def percentile_latency(self, outcomes: Sequence[QueryOutcome]) -> float:
        """The observed ``percent``-th percentile latency of *outcomes*."""
        values = sorted(latencies(outcomes))
        if not values:
            return 0.0
        # Index of the smallest latency such that `percent`% of queries are
        # at or below it (nearest-rank definition).
        rank = max(1, math.ceil(self._percent / 100.0 * len(values)))
        return values[rank - 1]

    def violation_period(self, outcomes: Sequence[QueryOutcome]) -> float:
        """Overage of the ``percent``-th percentile latency beyond the deadline."""
        if not outcomes:
            return 0.0
        return max(0.0, self.percentile_latency(outcomes) - self._deadline)

    def accumulator(self) -> PercentileViolationAccumulator:
        """Incremental violation tracker over the sorted observed latencies."""
        return PercentileViolationAccumulator(self._percent, self._deadline)

    def derived_aux_deadline(self, aux_goal) -> float | None:
        """Old goals sharing ``percent`` read the same rank statistic.

        The sorted-latency state (and the nearest-rank selection) depends only
        on ``percent``, so an old goal that differs by deadline alone needs no
        second sorted list — which matters: cloning the percentile state per
        placement edge is exactly as expensive as the recomputation the
        auxiliary accumulator is meant to avoid.
        """
        if aux_goal.kind == self.kind and aux_goal.percent == self._percent:
            return aux_goal.deadline
        return None

    def at_least_as_strict_as(self, other: PerformanceGoal) -> bool:
        """Same percentile as well: a lower one reads a smaller rank latency."""
        return super().at_least_as_strict_as(other) and self._percent == other._percent

    def ordering_horizon(
        self, queue_template_names: Sequence[str], candidate_template_name: str
    ) -> float:
        """Shortest-query-first within a VM always (weakly) dominates.

        The percentile latency is monotone in every individual latency, and
        swapping two adjacent queries so the shorter one runs first makes the
        pair's latency multiset element-wise smaller while leaving every other
        completion unchanged.  An optimal schedule therefore always exists with
        each VM's queue sorted by execution time, so the search only explores
        canonical queues.
        """
        return float("inf")

    def future_cost_lower_bound(
        self,
        assigned_latencies: Sequence[float],
        remaining_latency_bounds: Sequence[float],
        min_startup_cost: float,
    ) -> float:
        """Provisioning/penalty trade-off bound for percentile goals.

        With ``v`` usable machines, the ``i``-th smallest completion time of
        the remaining queries is at least the sum of the ``ceil(i / v)``
        shortest remaining execution times (some machine must run that many of
        the ``i`` earliest-finishing queries back to back).  Merging those
        per-rank lower bounds with the already-fixed latencies bounds the final
        percentile latency from below, and minimising over the number of extra
        VMs (each costing a start-up fee) yields an admissible estimate of the
        cost still to be paid.
        """
        remaining = sorted(remaining_latency_bounds)
        total = len(assigned_latencies) + len(remaining)
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(self._percent / 100.0 * total))
        if not remaining:
            merged = sorted(assigned_latencies)
            return self._penalty_rate * max(0.0, merged[rank - 1] - self._deadline)

        prefix = [0.0]
        prefix.extend(itertools.accumulate(remaining))

        # The A* search evaluates this bound once per generated vertex, so the
        # rank statistic is selected with a lazy two-pointer walk instead of
        # materialising and sorting the merged latency list for every candidate
        # VM count.  The per-rank completion bounds prefix[ceil(i / machines)]
        # are non-decreasing in i, so the walk visits them in sorted order.
        assigned = sorted(assigned_latencies)
        num_assigned = len(assigned)
        num_remaining = len(remaining)
        deadline = self._deadline
        rate = self._penalty_rate
        infinity = float("inf")
        # Number of union elements strictly above the selected rank.  High
        # percentiles sit near the top of the distribution (drop = 0 for the
        # default 90% goal on 8-query samples), so selecting downwards from the
        # maximum takes drop + 1 steps instead of rank steps.
        drop = total - rank
        top_down = drop + 1 < rank
        best = infinity
        for extra_vms in range(0, num_remaining + 1):
            if extra_vms * min_startup_cost >= best:
                # Start-up fees alone already match the best candidate, and
                # they only grow with more VMs; the minimum cannot improve.
                break
            machines = extra_vms + 1
            value = 0.0
            if top_down:
                i = num_assigned - 1
                j = num_remaining - 1
                for _ in range(drop + 1):
                    a = assigned[i] if i >= 0 else -infinity
                    b = prefix[-(-(j + 1) // machines)] if j >= 0 else -infinity
                    if a >= b:
                        value = a
                        i -= 1
                    else:
                        value = b
                        j -= 1
            else:
                i = 0
                j = 0
                block = 1
                used = 0
                for _ in range(rank):
                    a = assigned[i] if i < num_assigned else infinity
                    b = prefix[block] if j < num_remaining else infinity
                    if a <= b:
                        value = a
                        i += 1
                    else:
                        value = b
                        j += 1
                        used += 1
                        if used == machines:
                            used = 0
                            block += 1
            violation = max(0.0, value - deadline)
            cost = extra_vms * min_startup_cost + rate * violation
            best = min(best, cost)
            if violation == 0.0:
                break
        return best

    @property
    def is_monotonic(self) -> bool:
        """Adding a fast query can push slow queries outside the percentile."""
        return False

    @property
    def is_linearly_shiftable(self) -> bool:
        """Queueing delay does not translate into a uniform deadline shift."""
        return False

    def strictest_value(self, templates: TemplateSet) -> float:
        """The longest template latency (every query can be made to meet it)."""
        return templates.max_latency()

    def to_dict(self) -> dict:
        """JSON-serializable representation including the percentile itself."""
        return {
            "kind": self.kind,
            "percent": self._percent,
            "deadline": self._deadline,
            "penalty_rate": self.penalty_rate,
        }

    def with_deadline(self, deadline: float) -> "PercentileGoal":
        return PercentileGoal(
            percent=self._percent, deadline=deadline, penalty_rate=self.penalty_rate
        )

    @classmethod
    def from_factor(
        cls,
        templates: TemplateSet,
        percent: float = config.DEFAULT_PERCENTILE,
        factor: float = 2.5,
        penalty_rate: float = config.DEFAULT_PENALTY_RATE,
    ) -> "PercentileGoal":
        """Deadline = *factor* times the mean template latency (Section 7.1)."""
        return cls(
            percent=percent,
            deadline=factor * templates.average_latency(),
            penalty_rate=penalty_rate,
        )
