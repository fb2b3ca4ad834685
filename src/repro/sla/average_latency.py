"""Average-latency performance goal (metric 3 in Section 2).

The application bounds the *average* latency of the workload.  The violation
period is the difference between the observed average latency and the desired
bound (Section 3), so adding a short query to a schedule can lower the average
and therefore the penalty — the canonical example of a goal that is *not*
monotonically increasing, which forces the A* search onto the null heuristic
(Section 4.3).
"""

from __future__ import annotations

from typing import Sequence

from repro import config
from repro.core.outcome import QueryOutcome
from repro.exceptions import GoalError
from repro.sla.accumulators import AverageLatencyViolationAccumulator
from repro.sla.base import PerformanceGoal, latencies, left_sum
from repro.workloads.templates import TemplateSet


class AverageLatencyGoal(PerformanceGoal):
    """The mean latency of the workload must not exceed ``deadline`` seconds."""

    kind = "average"

    def __init__(
        self,
        deadline: float = config.DEFAULT_AVERAGE_DEADLINE,
        penalty_rate: float = config.DEFAULT_PENALTY_RATE,
    ) -> None:
        super().__init__(penalty_rate)
        if deadline <= 0:
            raise GoalError("average-latency deadline must be positive")
        self._deadline = float(deadline)

    @property
    def deadline(self) -> float:
        """The bound on the workload's mean latency, in seconds."""
        return self._deadline

    def violation_period(self, outcomes: Sequence[QueryOutcome]) -> float:
        """Amount by which the observed mean latency exceeds the bound."""
        values = latencies(outcomes)
        if not values:
            return 0.0
        average = left_sum(values) / len(values)
        return max(0.0, average - self._deadline)

    def accumulator(self) -> AverageLatencyViolationAccumulator:
        """Incremental violation tracker over the running mean latency."""
        return AverageLatencyViolationAccumulator(self._deadline)

    def future_cost_lower_bound(
        self,
        state: tuple[float, int],
        remaining_latency_bounds: Sequence[float],
        min_startup_cost: float,
    ) -> float:
        """Provisioning/penalty trade-off bound for the average-latency goal.

        *state* is the accumulator's total latency and count so far.
        Running the remaining queries on ``v`` parallel fresh VMs, the
        minimum achievable sum of their completion times is the classic
        ``P || sum C_j`` bound: process in shortest-first order, so the i-th
        shortest of ``n`` queries has at least ``floor((n - i) / v) + 1``
        queries (including itself) finishing no earlier than it.  Minimising
        over the number of extra VMs (each costing a start-up fee) yields an
        admissible estimate of the future penalty-plus-provisioning cost.
        """
        assigned_total, assigned_count = state
        remaining = sorted(remaining_latency_bounds)
        count = assigned_count + len(remaining)
        if count == 0:
            return 0.0
        if not remaining:
            return self._penalty_rate * max(0.0, assigned_total / count - self._deadline)

        best = float("inf")
        for extra_vms in range(0, len(remaining) + 1):
            # The most recent VM can also absorb remaining work, so `extra_vms`
            # new rentals give `extra_vms + 1` usable machines (their current
            # busy time is ignored, which keeps the bound admissible).
            machines = extra_vms + 1
            # left_sum's fold, inline: the search calls this bound per memo
            # miss, and a generator would cost a third of its time.
            completion_sum = 0.0
            for index, latency in enumerate(remaining):
                completion_sum += latency * ((len(remaining) - index - 1) // machines + 1)
            average = (assigned_total + completion_sum) / count
            violation = max(0.0, average - self._deadline)
            cost = extra_vms * min_startup_cost + self._penalty_rate * violation
            best = min(best, cost)
            if violation == 0.0:
                # Adding more VMs can only add start-up fees from here on.
                break
        return best

    @property
    def is_monotonic(self) -> bool:
        """Adding a short query may lower the average, hence the penalty."""
        return False

    @property
    def is_linearly_shiftable(self) -> bool:
        """Queueing delay does not translate into a uniform deadline shift."""
        return False

    def strictest_value(self, templates: TemplateSet) -> float:
        """The mean template latency: no average below it is achievable."""
        return templates.average_latency()

    def with_deadline(self, deadline: float) -> "AverageLatencyGoal":
        return AverageLatencyGoal(deadline=deadline, penalty_rate=self.penalty_rate)

    @classmethod
    def from_factor(
        cls,
        templates: TemplateSet,
        factor: float = 2.5,
        penalty_rate: float = config.DEFAULT_PENALTY_RATE,
    ) -> "AverageLatencyGoal":
        """Deadline = *factor* times the mean template latency (Section 7.1)."""
        return cls(
            deadline=factor * templates.average_latency(), penalty_rate=penalty_rate
        )
