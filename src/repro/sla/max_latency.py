"""Max-latency performance goal (metric 2 in Section 2).

The application requires that no query in the workload exceed a single latency
bound.  The violation period is the sum, over violating queries, of the time
between the missed deadline and the query's completion — identical to a
per-query deadline where every template shares the same bound.
"""

from __future__ import annotations

from typing import Sequence

from repro import config
from repro.core.outcome import QueryOutcome
from repro.exceptions import GoalError
from repro.sla.accumulators import MaxLatencyViolationAccumulator
from repro.sla.base import PerformanceGoal, left_sum
from repro.workloads.templates import TemplateSet


class MaxLatencyGoal(PerformanceGoal):
    """No query's latency may exceed ``deadline`` seconds."""

    kind = "max"

    def __init__(
        self,
        deadline: float = config.DEFAULT_MAX_LATENCY_DEADLINE,
        penalty_rate: float = config.DEFAULT_PENALTY_RATE,
    ) -> None:
        super().__init__(penalty_rate)
        if deadline <= 0:
            raise GoalError("max-latency deadline must be positive")
        self._deadline = float(deadline)

    @property
    def deadline(self) -> float:
        """The workload-wide latency bound in seconds."""
        return self._deadline

    def violation_period(self, outcomes: Sequence[QueryOutcome]) -> float:
        """Sum of per-query overages beyond the deadline."""
        return left_sum(
            max(0.0, outcome.latency - self._deadline) for outcome in outcomes
        )

    def accumulator(self) -> MaxLatencyViolationAccumulator:
        """Incremental violation tracker sharing this goal's deadline."""
        return MaxLatencyViolationAccumulator(self._deadline)

    def query_deadline(self, template_name: str) -> float:
        """Every query shares the same workload-wide deadline."""
        return self._deadline

    @property
    def is_monotonic(self) -> bool:
        """Adding a query can only add violations, never remove them."""
        return True

    @property
    def is_linearly_shiftable(self) -> bool:
        """Waiting n seconds is exactly a deadline tightened by n seconds."""
        return True

    def strictest_value(self, templates: TemplateSet) -> float:
        """The longest template latency: no deadline below it is achievable."""
        return templates.max_latency()

    def with_deadline(self, deadline: float) -> "MaxLatencyGoal":
        return MaxLatencyGoal(deadline=deadline, penalty_rate=self.penalty_rate)

    @classmethod
    def from_factor(
        cls,
        templates: TemplateSet,
        factor: float = 2.5,
        penalty_rate: float = config.DEFAULT_PENALTY_RATE,
    ) -> "MaxLatencyGoal":
        """Deadline = *factor* times the longest template latency (Section 7.1)."""
        return cls(deadline=factor * templates.max_latency(), penalty_rate=penalty_rate)
