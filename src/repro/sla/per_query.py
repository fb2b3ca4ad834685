"""Per-query-deadline performance goal (metric 1 in Section 2).

Each query template has its own latency upper bound; every instance of the
template must finish within that bound.  The paper's default (Section 7.1)
sets each template's deadline to three times its expected latency.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro import config
from repro.core.outcome import QueryOutcome
from repro.exceptions import GoalError, UnknownTemplateError
from repro.sla.accumulators import PerQueryViolationAccumulator
from repro.sla.base import PerformanceGoal, left_sum
from repro.workloads.templates import TemplateSet


class PerQueryDeadlineGoal(PerformanceGoal):
    """Every query must finish within its template-specific deadline."""

    kind = "per_query"

    def __init__(
        self,
        deadlines: Mapping[str, float],
        penalty_rate: float = config.DEFAULT_PENALTY_RATE,
    ) -> None:
        super().__init__(penalty_rate)
        if not deadlines:
            raise GoalError("per-query goal requires at least one template deadline")
        for name, deadline in deadlines.items():
            if deadline <= 0:
                raise GoalError(f"deadline for template {name!r} must be positive")
        self._deadlines = dict(deadlines)
        # The table never changes, so neither does its mean.
        self._mean_deadline = left_sum(self._deadlines.values()) / len(self._deadlines)

    # -- deadline access -------------------------------------------------------

    @property
    def deadlines(self) -> Mapping[str, float]:
        """Per-template deadlines in seconds."""
        return dict(self._deadlines)

    def deadline_for(self, template_name: str) -> float:
        """Deadline of *template_name* (raises if the template has no deadline)."""
        try:
            return self._deadlines[template_name]
        except KeyError:
            raise UnknownTemplateError(template_name) from None

    @property
    def deadline(self) -> float:
        """Mean of the per-template deadlines (the goal's 'primary deadline')."""
        return self._mean_deadline

    # -- SLA semantics ---------------------------------------------------------

    def violation_period(self, outcomes: Sequence[QueryOutcome]) -> float:
        """Sum of per-query overages beyond each query's own deadline."""
        total = 0.0
        for outcome in outcomes:
            deadline = self._deadlines.get(outcome.template_name)
            if deadline is None:
                # Unknown templates (e.g. "aged" online templates) inherit the
                # closest known deadline policy upstream; be conservative here.
                deadline = self._mean_deadline
            total += max(0.0, outcome.latency - deadline)
        return total

    def accumulator(self) -> PerQueryViolationAccumulator:
        """Incremental violation tracker over a copy of this goal's per-template deadlines."""
        return PerQueryViolationAccumulator(self._deadlines, self._mean_deadline)

    def query_deadline(self, template_name: str) -> float:
        """The template's own deadline (mean deadline for unknown templates)."""
        return self._deadlines.get(template_name, self._mean_deadline)

    def at_least_as_strict_as(self, other: PerformanceGoal) -> bool:
        """Every template's own deadline must be no later, over the same templates.

        The mean deadline the base class compares says nothing pointwise: one
        deadline tripled and the rest scaled down lowers the mean while making
        that template's queries cheaper.
        """
        return (
            self.kind == other.kind
            and self.penalty_rate >= other.penalty_rate
            and self._deadlines.keys() == other._deadlines.keys()
            and all(
                deadline <= other._deadlines[name]
                for name, deadline in self._deadlines.items()
            )
        )

    @property
    def is_monotonic(self) -> bool:
        """Adding a query can only add violations, never remove them."""
        return True

    @property
    def is_linearly_shiftable(self) -> bool:
        """Waiting n seconds equals tightening every deadline by n seconds."""
        return True

    # -- goal algebra -----------------------------------------------------------

    def strictest_value(self, templates: TemplateSet) -> float:
        """Mean template latency: the tightest achievable mean deadline."""
        relevant = [
            templates[name].base_latency
            for name in self._deadlines
            if name in templates
        ]
        if not relevant:
            relevant = [t.base_latency for t in templates]
        return left_sum(relevant) / len(relevant)

    def with_deadline(self, deadline: float) -> "PerQueryDeadlineGoal":
        """Scale every per-template deadline so their mean equals *deadline*."""
        if deadline <= 0:
            raise GoalError("deadline must be positive")
        scale = deadline / self.deadline
        return PerQueryDeadlineGoal(
            {name: value * scale for name, value in self._deadlines.items()},
            penalty_rate=self.penalty_rate,
        )

    def shifted(self, delta: float) -> "PerQueryDeadlineGoal":
        """Tighten every template's deadline by *delta* seconds (linear shifting)."""
        return PerQueryDeadlineGoal(
            {name: max(1.0, value - delta) for name, value in self._deadlines.items()},
            penalty_rate=self.penalty_rate,
        )

    def to_dict(self) -> dict:
        """JSON-serializable representation (per-template deadlines, sorted)."""
        return {
            "kind": self.kind,
            "deadlines": dict(sorted(self._deadlines.items())),
            "penalty_rate": self.penalty_rate,
        }

    def with_extra_deadline(self, template_name: str, deadline: float) -> "PerQueryDeadlineGoal":
        """A copy that also covers *template_name* (used for online 'aged' templates)."""
        deadlines = dict(self._deadlines)
        deadlines[template_name] = deadline
        return PerQueryDeadlineGoal(deadlines, penalty_rate=self.penalty_rate)

    @classmethod
    def from_factor(
        cls,
        templates: TemplateSet,
        factor: float = config.DEFAULT_PER_QUERY_FACTOR,
        penalty_rate: float = config.DEFAULT_PENALTY_RATE,
    ) -> "PerQueryDeadlineGoal":
        """Deadline of each template = *factor* times its expected latency (Section 7.1)."""
        if factor <= 0:
            raise GoalError("factor must be positive")
        return cls(
            {t.name: factor * t.base_latency for t in templates},
            penalty_rate=penalty_rate,
        )
