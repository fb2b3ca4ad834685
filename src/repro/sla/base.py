"""Performance goals (SLAs): violation periods, penalties, and goal algebra.

A performance goal ``R`` (Section 2) constrains query latencies and is paired,
inside an SLA, with a penalty function that converts violations into money.
Following the paper (and the IaaS model it cites) penalties are charged per
unit of *violation period* — the amount of time the goal was not met — at a
fixed rate (1 cent/second by default, Section 7.1).

The goal classes implement three capabilities used elsewhere in the library:

* ``violation_period`` / ``penalty`` over a set of query outcomes — used both
  by the cost model (Equation 1) and by the scheduling-graph edge weights
  (Equation 2);
* ``is_monotonic`` — whether adding a query to a schedule can never decrease
  the penalty, which decides whether the A* search may use the admissible
  heuristic of Equation 3 (Section 4.3);
* goal *algebra* — tightening by a percentage (adaptive modeling, Section 5,
  and the strictness sweep of Figure 11) and shifting by a fixed time delta
  (the linear-shifting online optimization of Section 6.3.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro import config
from repro.core.outcome import QueryOutcome
from repro.exceptions import GoalError
from repro.sla.accumulators import ViolationAccumulator
from repro.workloads.templates import TemplateSet


class PerformanceGoal(ABC):
    """Base class for all performance goals."""

    #: Short machine-readable identifier (``"max"``, ``"per_query"``, ...).
    kind: str = "abstract"

    def __init__(self, penalty_rate: float = config.DEFAULT_PENALTY_RATE) -> None:
        if penalty_rate < 0:
            raise GoalError("penalty_rate must be non-negative")
        self._penalty_rate = penalty_rate

    # -- penalties -----------------------------------------------------------

    @property
    def penalty_rate(self) -> float:
        """Penalty accrued per second of violation, in cents."""
        return self._penalty_rate

    @abstractmethod
    def violation_period(self, outcomes: Sequence[QueryOutcome]) -> float:
        """Total violation period (seconds) of the goal over *outcomes*."""

    def penalty(self, outcomes: Sequence[QueryOutcome]) -> float:
        """Monetary penalty ``p(R, S)`` in cents for the given outcomes."""
        return self._penalty_rate * self.violation_period(outcomes)

    @abstractmethod
    def accumulator(self) -> ViolationAccumulator:
        """A fresh incremental violation accumulator for this goal.

        Used by the runtime scheduler to evaluate marginal penalties in O(1)
        or O(log n) per placement instead of rescanning every placed query
        (see :mod:`repro.sla.accumulators`).
        """

    # -- search guidance hooks --------------------------------------------------

    def query_deadline(self, template_name: str) -> float | None:
        """Deadline (seconds) an individual query of *template_name* must meet.

        Deadline-style goals (max latency, per-query deadlines) return the
        bound used to compute that query's violation; goals whose penalty is
        not separable per query return ``None``.  The optimal-schedule search
        uses the deadlines to apply an adjacent pairwise-interchange dominance
        rule on VM queues; for a goal with none it explores only
        shortest-first queues, so such a goal must never charge more for a
        queue sorted by execution time.
        """
        return None

    #: Whether :meth:`future_cost_lower_bound` returns bit-identical results for
    #: any permutation of ``assigned_latencies``.  Goals that only consume the
    #: latencies through order statistics (sorting/rank selection) set this to
    #: True, which lets the search memoise the bound by latency *multiset*;
    #: goals that sum latencies directly must leave it False (float addition is
    #: not associative, so permutations can differ in the last bits).
    future_bound_order_invariant: bool = False

    def future_cost_lower_bound(
        self,
        assigned_latencies: Sequence[float],
        remaining_latency_bounds: Sequence[float],
        min_startup_cost: float,
    ) -> float:
        """Lower bound (cents) on the penalty-plus-provisioning cost still to come.

        Non-monotonic goals cannot carry their partial penalty in the search
        node's g-value, so this hook provides the admissible estimate used in
        its place.  The default of 0 is always admissible; the non-monotonic
        goals override it with a provisioning/penalty trade-off bound.
        """
        return 0.0

    # -- structural properties -----------------------------------------------

    @property
    @abstractmethod
    def is_monotonic(self) -> bool:
        """Whether the penalty can never decrease as queries are added.

        Monotonically increasing goals (per-query deadlines, max latency) let
        the A* search use the admissible cheapest-remaining-work heuristic of
        Equation 3; non-monotonic goals (average latency, percentile) fall
        back to the null heuristic (Section 4.3).
        """

    @property
    @abstractmethod
    def is_linearly_shiftable(self) -> bool:
        """Whether waiting ``n`` seconds equals tightening the goal by ``n`` seconds.

        Linearly shiftable goals (max latency, per-query deadlines) allow the
        online scheduler to replace model retraining with the cheaper adaptive
        shifting of Section 5 (Section 6.3.1).
        """

    # -- goal algebra ----------------------------------------------------------

    @abstractmethod
    def strictest_value(self, templates: TemplateSet) -> float:
        """The tightest achievable value of the goal's deadline for *templates*.

        Used by the tightening formula of Section 7.3:
        ``new = t + (g - t) * (1 - p)`` where ``t`` is this value and ``g`` the
        current deadline.
        """

    @abstractmethod
    def with_deadline(self, deadline: float) -> "PerformanceGoal":
        """A copy of this goal with its primary deadline replaced."""

    @property
    @abstractmethod
    def deadline(self) -> float:
        """The goal's primary deadline in seconds (template-averaged for per-query goals)."""

    def tightened(self, fraction: float, templates: TemplateSet) -> "PerformanceGoal":
        """Tighten the goal by *fraction* of its slack above the strictest value.

        ``fraction = 0`` returns an equivalent goal; ``fraction = 1`` returns
        the strictest possible goal; negative fractions relax the goal.  This
        is the formula used for Figure 16's SLA-shift sweep.
        """
        strictest = self.strictest_value(templates)
        current = self.deadline
        new_deadline = strictest + (current - strictest) * (1.0 - fraction)
        return self.with_deadline(new_deadline)

    def with_strictness_factor(self, factor: float) -> "PerformanceGoal":
        """Scale the deadline by ``1 - factor`` (Figure 11's strictness knob).

        A positive factor tightens the goal, a negative factor relaxes it, and
        0 leaves it unchanged.
        """
        if factor >= 1.0:
            raise GoalError("strictness factor must be < 1 (deadline must stay positive)")
        return self.with_deadline(self.deadline * (1.0 - factor))

    def shifted(self, delta: float) -> "PerformanceGoal":
        """Tighten the goal by an absolute time *delta* (seconds).

        Only meaningful for linearly shiftable goals; other goals raise
        :class:`GoalError`.
        """
        if not self.is_linearly_shiftable:
            raise GoalError(f"{self.kind} goals are not linearly shiftable")
        return self.with_deadline(max(1.0, self.deadline - delta))

    def at_least_as_strict_as(self, other: "PerformanceGoal") -> bool:
        """True when every outcome set is penalised at least as much as under *other*.

        The one notion of "stricter" in the library, and the premise of
        Lemma 5.1: adaptive retraining may only bound (or keep) a sample's
        old optimum when no schedule got cheaper.  That holds when both goals
        are of the same kind, the penalty rate is not lower and the deadline
        is not later; subclasses add what else their penalty reads (every
        per-template deadline, the percentile).  Goals of different kinds
        are never comparable.
        """
        return (
            self.kind == other.kind
            and self.penalty_rate >= other.penalty_rate
            and self.deadline <= other.deadline
        )

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation of the goal.

        The default covers goals fully described by ``(kind, deadline,
        penalty_rate)``; subclasses with extra state override it.  The
        representation round-trips exactly (floats survive JSON bit-for-bit)
        through :func:`repro.sla.factory.goal_from_dict`, which is what the
        model registry uses to key and restore persisted decision models.
        """
        return {
            "kind": self.kind,
            "deadline": self.deadline,
            "penalty_rate": self.penalty_rate,
        }

    # -- cosmetics -------------------------------------------------------------

    def describe(self) -> str:
        """One-line human-readable description of the goal."""
        return f"{self.kind} goal (deadline {self.deadline:.0f}s)"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"


def latencies(outcomes: Sequence[QueryOutcome]) -> list[float]:
    """Observed latencies of *outcomes* (helper shared by the goal classes)."""
    return [outcome.latency for outcome in outcomes]
