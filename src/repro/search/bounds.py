"""The A* cost-to-go: one :class:`FutureCostBound` per search problem.

The f-value of a vertex ``v`` with unassigned queries is

    f(v) = infrastructure(v) + Equation-3(remaining) + term(v)

and a goal vertex's f-value is its true cost.  ``term`` is the only part that
depends on the goal, and every goal kind gets it from a bound object:

* **Monotonic goals** (max latency, per-query deadlines) always use
  :class:`ProvisioningBound`: the partial penalty (it can only grow) plus the
  cheapest provisioning-or-penalty cost of the work that overflows the VMs'
  penalty-free capacity, where renting no further VM also pays the least
  tardiness of the remaining queries run back to back on one machine.
* **Non-monotonic goals** (average, percentile) always use
  :class:`MemoizedGoalBound`.  The partial penalty may still shrink, so the
  term is the goal's own admissible estimate of the *future*
  penalty-plus-provisioning cost
  (:meth:`~repro.sla.base.PerformanceGoal.future_cost_lower_bound`), read
  off the goal accumulator's state (average's latency total and count,
  percentile's sorted latencies) and memoised per ``(remaining multiset,
  state)``.  The percentile goal's estimate bounds the ``k``-th remaining
  completion on ``m`` machines by the ``ceil(k / m)`` shortest latencies
  stacked on one machine, by the ``k``-th shortest latency itself, and the
  last by the remaining work over ``m`` (McNaughton's makespan bound); all
  three read only the state and the multiset.

The goal alone picks the bound: there is no per-problem choice, so a trained
model's trees depend on the goal and the search strategy only.

:meth:`SchedulingProblem.expand <repro.search.problem.SchedulingProblem.expand>`
prices each child from its parent before the child exists: it calls
:meth:`FutureCostBound.placement_bound` per placement child and
:meth:`~FutureCostBound.provision_bound` once for all provisioning children,
so a provisioning edge may carry its parent's term, and
:meth:`~FutureCostBound.node_bound` evaluates a built vertex from scratch
(:meth:`~repro.search.problem.SchedulingProblem.priority`).  A retraining
search's adaptive bound ``h'`` (Section 5) composes on top of the f-value, in
the problem as well: ``max(f, h'(v))``.  Bounds carry per-problem memo
tables, so every problem builds its own instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.search.problem import RemainingRow, SchedulingProblem, SearchNode

_INF = float("inf")
#: ``row.work`` and the prefix sums ``P_i`` add the same positive latencies
#: in different orders, so they may differ by a few units in the last place;
#: work this far below the earliest deadline keeps every ``P_i`` below it.
_ROUNDING_MARGIN = 1.0 + 1e-9


class FutureCostBound(ABC):
    """Protocol for the goal-dependent cost-to-go term of the A* f-value.

    One instance serves one :class:`SchedulingProblem`: :meth:`attach` is
    called from the problem's constructor and may precompute tables.  The
    hooks are only called for vertices with queries left; *row* is the
    problem's :class:`~repro.search.problem.RemainingRow` of the vertex's
    remaining multiset (its Equation-3 bound, cheapest remaining work and
    canonical tuple).  The per-edge hooks price a child that is not built
    yet, from its *parent* and the edge alone, and return its term, which
    the child keeps as its ``future_term``.  Every term must equal
    :meth:`node_bound` on the built child, bit for bit, and be an admissible
    lower bound on the cost still to come beyond Equation 3.
    """

    def attach(self, problem: "SchedulingProblem") -> None:
        """Bind the bound to *problem* (precompute per-problem tables)."""

    @abstractmethod
    def placement_bound(
        self,
        parent: "SearchNode",
        row: "RemainingRow",
        completion: float,
        penalty: float,
    ) -> float:
        """Term of *parent*'s placement child that completes a query at
        *completion*, leaves *row* and has partial penalty *penalty*."""

    @abstractmethod
    def provision_bound(self, parent: "SearchNode", row: "RemainingRow") -> float:
        """Term shared by every provisioning child of *parent*: busy time
        resets to 0 and nothing is placed, whatever the VM type."""

    @abstractmethod
    def node_bound(self, node: "SearchNode", row: "RemainingRow") -> float:
        """Term of a built vertex computed from scratch (the start vertex,
        ``priority()``)."""


class ProvisioningBound(FutureCostBound):
    """Monotonic goals: partial penalty plus the provisioning lower bound.

    The partial penalty can only grow, so it rides in the bound as is.  For
    deadline-style goals every VM can absorb at most ``D`` seconds of work
    before its queue starts violating (``D`` being the deadline, or the
    loosest per-template deadline).  If ``W`` seconds of work remain and the
    most recent VM has ``slack`` seconds of headroom, then any completion of
    the schedule with ``k`` additional VMs pays at least ``k`` start-up fees
    plus penalties for the work that does not fit.  Independently, a
    remaining query of template ``t`` completes no earlier than its cheapest
    latency ``L_t``, so it violates by at least ``max(0, L_t - d_t)`` however
    it is placed; ``U`` sums that unavoidable overage over the remaining
    queries.  Either amount is a lower bound on the violation still to come,
    so the term charges the larger:

        k * f_s  +  rate * max(U, W - slack - k * D)

    With no further VM (``k = 0``) every remaining query runs back to back
    on the most recent VM, which started at ``t >= 0``, so the ``i``-th
    smallest completion is at least ``P_i``, the sum of the ``i`` shortest
    cheapest latencies.  Matching sorted completions to sorted deadlines
    gives the least total tardiness of any assignment (the overage is convex
    in the completion), so the violation is at least

        T1 = sum_i max(0, P_i - d_(i))

    and the ``k = 0`` candidate charges ``rate * max(U, W - slack, T1)``.
    Minimising over ``k`` gives an admissible bound on the cost still to be
    paid *beyond* the pure execution cost of Equation 3.  ``T1`` is
    memoised per remaining multiset like ``U``, and computed only when the
    ``k = 0`` candidate is strictly the cheapest without it (otherwise
    raising that candidate cannot move the minimum) and the remaining work
    reaches the earliest deadline (otherwise no ``P_i`` does, and ``T1`` is
    0), so the term equals the eagerly computed one bit for bit, and max
    latency searches, whose work rarely exceeds the deadline while ``k = 0``
    is the cheapest, almost never pay for it.  Goals without a per-query
    deadline get no provisioning term.  The term is a function of the vertex
    alone, so the three hooks share one body.
    """

    def attach(self, problem) -> None:
        goal = problem.goal
        self._capacity = _penalty_free_capacity(goal)
        self._min_startup = problem.min_startup_cost
        self._rate = goal.penalty_rate
        if self._capacity is not None:
            cheapest_time = problem.cheapest_time
            deadlines = {name: goal.query_deadline(name) for name in cheapest_time}
            self._overage = {
                name: max(0.0, time - deadlines[name])
                for name, time in cheapest_time.items()
            }
            #: The workload's templates, shortest cheapest latency first, and
            #: their deadlines, earliest first.
            self._by_time = sorted(cheapest_time.items(), key=lambda item: item[1])
            self._by_deadline = sorted(deadlines.items(), key=lambda item: item[1])
            self._earliest = min(deadlines.values(), default=_INF)
            #: remaining code -> unavoidable overage ``U`` of the multiset
            self._floors: dict[int, float] = {}
            #: remaining code -> one-machine tardiness ``T1`` of the multiset
            self._tardiness: dict[int, float] = {}

    def _floor(self, row) -> float:
        """``U``: the overage the remaining queries pay wherever they run."""
        floor = self._floors.get(row.code)
        if floor is None:
            overage = self._overage
            floor = 0.0
            for name, count in row.remaining:
                floor += count * overage[name]
            self._floors[row.code] = floor
        return floor

    def _one_machine_tardiness(self, row) -> float:
        """``T1``: the least tardiness of the remaining queries on one machine."""
        if row.work * _ROUNDING_MARGIN <= self._earliest:
            # Every prefix P_i is at most the work, below every deadline.
            return 0.0
        tardiness = self._tardiness.get(row.code)
        if tardiness is None:
            counts = dict(row.remaining)
            deadlines = []
            for name, deadline in self._by_deadline:
                count = counts.get(name)
                if count:
                    deadlines.extend([deadline] * count)
            tardiness = 0.0
            completion = 0.0
            rank = 0
            for name, time in self._by_time:
                for _ in range(counts.get(name, 0)):
                    completion += time
                    late = completion - deadlines[rank]
                    if late > 0.0:
                        tardiness += late
                    rank += 1
            self._tardiness[row.code] = tardiness
        return tardiness

    def _term(self, penalty: float, finish: float | None, row) -> float:
        """The term of a vertex whose most recent VM is busy until *finish*
        (``None``: no VM yet) with *row* left to place."""
        capacity = self._capacity
        if capacity is None:
            return penalty
        floor = self._floor(row)
        slack = capacity - finish if finish is not None else 0.0
        overflow = row.work - (slack if slack > 0.0 else 0.0)
        rate = self._rate
        min_startup = self._min_startup
        # k = 0: no further VM; k >= 1: the cheapest with new VMs (with no
        # overflow every k >= 1 pays U plus its fees, so k = 1 is the least).
        stay = overflow if overflow > floor else floor
        alone = rate * stay
        rented = _INF
        top = int(overflow // capacity) + 2 if overflow > 0.0 else 2
        for new_vms in range(1, top):
            unplaced = overflow - new_vms * capacity
            cost = new_vms * min_startup + rate * (
                unplaced if unplaced > floor else floor
            )
            if cost < rented:
                rented = cost
        if alone < rented:
            tardiness = self._one_machine_tardiness(row)
            if tardiness > stay:
                alone = rate * tardiness
            return penalty + (alone if alone < rented else rented)
        return penalty + rented

    def placement_bound(self, parent, row, completion, penalty):
        return self._term(penalty, completion, row)

    def provision_bound(self, parent, row):
        return self._term(parent.penalty, 0.0, row)

    def node_bound(self, node, row) -> float:
        finish = node.last_vm_finish if node.last_vm_index >= 0 else None
        return self._term(node.penalty, finish, row)


def _penalty_free_capacity(goal) -> float | None:
    """Largest busy time a VM can reach before a monotonic goal penalises.

    Defined for the deadline-style goals (max latency and per-query
    deadlines), where any query completing after the relevant deadline
    accrues violation time; ``None`` disables the provisioning term.
    """
    deadline = getattr(goal, "deadline", None)
    if deadline is None or deadline <= 0:
        return None
    deadlines = getattr(goal, "deadlines", None)
    if deadlines:
        return max(dict(deadlines).values())
    return float(deadline)


class MemoizedGoalBound(FutureCostBound):
    """Non-monotonic goals: the goal's own hook, memoised per (remaining, state).

    The term depends only on the remaining multiset and the goal
    accumulator's state (:mod:`repro.sla.accumulators`), and converging
    paths revisit the same pair, so the memo is keyed on ``(row.code,
    state)``.  A placement child's state is its parent accumulator's
    ``state_with`` the completion; a provision edge leaves both unchanged,
    so its term is the parent's.
    """

    def attach(self, problem) -> None:
        self._goal = problem.goal
        self._cheapest_time = problem.cheapest_time
        self._min_startup = problem.min_startup_cost
        #: remaining code -> per-query latency lower bounds
        self._latency_bounds_cache: dict[int, list[float]] = {}
        #: (remaining code, accumulator state) -> future-cost lower bound
        self._memo: dict[tuple, float] = {}

    def placement_bound(self, parent, row, completion, penalty):
        return self._future(parent.accumulator.state_with(completion), row)

    def provision_bound(self, parent, row):
        future = parent.future_term
        if future < 0.0:
            future = self._future(parent.accumulator.state(), row)
        return future

    def node_bound(self, node, row) -> float:
        return self._future(node.accumulator.state(), row)

    def _latency_bounds(self, row) -> list[float]:
        """Per-query latency lower bounds of a remaining multiset (memoised).

        Callers must treat the returned list as immutable (the goal hooks only
        read or ``sorted()`` it).
        """
        cached = self._latency_bounds_cache.get(row.code)
        if cached is None:
            cached = []
            for name, count in row.remaining:
                cached.extend([self._cheapest_time[name]] * count)
            self._latency_bounds_cache[row.code] = cached
        return cached

    def _future(self, state, row) -> float:
        """The goal hook at (accumulator state, remaining multiset), memoised."""
        key = (row.code, state)
        future = self._memo.get(key)
        if future is None:
            future = self._goal.future_cost_lower_bound(
                state, self._latency_bounds(row), self._min_startup
            )
            self._memo[key] = future
        return future
