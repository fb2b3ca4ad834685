"""The A* cost-to-go: one :class:`FutureCostBound` per search problem.

The f-value of a vertex ``v`` with unassigned queries is

    f(v) = infrastructure(v) + Equation-3(remaining) + term(v)

and a goal vertex's f-value is its true cost.  ``term`` is the only part that
depends on the goal, and every goal kind gets it from a bound object:

* **Monotonic goals** (max latency, per-query deadlines) always use
  :class:`ProvisioningBound`: the partial penalty (it can only grow) plus the
  cheapest provisioning-or-penalty cost of the work that overflows the VMs'
  penalty-free capacity.
* **Non-monotonic goals** (average, percentile) always use
  :class:`MemoizedGoalBound`.  The partial penalty may still shrink, so the
  term is the goal's own admissible estimate of the *future*
  penalty-plus-provisioning cost
  (:meth:`~repro.sla.base.PerformanceGoal.future_cost_lower_bound`), memoised
  per ``(remaining multiset, assigned-latency key)``.

The goal alone picks the bound: there is no per-problem choice, so a trained
model's trees depend on the goal and the search strategy only.

:meth:`SchedulingProblem.expand <repro.search.problem.SchedulingProblem.expand>`
prices each child from its parent before the child exists: it calls
:meth:`FutureCostBound.placement_bound` per placement child and
:meth:`~FutureCostBound.provision_bound` once for all provisioning children,
so a bound may carry its memo key or term along the edge, and
:meth:`~FutureCostBound.node_bound` evaluates a built vertex from scratch
(:meth:`~repro.search.problem.SchedulingProblem.priority`).  A retraining
search's adaptive bound ``h'`` (Section 5) composes on top of the f-value, in
the problem as well: ``max(f, h'(v))``.  Bounds carry per-problem memo
tables, so every problem builds its own instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.search.problem import RemainingRow, SchedulingProblem, SearchNode

_INF = float("inf")


class FutureCostBound(ABC):
    """Protocol for the goal-dependent cost-to-go term of the A* f-value.

    One instance serves one :class:`SchedulingProblem`: :meth:`attach` is
    called from the problem's constructor and may precompute tables.  The
    hooks are only called for vertices with queries left; *row* is the
    problem's :class:`~repro.search.problem.RemainingRow` of the vertex's
    remaining multiset (its Equation-3 bound, cheapest remaining work and
    canonical tuple).  The per-edge hooks price a child that is not built
    yet, from its *parent* and the edge alone, and return the term together
    with the memo key the child will carry as its ``latency_key`` (``None``
    for a bound that keeps none); the child's ``future_term`` is the term.
    Every term must equal :meth:`node_bound` on the built child, bit for bit,
    and be an admissible lower bound on the cost still to come beyond
    Equation 3.
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
    ) -> tuple[float, "tuple[float, ...] | None"]:
        """(term, key) of *parent*'s placement child that completes a query at
        *completion*, leaves *row* and has partial penalty *penalty*."""

    @abstractmethod
    def provision_bound(
        self, parent: "SearchNode", row: "RemainingRow"
    ) -> tuple[float, "tuple[float, ...] | None"]:
        """(term, key) shared by every provisioning child of *parent*: busy
        time resets to 0 and nothing is placed, whatever the VM type."""

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

    Minimising over ``k`` gives an admissible bound on the cost still to be
    paid *beyond* the pure execution cost of Equation 3 (with no overflow it
    is ``rate * U``).  Goals without a per-query deadline get no
    provisioning term.  The term is a function of the vertex alone, so the
    three hooks share one body and carry no key.
    """

    def attach(self, problem) -> None:
        goal = problem.goal
        self._capacity = _penalty_free_capacity(goal)
        self._min_startup = problem.min_startup_cost
        self._rate = goal.penalty_rate
        if self._capacity is not None:
            self._overage = {
                name: max(0.0, time - goal.query_deadline(name))
                for name, time in problem.cheapest_time.items()
            }
            #: remaining code -> unavoidable overage ``U`` of the multiset
            self._floors: dict[int, float] = {}

    def _floor(self, row) -> float:
        """``U``: the overage the remaining queries pay wherever they run."""
        floor = self._floors.get(row.code)
        if floor is None:
            overage = self._overage
            floor = self._floors[row.code] = sum(
                [count * overage[name] for name, count in row.remaining]
            )
        return floor

    def _term(self, penalty: float, finish: float | None, row) -> float:
        """The term of a vertex whose most recent VM is busy until *finish*
        (``None``: no VM yet) with *row* left to place."""
        provisioning = 0.0
        capacity = self._capacity
        if capacity is not None:
            floor = self._floor(row)
            slack = capacity - finish if finish is not None else 0.0
            overflow = row.work - (slack if slack > 0.0 else 0.0)
            if overflow > 0:
                best = _INF
                min_startup = self._min_startup
                rate = self._rate
                for new_vms in range(int(overflow // capacity) + 2):
                    unplaced = overflow - new_vms * capacity
                    cost = new_vms * min_startup + rate * (
                        unplaced if unplaced > floor else floor
                    )
                    if cost < best:
                        best = cost
                provisioning = best
            elif floor > 0.0:
                provisioning = self._rate * floor
        return penalty + provisioning

    def placement_bound(self, parent, row, completion, penalty):
        return self._term(penalty, completion, row), None

    def provision_bound(self, parent, row):
        return self._term(parent.penalty, 0.0, row), None

    def node_bound(self, node, row) -> float:
        finish = node.last_vm_finish if node.state.vms else None
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
    """Non-monotonic goals: the goal's own hook, memoised per (remaining, key).

    The term depends only on (assigned latencies, remaining multiset);
    provision edges and converging paths revisit the same inputs constantly.
    The assigned latencies are the node's
    :attr:`~repro.search.problem.SearchNode.latency_key`, extended by one
    insertion per placement edge (see :meth:`_child_key`) and carried over
    unchanged by a provision edge, whose term is the parent's.
    """

    def attach(self, problem) -> None:
        goal = problem.goal
        self._goal = goal
        self._cheapest_time = problem.cheapest_time
        self._min_startup = problem.min_startup_cost
        #: Whether the goal's bound may be memoised per assigned-latency
        #: *multiset* (bit-identical under permutation) rather than per
        #: exact sequence.
        self._order_invariant = goal.future_bound_order_invariant
        #: remaining code -> per-query latency lower bounds
        self._latency_bounds_cache: dict[int, list[float]] = {}
        #: (remaining code, assigned-latency key) -> future-cost lower bound
        self._memo: dict[tuple, float] = {}

    def placement_bound(self, parent, row, completion, penalty):
        key = self._child_key(parent, completion)
        return self._future(key, row), key

    def provision_bound(self, parent, row):
        # (outcomes, remaining) are unchanged by a start-up edge.
        key = self._key_of(parent)
        future = parent.future_term
        if future < 0.0:
            future = self._future(key, row)
        return future, key

    def node_bound(self, node, row) -> float:
        return self._future(self._key_of(node), row)

    # -- the assigned-latency key ------------------------------------------------

    def _key_of(self, node) -> tuple[float, ...]:
        """The node's assigned-latency memo key, computed once and cached.

        Goals whose bound is permutation-invariant key by the sorted latency
        multiset, the rest by the exact sequence (float sums are
        order-sensitive, and f-values must stay bit-identical).
        """
        key = node.latency_key
        if key is None:
            assigned = tuple(outcome.latency for outcome in node.outcomes)
            key = node.latency_key = (
                tuple(sorted(assigned)) if self._order_invariant else assigned
            )
        return key

    def _child_key(self, parent, completion: float) -> tuple[float, ...]:
        """The parent's key plus one completion: a bisect insertion keeps an
        order-invariant key sorted, an append keeps the exact sequence."""
        key = parent.latency_key
        if key is None:
            key = self._key_of(parent)
        if self._order_invariant:
            position = bisect_right(key, completion)
            return key[:position] + (completion,) + key[position:]
        return key + (completion,)

    # -- the memoised goal hook ----------------------------------------------------

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

    def _future(self, latency_key: tuple[float, ...], row) -> float:
        """The goal hook at (assigned latencies, remaining multiset), memoised.

        ``latency_key`` doubles as the assigned-latency argument of the goal
        hook: for order-invariant goals it is the sorted multiset (the hook
        only reads order statistics, so the value is unchanged), for the rest
        it is the exact placement sequence.
        """
        key = (row.code, latency_key)
        future = self._memo.get(key)
        if future is None:
            future = self._goal.future_cost_lower_bound(
                latency_key, self._latency_bounds(row), self._min_startup
            )
            self._memo[key] = future
        return future
