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

:meth:`SchedulingProblem._price <repro.search.problem.SchedulingProblem._price>`
is the one place the f-value is assembled, for ``expand``'s children and for
``priority()`` alike.  It calls :meth:`FutureCostBound.placement_bound` or
:meth:`~FutureCostBound.provision_bound` for a child built by an edge, so a
bound may reuse the parent's memo key or term for the child, and
:meth:`~FutureCostBound.node_bound` to evaluate a vertex from scratch.  A
retraining search's adaptive bound ``h'`` (Section 5) composes on top of the
f-value, in ``_price`` as well: ``max(f, h'(v))``.  Bounds carry per-problem
memo tables, so every problem builds its own instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.search.problem import SchedulingProblem, SearchNode

_INF = float("inf")


class FutureCostBound(ABC):
    """Protocol for the goal-dependent cost-to-go term of the A* f-value.

    One instance serves one :class:`SchedulingProblem`: :meth:`attach` is
    called from the problem's constructor and may precompute tables.  The
    hooks are only called for vertices with queries left; *bounds* is the
    problem's memoised ``(Equation-3 bound, cheapest remaining work time)``
    for the vertex's remaining multiset.  The per-edge hooks receive both the
    parent and the freshly built child so a bound can carry its memo key and
    term along the edge (the child's ``latency_key`` and ``future_term``);
    every value must equal :meth:`node_bound` on the same child, bit for bit,
    and be an admissible lower bound on the cost still to come beyond
    Equation 3.
    """

    def attach(self, problem: "SchedulingProblem") -> None:
        """Bind the bound to *problem* (precompute per-problem tables)."""

    @abstractmethod
    def placement_bound(
        self,
        parent: "SearchNode",
        child: "SearchNode",
        completion: float,
        bounds: tuple[float, float],
    ) -> float:
        """Term of a placement child completing a query at *completion*."""

    @abstractmethod
    def provision_bound(
        self, parent: "SearchNode", child: "SearchNode", bounds: tuple[float, float]
    ) -> float:
        """Term of a provisioning child (busy time resets to 0)."""

    @abstractmethod
    def node_bound(self, node: "SearchNode", bounds: tuple[float, float]) -> float:
        """Term computed from scratch (the start vertex, ``priority()``)."""


class ProvisioningBound(FutureCostBound):
    """Monotonic goals: partial penalty plus the provisioning lower bound.

    The partial penalty can only grow, so it rides in the bound as is.  For
    deadline-style goals every VM can absorb at most ``D`` seconds of work
    before its queue starts violating (``D`` being the deadline, or the
    loosest per-template deadline).  If ``W`` seconds of work remain and the
    most recent VM has ``slack`` seconds of headroom, then any completion of
    the schedule with ``k`` additional VMs pays at least ``k`` start-up fees
    plus penalties for the work that does not fit:

        k * f_s  +  rate * max(0, W - slack - k * D)

    Minimising over ``k`` gives an admissible bound on the cost still to be
    paid *beyond* the pure execution cost of Equation 3.  Goals without a
    per-query deadline get no provisioning term.  The term is a function of
    the vertex alone, so the three hooks share one body.
    """

    def attach(self, problem) -> None:
        goal = problem.goal
        self._capacity = _penalty_free_capacity(goal)
        self._min_startup = problem.min_startup_cost
        self._rate = goal.penalty_rate

    def placement_bound(self, parent, child, completion, bounds) -> float:
        provisioning = 0.0
        capacity = self._capacity
        if capacity is not None:
            slack = capacity - child.last_vm_finish if child.state.vms else 0.0
            overflow = bounds[1] - (slack if slack > 0.0 else 0.0)
            if overflow > 0:
                best = _INF
                min_startup = self._min_startup
                rate = self._rate
                for new_vms in range(int(overflow // capacity) + 2):
                    unplaced = overflow - new_vms * capacity
                    cost = new_vms * min_startup + rate * (
                        unplaced if unplaced > 0.0 else 0.0
                    )
                    if cost < best:
                        best = cost
                provisioning = best
        return child.penalty + provisioning

    def provision_bound(self, parent, child, bounds) -> float:
        return self.placement_bound(parent, child, 0.0, bounds)

    def node_bound(self, node, bounds) -> float:
        return self.placement_bound(None, node, 0.0, bounds)


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
        self._order_invariant = bool(getattr(goal, "future_bound_order_invariant", False))
        #: remaining multiset -> per-query latency lower bounds
        self._latency_bounds_cache: dict[tuple, list[float]] = {}
        #: (remaining multiset, assigned-latency key) -> future-cost lower bound
        self._memo: dict[tuple, float] = {}

    def placement_bound(self, parent, child, completion, bounds) -> float:
        key = child.latency_key = self._child_key(parent, completion)
        future = child.future_term = self._future(key, child.state.remaining)
        return future

    def provision_bound(self, parent, child, bounds) -> float:
        # (outcomes, remaining) are unchanged by a start-up edge.
        key = child.latency_key = self._key_of(parent)
        future = parent.future_term
        if future < 0.0:
            future = self._future(key, child.state.remaining)
        child.future_term = future
        return future

    def node_bound(self, node, bounds) -> float:
        return self._future(self._key_of(node), node.state.remaining)

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

    def _latency_bounds(self, remaining: tuple[tuple[str, int], ...]) -> list[float]:
        """Per-query latency lower bounds of a remaining multiset (memoised).

        Callers must treat the returned list as immutable (the goal hooks only
        read or ``sorted()`` it).
        """
        cached = self._latency_bounds_cache.get(remaining)
        if cached is None:
            cached = []
            for name, count in remaining:
                cached.extend([self._cheapest_time[name]] * count)
            self._latency_bounds_cache[remaining] = cached
        return cached

    def _future(
        self, latency_key: tuple[float, ...], remaining: tuple[tuple[str, int], ...]
    ) -> float:
        """The goal hook at (assigned latencies, remaining), memoised.

        ``latency_key`` doubles as the assigned-latency argument of the goal
        hook: for order-invariant goals it is the sorted multiset (the hook
        only reads order statistics, so the value is unchanged), for the rest
        it is the exact placement sequence.
        """
        key = (remaining, latency_key)
        future = self._memo.get(key)
        if future is None:
            future = self._goal.future_cost_lower_bound(
                latency_key, self._latency_bounds(remaining), self._min_startup
            )
            self._memo[key] = future
        return future
