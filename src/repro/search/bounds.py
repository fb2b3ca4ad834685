"""The A* cost-to-go: one :class:`FutureCostBound` per search problem.

The f-value of a vertex ``v`` with unassigned queries is

    f(v) = infrastructure(v) + Equation-3(remaining) + term(v)

and a goal vertex's f-value is its true cost.  ``term`` is the only part that
depends on the goal, and every goal kind gets it from a bound object:

* **Monotonic goals** (max latency, per-query deadlines) always use
  :class:`ProvisioningBound`: the partial penalty (it can only grow) plus the
  cheapest provisioning-or-penalty cost of the work that overflows the VMs'
  penalty-free capacity.
* **Non-monotonic goals** (average, percentile) use the registered bound the
  problem was built with.  The partial penalty may still shrink, so the term
  is an admissible estimate of the *future* penalty-plus-provisioning cost.

:meth:`SchedulingProblem._price <repro.search.problem.SchedulingProblem._price>`
is the one place the f-value is assembled, for ``expand``'s children and for
``priority()`` alike.  It calls :meth:`FutureCostBound.placement_bound` or
:meth:`~FutureCostBound.provision_bound` for a child built by an edge, so a
bound may maintain incremental state on the child, and
:meth:`~FutureCostBound.node_bound` to evaluate a vertex from scratch.  A
retraining search's adaptive bound ``h'`` (Section 5) composes on top of the
f-value, in ``_price`` as well: ``max(f, h'(v))``.

:data:`FUTURE_COST_BOUNDS` is the registry of the non-monotonic bounds;
:func:`create_future_bound` instantiates a fresh bound per problem (bounds
carry per-problem memo tables, so instances are never shared).  Two ship:

``memoized`` (the default)
    The goal's own :meth:`~repro.sla.base.PerformanceGoal.future_cost_lower_bound`
    hook, memoised per ``(remaining multiset, assigned-latency key)``.

``tight``
    A strictly tighter admissible bound for the percentile and average goals.
    The memoized bound prices the remaining queries as if the most recent VM
    were empty and free; this one additionally charges

    * the most recent VM's **busy time** ``r`` — any remaining query placed on
      it completes no earlier than ``r`` plus its execution time (and with no
      new VM rented, *every* remaining query queues behind ``r``), and
    * a **mandatory start-up fee** when no VM exists at all (the memoized
      bound hands out one free machine even at the root vertex).

    Both corrections only remove impossible completions from the relaxation,
    so admissibility is preserved (property-tested against true optimal costs
    for every goal kind); with ``r = 0`` and a VM present the bound collapses
    to the memoized value exactly.  Per-vertex work is kept O(1)-ish by
    incrementally maintained aggregates: the assigned-side running
    ``(count, sum)`` rides on ``SearchNode.bound_state`` (average goal), the
    sorted assigned latencies are the node's
    :attr:`~repro.search.problem.SearchNode.latency_key`, and the
    remaining-side sorted cheapest-time prefix sums are memoised per
    remaining multiset instead of re-deriving rank selections per vertex.
    Other non-monotonic goal kinds get the memoized bound.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import TYPE_CHECKING

from repro.exceptions import SpecificationError

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
    parent and the freshly built child so a bound can maintain incremental
    aggregates on the child's ``bound_state`` field; every value must equal
    :meth:`node_bound` on the same child, bit for bit, and be an admissible
    lower bound on the cost still to come beyond Equation 3.
    """

    #: Registry key (set by subclasses).
    name: str = "abstract"

    def attach(self, problem: "SchedulingProblem") -> None:
        """Bind the bound to *problem* (precompute per-problem tables)."""

    def initial_state(self, node: "SearchNode"):
        """Incremental aggregate carried by the start vertex (``None`` = none)."""
        return None

    @abstractmethod
    def placement_bound(
        self,
        parent: "SearchNode",
        child: "SearchNode",
        completion: float,
        bounds: tuple[float, float],
    ) -> float:
        """Term of a placement child (may update ``child.bound_state``)."""

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

    name = "provisioning"

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
    """The default bound: the goal's own hook, memoised per (remaining, key).

    The term depends only on (assigned latencies, remaining multiset);
    provision edges and converging paths revisit the same inputs constantly.
    The assigned latencies are the node's
    :attr:`~repro.search.problem.SearchNode.latency_key`, extended by one
    insertion per placement edge (see :meth:`_child_key`) and carried over
    unchanged by a provision edge, whose term is the parent's.
    """

    name = "memoized"

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
        future = child.future_bound = self._future(key, child.state.remaining)
        return future

    def provision_bound(self, parent, child, bounds) -> float:
        # (outcomes, remaining) are unchanged by a start-up edge.
        key = child.latency_key = self._key_of(parent)
        future = parent.future_bound
        if future < 0.0:
            future = self._future(key, child.state.remaining)
        child.future_bound = future
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


class TightFutureCostBound(MemoizedGoalBound):
    """Busy-time- and mandatory-provisioning-aware bound (see module docstring).

    Supported goal kinds: ``average`` and ``percentile``.  Any other
    non-monotonic goal gets the inherited memoized behaviour, so selecting
    ``"tight"`` is always safe.
    """

    name = "tight"

    def attach(self, problem) -> None:
        super().attach(problem)
        goal = problem.goal
        self._kind = goal.kind if goal.kind in ("average", "percentile") else None
        self._deadline = getattr(goal, "deadline", 0.0)
        self._percent = getattr(goal, "percent", 0.0)
        self._rate = goal.penalty_rate
        #: remaining multiset -> (sorted cheapest times, prefix sums) where
        #: ``prefix[k]`` is the sum of the ``k`` shortest remaining times.
        self._aggregates: dict[tuple, tuple[tuple[float, ...], tuple[float, ...]]] = {}
        #: (remaining multiset, machines) -> SPT completion-sum lower bound.
        self._spt: dict[tuple, float] = {}
        #: full memo over the bound's actual inputs.
        self._tight_memo: dict[tuple, float] = {}

    # -- incremental hooks ------------------------------------------------------

    def initial_state(self, node):
        if self._kind == "average":
            return (0, 0.0)
        return None

    def placement_bound(self, parent, child, completion, bounds) -> float:
        kind = self._kind
        if kind is None:
            return super().placement_bound(parent, child, completion, bounds)
        remaining = child.state.remaining
        busy = child.last_vm_finish
        if kind == "average":
            count, total = self._average_state(parent)
            child.bound_state = (count + 1, total + completion)
            return self._average_bound(count + 1, total + completion, remaining, busy, True)
        key = child.latency_key = self._child_key(parent, completion)
        return self._percentile_bound(key, remaining, busy, True)

    def provision_bound(self, parent, child, bounds) -> float:
        kind = self._kind
        if kind is None:
            return super().provision_bound(parent, child, bounds)
        child.bound_state = parent.bound_state
        remaining = child.state.remaining
        # The freshly provisioned VM is empty: busy time 0, but a VM now exists.
        if kind == "average":
            count, total = self._average_state(parent)
            return self._average_bound(count, total, remaining, 0.0, True)
        key = child.latency_key = self._key_of(parent)
        return self._percentile_bound(key, remaining, 0.0, True)

    def node_bound(self, node, bounds) -> float:
        kind = self._kind
        if kind is None:
            return super().node_bound(node, bounds)
        remaining = node.state.remaining
        has_vm = bool(node.state.vms)
        busy = node.last_vm_finish if has_vm else 0.0
        if kind == "average":
            count, total = self._average_state(node)
            return self._average_bound(count, total, remaining, busy, has_vm)
        return self._percentile_bound(self._key_of(node), remaining, busy, has_vm)

    @staticmethod
    def _average_state(node) -> tuple[int, float]:
        """The node's running ``(count, sum)`` of assigned latencies.

        Recomputed in placement order when the node carries none, which
        matches the incremental running sum bit-for-bit.
        """
        state = node.bound_state
        if state is None:
            total = 0.0
            for outcome in node.outcomes:
                total += outcome.latency
            state = (len(node.outcomes), total)
        return state

    # -- remaining-side aggregates ---------------------------------------------

    def _remaining_aggregates(
        self, remaining: tuple[tuple[str, int], ...]
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        cached = self._aggregates.get(remaining)
        if cached is None:
            times = sorted(self._latency_bounds(remaining))
            prefix = [0.0]
            acc = 0.0
            for value in times:
                acc += value
                prefix.append(acc)
            cached = (tuple(times), tuple(prefix))
            self._aggregates[remaining] = cached
        return cached

    def _spt_sum(self, remaining: tuple, times: tuple[float, ...], machines: int) -> float:
        """``P || sum C_j`` lower bound: SPT completion sum on *machines* machines."""
        key = (remaining, machines)
        cached = self._spt.get(key)
        if cached is None:
            n = len(times)
            cached = sum(
                latency * ((n - index - 1) // machines + 1)
                for index, latency in enumerate(times)
            )
            self._spt[key] = cached
        return cached

    # -- the average-latency bound ------------------------------------------------

    def _average_bound(
        self,
        assigned_count: int,
        assigned_total: float,
        remaining: tuple[tuple[str, int], ...],
        busy: float,
        has_vm: bool,
    ) -> float:
        key = (remaining, assigned_count, assigned_total, busy, has_vm)
        cached = self._tight_memo.get(key)
        if cached is not None:
            return cached
        times, _ = self._remaining_aggregates(remaining)
        n = len(times)
        count = assigned_count + n
        deadline = self._deadline
        rate = self._rate
        min_startup = self._min_startup
        if count == 0:
            self._tight_memo[key] = 0.0
            return 0.0
        if n == 0:
            value = rate * max(0.0, assigned_total / count - deadline)
            self._tight_memo[key] = value
            return value
        best = _INF
        for extra in range(0, n + 1):
            if extra * min_startup >= best:
                break
            if has_vm:
                if extra == 0:
                    # Every remaining query queues behind the busy VM.
                    completion_sum = n * busy + self._spt_sum(remaining, times, 1)
                else:
                    # Either the busy VM takes none of the remaining work
                    # (only the fresh machines run it) or it takes some and at
                    # least one completion is delayed by the full busy time.
                    completion_sum = min(
                        self._spt_sum(remaining, times, extra),
                        busy + self._spt_sum(remaining, times, extra + 1),
                    )
            else:
                if extra == 0:
                    continue  # no machine exists: provisioning is mandatory
                completion_sum = self._spt_sum(remaining, times, extra)
            violation = max(
                0.0, (assigned_total + completion_sum) / count - deadline
            )
            cost = extra * min_startup + rate * violation
            if cost < best:
                best = cost
            if violation == 0.0:
                break
        self._tight_memo[key] = best
        return best

    # -- the percentile bound -------------------------------------------------------

    def _percentile_bound(
        self,
        latency_key: tuple[float, ...],
        remaining: tuple[tuple[str, int], ...],
        busy: float,
        has_vm: bool,
    ) -> float:
        key = (remaining, latency_key, busy, has_vm)
        cached = self._tight_memo.get(key)
        if cached is not None:
            return cached
        times, prefix = self._remaining_aggregates(remaining)
        n = len(times)
        assigned = latency_key  # sorted: percentile keys are order-invariant
        total = len(assigned) + n
        if total == 0:
            self._tight_memo[key] = 0.0
            return 0.0
        rank = max(1, math.ceil(self._percent / 100.0 * total))
        deadline = self._deadline
        rate = self._rate
        min_startup = self._min_startup
        if n == 0:
            value = rate * max(0.0, assigned[rank - 1] - deadline)
            self._tight_memo[key] = value
            return value
        best = _INF
        for extra in range(0, n + 1):
            if extra * min_startup >= best:
                break
            if not has_vm and extra == 0:
                continue  # no machine exists: provisioning is mandatory
            value = self._rank_statistic(
                assigned, prefix, n, rank, extra, busy, has_vm
            )
            violation = max(0.0, value - deadline)
            cost = extra * min_startup + rate * violation
            if cost < best:
                best = cost
            if violation == 0.0:
                break
        self._tight_memo[key] = best
        return best

    def _rank_statistic(
        self,
        assigned: tuple[float, ...],
        prefix: tuple[float, ...],
        n: int,
        rank: int,
        fresh: int,
        busy: float,
        has_vm: bool,
    ) -> float:
        """The *rank*-th smallest of assigned latencies merged with per-rank
        lower bounds on the remaining completions, for ``fresh`` new machines
        (plus the busy one when present)."""
        num_assigned = len(assigned)
        bound_cache: list[float] = []

        def remaining_rank_bound(i: int) -> float:
            # Lower bound on the i-th smallest remaining completion time.
            while len(bound_cache) < i:
                j = len(bound_cache) + 1
                if not has_vm:
                    value = prefix[-(-j // fresh)]
                else:
                    # k of the j earliest-finishing remaining queries run on
                    # the busy machine: the last of those completes no earlier
                    # than busy + (sum of the k shortest remaining times), the
                    # other j-k spread over the fresh machines.
                    value = prefix[-(-j // fresh)] if fresh >= 1 else _INF
                    for k in range(1, j + 1):
                        on_busy = busy + prefix[k]
                        if on_busy >= value:
                            break
                        rest = j - k
                        if rest == 0:
                            elsewhere = 0.0
                        elif fresh >= 1:
                            elsewhere = prefix[-(-rest // fresh)]
                        else:
                            continue  # nowhere to run the other queries
                        candidate = on_busy if on_busy >= elsewhere else elsewhere
                        if candidate < value:
                            value = candidate
                bound_cache.append(value)
            return bound_cache[i - 1]

        taken_assigned = 0
        taken_remaining = 0
        value = 0.0
        for _ in range(rank):
            a = assigned[taken_assigned] if taken_assigned < num_assigned else _INF
            b = remaining_rank_bound(taken_remaining + 1) if taken_remaining < n else _INF
            if a <= b:
                value = a
                taken_assigned += 1
            else:
                value = b
                taken_remaining += 1
        return value


#: Registered future-cost bounds for the non-monotonic goals, by name.
FUTURE_COST_BOUNDS: dict[str, type[FutureCostBound]] = {}


def register_future_cost_bound(cls: type[FutureCostBound]) -> type[FutureCostBound]:
    """Class decorator adding a bound to :data:`FUTURE_COST_BOUNDS`."""
    FUTURE_COST_BOUNDS[cls.name] = cls
    return cls


register_future_cost_bound(MemoizedGoalBound)
register_future_cost_bound(TightFutureCostBound)


def registered_future_cost_bounds() -> tuple[str, ...]:
    """Names of every registered bound (registration order)."""
    return tuple(FUTURE_COST_BOUNDS)


def create_future_bound(spec: str) -> FutureCostBound:
    """A fresh bound instance for *spec* (bounds hold per-problem caches)."""
    try:
        cls = FUTURE_COST_BOUNDS[spec]
    except KeyError:
        raise SpecificationError(
            f"unknown future-cost bound {spec!r}; registered: "
            f"{', '.join(FUTURE_COST_BOUNDS)}"
        ) from None
    return cls()
