"""The scheduling-graph search problem (Section 4.3).

:class:`SchedulingProblem` encapsulates everything the A* search needs:

* successor generation with the paper's two graph reductions — a new VM may
  only be provisioned when the most recent VM is non-empty, and queries may
  only be placed on the most recent VM;
* incremental cost bookkeeping per search node: infrastructure cost (start-up
  fees plus rental for executed queries), the partial schedule's SLA penalty,
  and the wait time of the most recent VM;
* the admissible heuristic of Equation 3 (cheapest possible execution cost of
  the remaining queries), used when the performance goal is monotonically
  increasing, and the corresponding lower-bound priority for non-monotonic
  goals (infrastructure plus remaining execution, penalty ignored until a goal
  vertex is reached — a valid lower bound because penalties are non-negative).

Nodes fully determine their partial schedule, so the best goal vertex found by
the search is the minimum-cost complete schedule regardless of the path taken
to reach it.

Hot-path architecture
---------------------

The search core is built around *incremental state* and *precomputed tables*
so that the per-vertex work is O(1)-ish rather than proportional to the number
of queries already placed:

* **Incremental penalties.**  Every :class:`SearchNode` carries a copy-on-write
  :class:`~repro.sla.accumulators.ViolationAccumulator` (obtained from
  :meth:`~repro.sla.base.PerformanceGoal.search_accumulator`) describing its
  partial schedule.  A placement edge branches the parent's accumulator and
  records one completion, so node penalties and Equation-2 edge weights are
  O(1)/O(log n) deltas instead of ``goal.penalty(outcomes)`` scans over the
  whole outcome tuple (which made each optimal path quadratic).  Retraining
  searches (adaptive A*, Section 5) carry a *second* accumulator for the
  problem's ``aux_goal`` — the old goal — maintained the same copy-on-write
  way, so the adaptive bound's ``cost(R, v)`` term is an O(1) read too.
* **Interned ids and dense tables.**  Template names and VM type names are
  interned to integer ids at problem construction, and per-``(vm, template)``
  latency, execution-cost, and supports tables are precomputed, so ``expand``,
  ``_place``, and the dominance checks stop doing string-keyed dict walks and
  attribute lookups per node.  Each node caches the integer id of its most
  recent VM.
* **Memoized remaining-work terms.**  The Equation-3 heuristic and the
  provisioning-bound work terms depend only on the *remaining* multiset, which
  the search revisits constantly, so they are memoized per multiset.  (A
  parent-minus-placed-contribution running value would also be O(1), but
  floating-point subtraction is inexact and would perturb tie-breaking;
  memoization keeps every f-value bit-identical to a fresh evaluation.)

The accumulators agree with the batch :meth:`PerformanceGoal.penalty`
definition bit-for-bit (property-tested across all four goal kinds), so
optimal costs and chosen schedules are unchanged.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

from repro.cloud.latency import LatencyModel
from repro.cloud.vm import VMTypeCatalog
from repro.exceptions import SpecificationError
from repro.search.actions import Action, PlaceQuery, ProvisionVM
from repro.search.state import SearchState, freeze_counts
from repro.sla.accumulators import ViolationAccumulator
from repro.sla.base import PerformanceGoal
from repro.workloads.templates import TemplateSet
from repro.workloads.workload import Workload

_INF = float("inf")


def _min_provisioning_cost(
    overflow: float, capacity: float, min_startup: float, rate: float
) -> float:
    """min over k of ``k * min_startup + rate * max(0, overflow - k * capacity)``.

    The inner loop of the deadline-goal provisioning bound, shared by
    :meth:`SchedulingProblem.provisioning_bound` and the two f-value blocks
    inlined in :meth:`SchedulingProblem.expand` so the three sites cannot
    drift apart (the search's bit-identical f-values depend on them agreeing).
    Callers guarantee ``overflow > 0`` and ``capacity > 0``.
    """
    best = _INF
    for new_vms in range(int(overflow // capacity) + 2):
        unplaced = overflow - new_vms * capacity
        cost = new_vms * min_startup + rate * (unplaced if unplaced > 0.0 else 0.0)
        if cost < best:
            best = cost
    return best


class LatencyOutcome(NamedTuple):
    """Lightweight per-query outcome used while searching partial schedules.

    Only the two attributes the SLA classes read (``template_name`` and
    ``latency``) are carried; building full :class:`~repro.core.outcome.QueryOutcome`
    objects for every explored vertex would dominate the search time.  A named
    tuple rather than a dataclass: one is built per placement edge, and tuple
    construction is several times cheaper than a frozen-dataclass ``__init__``.
    """

    template_name: str
    latency: float


@dataclass(slots=True)
class SearchNode:
    """A vertex plus the incremental bookkeeping the search needs.

    ``accumulator`` tracks the partial schedule's violation period
    incrementally (see the module docstring); ``last_vm_index`` caches the
    interned id of the most recent VM's type so successor generation does not
    re-resolve it.  Both default to their "absent" values so lightweight
    runtime contexts (e.g. the batch scheduler) can build nodes without them.
    """

    state: SearchState
    parent: "SearchNode | None"
    action: Action | None
    infra_cost: float
    penalty: float
    outcomes: tuple[LatencyOutcome, ...]
    last_vm_finish: float
    depth: int
    priority: float = field(default=0.0)
    accumulator: ViolationAccumulator | None = field(default=None)
    last_vm_index: int = field(default=-1)
    #: Cached non-monotonic future-cost term of the f-value (-1.0 = not
    #: computed).  Provision edges keep (outcomes, remaining) unchanged, so
    #: their children reuse the parent's term without rebuilding the memo key.
    future_bound: float = field(default=-1.0)
    #: Assigned-latency key for the non-monotonic future-cost memo (``None`` =
    #: not computed).  Maintained incrementally along placement edges — one
    #: ``bisect`` insertion for order-invariant goals, one tuple append
    #: otherwise — so the memo key is never rebuilt (or re-sorted) from the
    #: outcome tuple per generated vertex.
    latency_key: "tuple[float, ...] | None" = field(default=None)
    #: Second, *auxiliary-goal* accumulator carried by retraining searches
    #: (adaptive A*, Section 5): tracks the partial schedule's violation under
    #: the problem's ``aux_goal`` — the *old* goal — copy-on-write exactly like
    #: the primary accumulator.  ``None`` on ordinary searches.
    aux_accumulator: ViolationAccumulator | None = field(default=None)
    #: Partial penalty under the auxiliary goal (``-1.0`` = not carried), read
    #: by :class:`~repro.adaptive.retraining.AdaptiveBound` as an O(1) delta
    #: instead of re-evaluating the old goal over the full outcome tuple.
    aux_penalty: float = field(default=-1.0)
    #: Incremental aggregate maintained by a registered
    #: :class:`~repro.search.bounds.FutureCostBound` along placement edges
    #: (e.g. the tight average bound's running ``(count, sum)``).  ``None``
    #: for the default memoized bound and for externally built nodes.
    bound_state: object = field(default=None)

    @property
    def partial_cost(self) -> float:
        """Cost of the node's partial schedule: infrastructure plus penalty."""
        return self.infra_cost + self.penalty

    def __repr__(self) -> str:
        """Compact, non-recursive rendering (the generated dataclass repr
        would chase the whole ``parent`` chain — useless in a failed property
        test).  Surfaces the incremental bookkeeping a debugging session needs:
        the PR-4 auxiliary penalty and the latency-key / bound-state memo
        inputs alongside the classic cost fields."""
        key = self.latency_key
        key_text = "None" if key is None else f"<{len(key)} latencies>"
        aux = "absent" if self.aux_penalty < 0.0 else f"{self.aux_penalty:.6g}"
        return (
            f"SearchNode(depth={self.depth}, state=[{self.state.describe()}], "
            f"action={self.action!r}, infra={self.infra_cost:.6g}, "
            f"penalty={self.penalty:.6g}, priority={self.priority:.6g}, "
            f"last_vm_finish={self.last_vm_finish:.6g}, "
            f"future_bound={self.future_bound:.6g}, latency_key={key_text}, "
            f"aux_penalty={aux}, bound_state={self.bound_state!r})"
        )

    def debug_dict(self) -> dict:
        """Every field a failed search assertion needs, as plain data.

        Unlike :meth:`__repr__` this keeps the full latency key, so property
        tests can print actionable vertices (``pytest`` truncates nothing).
        """
        return {
            "depth": self.depth,
            "state": self.state.describe(),
            "action": repr(self.action),
            "infra_cost": self.infra_cost,
            "penalty": self.penalty,
            "priority": self.priority,
            "last_vm_finish": self.last_vm_finish,
            "future_bound": self.future_bound,
            "latency_key": self.latency_key,
            "aux_penalty": self.aux_penalty,
            "bound_state": self.bound_state,
            "outcomes": tuple(self.outcomes),
        }

    def path(self) -> list["SearchNode"]:
        """Nodes from the start vertex to this node, inclusive."""
        nodes: list[SearchNode] = []
        node: SearchNode | None = self
        while node is not None:
            nodes.append(node)
            node = node.parent
        nodes.reverse()
        return nodes


class SchedulingProblem:
    """Scheduling-graph construction, reduction, and cost bookkeeping."""

    def __init__(
        self,
        template_counts: Mapping[str, int] | Counter[str],
        templates: TemplateSet,
        vm_types: VMTypeCatalog,
        goal: PerformanceGoal,
        latency_model: LatencyModel,
        aux_goal: PerformanceGoal | None = None,
        future_bound: str = "memoized",
    ) -> None:
        counts = {name: count for name, count in dict(template_counts).items() if count > 0}
        for name in counts:
            if name not in templates:
                raise SpecificationError(f"workload references unknown template {name!r}")
        self._counts = counts
        self._templates = templates
        self._vm_types = vm_types
        self._goal = goal
        self._latency_model = latency_model
        #: Optional second goal whose partial penalty every node carries
        #: incrementally (adaptive A*: the *old* goal of a retraining search,
        #: consumed by :class:`~repro.adaptive.retraining.AdaptiveBound`).
        self._aux_goal = aux_goal
        self._aux_rate = aux_goal.penalty_rate if aux_goal is not None else 0.0
        #: When the old goal differs from the primary only by its deadline and
        #: the primary accumulator's state is deadline-independent (average,
        #: percentile), the old violation is read off the *primary*
        #: accumulator at this deadline — no second accumulator at all.
        self._aux_derived_deadline = (
            goal.derived_aux_deadline(aux_goal) if aux_goal is not None else None
        )
        self._build_tables()
        self._cheapest_execution = self._compute_cheapest_execution()
        #: remaining multiset -> (Equation-3 bound, cheapest remaining work time)
        self._bounds_cache: dict[tuple[tuple[str, int], ...], tuple[float, float]] = {}
        #: remaining multiset -> per-query latency lower bounds (non-monotonic goals)
        self._latency_bounds_cache: dict[tuple[tuple[str, int], ...], list[float]] = {}
        #: (remaining multiset, assigned-latency key) -> future-cost lower bound
        self._future_cost_cache: dict[tuple, float] = {}
        #: Whether the goal's bound may be memoised per assigned-latency *multiset*
        #: (bit-identical under permutation) rather than per exact sequence.
        self._future_bound_order_invariant = bool(
            getattr(goal, "future_bound_order_invariant", False)
        )
        #: Registered future-cost bound in effect for the non-monotonic term.
        #: ``"memoized"`` keeps the inlined default path (no bound object at
        #: all — bit-identical to every release before the registry existed);
        #: any other name instantiates a fresh bound from
        #: :data:`repro.search.bounds.FUTURE_COST_BOUNDS` per problem.
        self._future_bound_name = future_bound or "memoized"
        if self._future_bound_name == "memoized" or self._is_monotonic:
            self._bound_obj = None
        else:
            from repro.search.bounds import create_future_bound

            self._bound_obj = create_future_bound(self._future_bound_name)
            self._bound_obj.attach(self)

    # -- precomputed tables --------------------------------------------------------

    def _build_tables(self) -> None:
        """Intern names to integer ids and precompute dense per-(vm, template) tables."""
        self._tpl_names: tuple[str, ...] = self._templates.names
        self._tpl_id: dict[str, int] = {
            name: index for index, name in enumerate(self._tpl_names)
        }
        self._vm_names: tuple[str, ...] = self._vm_types.names
        self._vm_id: dict[str, int] = {
            name: index for index, name in enumerate(self._vm_names)
        }
        self._startup_costs: list[float] = []
        self._supports_table: list[list[bool]] = []
        self._latency_table: list[list[float]] = []
        self._run_cost_table: list[list[float]] = []
        for vm_type in self._vm_types:
            self._startup_costs.append(vm_type.startup_cost)
            supports_row: list[bool] = []
            latency_row: list[float] = []
            run_cost_row: list[float] = []
            for name in self._tpl_names:
                if vm_type.supports(name):
                    latency = self._latency_model.latency(name, vm_type)
                    supports_row.append(True)
                    latency_row.append(latency)
                    run_cost_row.append(vm_type.running_cost * latency)
                else:
                    supports_row.append(False)
                    latency_row.append(_INF)
                    run_cost_row.append(_INF)
            self._supports_table.append(supports_row)
            self._latency_table.append(latency_row)
            self._run_cost_table.append(run_cost_row)
        self._rate = self._goal.penalty_rate
        self._is_monotonic = bool(self._goal.is_monotonic)
        #: Per-template deadline (or None), resolved once instead of per vertex.
        self._query_deadlines: list[float | None] = [
            self._goal.query_deadline(name) for name in self._tpl_names
        ]
        # Actions are immutable value objects, so one shared instance per
        # template / VM type avoids a frozen-dataclass __init__ per child.
        self._place_actions: list[PlaceQuery] = [
            PlaceQuery(name) for name in self._tpl_names
        ]
        self._provision_actions: list[ProvisionVM] = [
            ProvisionVM(name) for name in self._vm_names
        ]

    # -- constructors -----------------------------------------------------------

    @classmethod
    def for_workload(
        cls,
        workload: Workload,
        vm_types: VMTypeCatalog,
        goal: PerformanceGoal,
        latency_model: LatencyModel,
        aux_goal: PerformanceGoal | None = None,
        future_bound: str = "memoized",
    ) -> "SchedulingProblem":
        """Build the problem for a concrete workload (counts its templates)."""
        return cls(
            template_counts=workload.template_counts(),
            templates=workload.templates,
            vm_types=vm_types,
            goal=goal,
            latency_model=latency_model,
            aux_goal=aux_goal,
            future_bound=future_bound,
        )

    @property
    def aux_goal(self) -> PerformanceGoal | None:
        """The auxiliary goal nodes carry a second accumulator for (or ``None``)."""
        return self._aux_goal

    @property
    def future_bound_name(self) -> str:
        """Name of the registered future-cost bound in effect."""
        return self._future_bound_name

    @property
    def min_startup_cost(self) -> float:
        """Cheapest start-up fee in the VM catalogue (used by the bounds)."""
        return self._min_startup_cost

    # -- accessors ---------------------------------------------------------------

    @property
    def templates(self) -> TemplateSet:
        """The template universe of the workload being scheduled."""
        return self._templates

    @property
    def vm_types(self) -> VMTypeCatalog:
        """The IaaS catalogue available to the scheduler."""
        return self._vm_types

    @property
    def goal(self) -> PerformanceGoal:
        """The performance goal the schedule must satisfy."""
        return self._goal

    @property
    def latency_model(self) -> LatencyModel:
        """The latency estimates used to cost placements."""
        return self._latency_model

    @property
    def template_counts(self) -> dict[str, int]:
        """Number of queries per template in the workload being scheduled."""
        return dict(self._counts)

    # -- initial node ---------------------------------------------------------------

    def initial_node(self) -> SearchNode:
        """The start vertex: nothing provisioned, everything unassigned."""
        state = SearchState.initial(self._counts)
        node = SearchNode(
            state=state,
            parent=None,
            action=None,
            infra_cost=0.0,
            penalty=0.0,
            outcomes=(),
            last_vm_finish=0.0,
            depth=0,
            accumulator=self._goal.search_accumulator(),
        )
        if self._aux_goal is not None:
            if self._aux_derived_deadline is None:
                node.aux_accumulator = self._aux_goal.search_accumulator()
            node.aux_penalty = 0.0
        if self._bound_obj is not None:
            node.bound_state = self._bound_obj.initial_state(self, node)
        node.priority = self.priority(node)
        return node

    # -- successor generation (with the Section 4.3 reductions) ---------------------

    def expand(self, node: SearchNode) -> list[SearchNode]:
        """All successor nodes of *node* in the reduced scheduling graph.

        This is the innermost loop of the A* search: every lookup table is
        hoisted into locals and the per-child work — the dominance pruning of
        queue orders, the incremental penalty update, and the child's f-value
        — is inlined rather than dispatched through helper methods.  The
        inlined f-value computation mirrors :meth:`priority` (kept in sync;
        the property-based search tests compare the two) and the dominance
        rules are documented there:

        * **Adjacent pairwise interchange** (deadline-style goals): swapping
          the candidate with the query most recently placed on the same VM
          leaves every other query's completion time untouched, so if the
          swapped order is strictly cheaper — or equally cheap but in canonical
          (shortest-first) order — the current order is dominated and pruned.
        * **Order-free horizon** (all goals): while the VM's busy time stays
          within :meth:`PerformanceGoal.ordering_horizon`, query order cannot
          affect the penalty at all, so only the canonical order is explored.
        """
        successors: list[SearchNode] = []
        state = node.state
        vms = state.vms
        remaining = state.remaining
        depth = node.depth + 1
        parent_infra = node.infra_cost
        parent_accumulator = node.accumulator
        aux_active = self._aux_goal is not None
        parent_aux = node.aux_accumulator
        aux_rate = self._aux_rate
        aux_derived = self._aux_derived_deadline
        parent_remaining_total = state.remaining_total()
        monotonic = self._is_monotonic
        rate = self._rate
        capacity = self._capacity_deadline
        min_startup = self._min_startup_cost
        new_state = SearchState.__new__
        state_cls = SearchState
        set_attr = object.__setattr__

        # Assigned-latency memo key of the parent, maintained incrementally
        # for the non-monotonic goals (see SearchNode.latency_key).
        parent_key = None if monotonic else self._latency_key_of(node)
        order_invariant = self._future_bound_order_invariant
        bound_obj = self._bound_obj

        # Placement edges: only onto the most recently provisioned VM.
        if vms:
            last_vm_type_name, queue = vms[-1]
            vm_index = node.last_vm_index
            if vm_index < 0:
                vm_index = self._vm_id[last_vm_type_name]
            tpl_id = self._tpl_id
            supports_row = self._supports_table[vm_index]
            latency_row = self._latency_table[vm_index]
            run_cost_row = self._run_cost_table[vm_index]
            query_deadlines = self._query_deadlines
            place_actions = self._place_actions
            finish = node.last_vm_finish
            if queue:
                previous = queue[-1]
                previous_index = tpl_id[previous]
                previous_execution = latency_row[previous_index]
                previous_deadline = query_deadlines[previous_index]
            else:
                previous = None
                previous_execution = previous_deadline = 0.0

            for template_name, _ in remaining:
                template_index = tpl_id[template_name]
                if not supports_row[template_index]:
                    continue
                execution_time = latency_row[template_index]

                # -- dominance pruning of redundant queue orders ------------------
                if previous is not None:
                    candidate_deadline = query_deadlines[template_index]
                    if previous_deadline is not None and candidate_deadline is not None:
                        start = finish - previous_execution
                        pair_total = previous_execution + execution_time
                        current_violation = max(0.0, finish - previous_deadline) + max(
                            0.0, start + pair_total - candidate_deadline
                        )
                        swapped_violation = max(
                            0.0, start + execution_time - candidate_deadline
                        ) + max(0.0, start + pair_total - previous_deadline)
                        if swapped_violation < current_violation - 1e-9:
                            continue
                        if abs(swapped_violation - current_violation) <= 1e-9 and (
                            execution_time < previous_execution
                            or (
                                execution_time == previous_execution
                                and template_name < previous
                            )
                        ):
                            continue
                    else:
                        horizon = self._goal.ordering_horizon(queue, template_name)
                        if finish + execution_time <= horizon and (
                            execution_time < previous_execution
                            or (
                                execution_time == previous_execution
                                and template_name < previous
                            )
                        ):
                            continue

                # -- the placement child, with its incremental penalty ------------
                completion = finish + execution_time
                outcomes = node.outcomes + (LatencyOutcome(template_name, completion),)
                if parent_accumulator is not None:
                    accumulator = parent_accumulator.branch()
                    accumulator.add(template_name, completion)
                    penalty = rate * accumulator.violation()
                else:
                    # Externally built nodes fall back to the batch definition.
                    accumulator = None
                    penalty = self._goal.penalty(outcomes)
                # Successor state, built inline (the validity checks of
                # SearchState.with_placement are redundant here) with its
                # remaining-total cache seeded from the parent's.
                child_state = new_state(state_cls)
                set_attr(
                    child_state,
                    "vms",
                    vms[:-1] + ((last_vm_type_name, queue + (template_name,)),),
                )
                set_attr(
                    child_state,
                    "remaining",
                    tuple(
                        [
                            (name, count - 1) if name == template_name else (name, count)
                            for name, count in remaining
                            if name != template_name or count > 1
                        ]
                    ),
                )
                set_attr(child_state, "_remaining_total", parent_remaining_total - 1)
                infra = parent_infra + run_cost_row[template_index]
                child = SearchNode(
                    child_state,
                    node,
                    place_actions[template_index],
                    infra,
                    penalty,
                    outcomes,
                    completion,
                    depth,
                    0.0,
                    accumulator,
                    vm_index,
                )
                if aux_active:
                    if aux_derived is not None:
                        # The old goal differs only by deadline: read its
                        # violation off the child's primary accumulator (the
                        # running mean / sorted list is deadline-independent).
                        if accumulator is not None:
                            child.aux_penalty = (
                                aux_rate
                                * accumulator.violation_for_deadline(aux_derived)
                            )
                    elif parent_aux is not None:
                        # Second accumulator of retraining searches: the old
                        # goal's penalty, maintained copy-on-write exactly like
                        # the primary one (read by AdaptiveBound in O(1)).
                        aux_accumulator = parent_aux.branch()
                        aux_accumulator.add(template_name, completion)
                        child.aux_accumulator = aux_accumulator
                        child.aux_penalty = aux_rate * aux_accumulator.violation()
                # -- inlined f-value (kept in sync with priority()) ---------------
                child_remaining = child_state.remaining
                if not child_remaining:
                    child.priority = infra + penalty
                else:
                    bounds = self._bounds_cache.get(child_remaining)
                    if bounds is None:
                        bounds = self._compute_remaining_bounds(child_remaining)
                    bound = infra + bounds[0]
                    if monotonic:
                        provisioning = 0.0
                        if capacity is not None:
                            slack = capacity - completion
                            overflow = bounds[1] - (slack if slack > 0.0 else 0.0)
                            if overflow > 0:
                                provisioning = _min_provisioning_cost(
                                    overflow, capacity, min_startup, rate
                                )
                        bound += penalty + provisioning
                    else:
                        # One insertion extends the parent's memo key: a bisect
                        # insert keeps order-invariant keys sorted, an append
                        # preserves the exact sequence for the rest.
                        if order_invariant:
                            position = bisect_right(parent_key, completion)
                            child_key = (
                                parent_key[:position]
                                + (completion,)
                                + parent_key[position:]
                            )
                        else:
                            child_key = parent_key + (completion,)
                        child.latency_key = child_key
                        if bound_obj is None:
                            future = self._future_cost_bound(child_key, child_remaining)
                        else:
                            future = bound_obj.placement_bound(
                                self, node, child, completion
                            )
                        child.future_bound = future
                        bound += future
                    child.priority = bound
                successors.append(child)

        # Start-up edges: only when the last VM is non-empty (or none exists),
        # and only if there is still work to assign.
        if remaining and not (vms and not vms[-1][1]):
            outcomes = node.outcomes
            penalty = node.penalty
            bounds = self._bounds_cache.get(remaining)
            if bounds is None:
                bounds = self._compute_remaining_bounds(remaining)
            startup_costs = self._startup_costs
            provision_actions = self._provision_actions
            for vm_index, vm_type_name in enumerate(self._vm_names):
                infra = parent_infra + startup_costs[vm_index]
                child_state = new_state(state_cls)
                set_attr(child_state, "vms", vms + ((vm_type_name, ()),))
                set_attr(child_state, "remaining", remaining)
                set_attr(child_state, "_remaining_total", parent_remaining_total)
                child = SearchNode(
                    child_state,
                    node,
                    provision_actions[vm_index],
                    infra,
                    penalty,
                    outcomes,
                    0.0,
                    depth,
                    0.0,
                    # Shared with the parent: nodes never mutate their
                    # accumulator after construction (placements branch first).
                    parent_accumulator,
                    vm_index,
                )
                if aux_active:
                    # Provisioning places no query: the old-goal penalty (and
                    # any second accumulator) carries over unchanged.
                    child.aux_accumulator = parent_aux
                    child.aux_penalty = node.aux_penalty
                # -- inlined f-value (kept in sync with priority()) ---------------
                bound = infra + bounds[0]
                if monotonic:
                    provisioning = 0.0
                    if capacity is not None:
                        # The fresh VM is empty, so its slack is the full capacity.
                        overflow = bounds[1] - (capacity if capacity > 0.0 else 0.0)
                        if overflow > 0:
                            provisioning = _min_provisioning_cost(
                                overflow, capacity, min_startup, rate
                            )
                    bound += penalty + provisioning
                else:
                    # (outcomes, remaining) are unchanged by a start-up edge, so
                    # under the default bound the parent's future-cost term and
                    # memo key carry over bit-for-bit.  Registered bounds that
                    # read the busy time must recompute (it resets to 0 here).
                    child.latency_key = parent_key
                    if bound_obj is None:
                        future = node.future_bound
                        if future < 0.0:
                            future = self._future_cost_bound(parent_key, remaining)
                    else:
                        future = bound_obj.provision_bound(self, node, child)
                    child.future_bound = future
                    bound += future
                child.priority = bound
                successors.append(child)
        return successors

    def follow(self, labels: Sequence[str]) -> list[SearchNode] | None:
        """The vertices along the action *labels* from the start vertex, inclusive.

        Re-prices a known path under this problem's goal in O(len(labels)):
        one child per label with the same arithmetic as :meth:`expand`
        (completion = finish + latency, the accumulator branched then
        extended, infrastructure summed in path order), so following a path
        this problem's own search returned reproduces its cost to the bit —
        and no f-value, bound or memo work.  ``None`` when a step is not
        possible here: an unknown label, a placement with no VM or on one
        that does not support the template, or nothing of that template left.

        No dominance rule is applied.  Adaptive retraining follows a path that
        was canonical in a *looser* goal's reduced graph and keeps it only if
        it still costs the same; such a path can be pruned in the stricter
        goal's graph only by an *equal-cost* swap (a strictly cheaper swap
        would contradict the cost equality, and the order-free horizon only
        shrinks), so it is still a minimum-cost schedule.
        """
        node = SearchNode(
            SearchState.initial(self._counts), None, None, 0.0, 0.0, (), 0.0, 0,
            accumulator=self._goal.search_accumulator(),
        )
        nodes = [node]
        provisions = {action.label: i for i, action in enumerate(self._provision_actions)}
        placements = {action.label: i for i, action in enumerate(self._place_actions)}
        for label in labels:
            state = node.state
            if label in provisions:
                vm_index = provisions[label]
                node = SearchNode(
                    state.with_new_vm(self._vm_names[vm_index]),
                    node,
                    self._provision_actions[vm_index],
                    node.infra_cost + self._startup_costs[vm_index],
                    node.penalty,
                    node.outcomes,
                    0.0,
                    node.depth + 1,
                    0.0,
                    node.accumulator,
                    vm_index,
                )
            elif label in placements and node.last_vm_index >= 0:
                vm_index = node.last_vm_index
                template_index = placements[label]
                name = self._tpl_names[template_index]
                if not (
                    self._supports_table[vm_index][template_index]
                    and state.has_remaining(name)
                ):
                    return None
                completion = node.last_vm_finish + self._latency_table[vm_index][template_index]
                accumulator = node.accumulator.branch()
                accumulator.add(name, completion)
                node = SearchNode(
                    state.with_placement(name),
                    node,
                    self._place_actions[template_index],
                    node.infra_cost + self._run_cost_table[vm_index][template_index],
                    self._rate * accumulator.violation(),
                    node.outcomes + (LatencyOutcome(name, completion),),
                    completion,
                    node.depth + 1,
                    0.0,
                    accumulator,
                    vm_index,
                )
            else:
                return None
            nodes.append(node)
        return nodes

    # -- edge costs (Equation 2), used by the cost-of-X feature ----------------------

    def placement_edge_cost(self, node: SearchNode, template_name: str) -> float:
        """Weight of the placement edge for *template_name* out of *node*.

        Equation 2: execution time times the VM's rental rate, plus the change
        in penalty caused by the placement.  Returns ``inf`` when the most
        recent VM cannot process the template (or no VM exists yet).  The
        penalty delta is answered by the node's incremental accumulator in
        O(1)/O(log n) instead of re-evaluating the goal over every placement.
        """
        last = node.state.last_vm()
        if last is None:
            return _INF
        vm_index = self._vm_id[last[0]]
        template_index = self._tpl_id.get(template_name)
        if template_index is None:
            # Unknown template: preserve the historical behaviour (the latency
            # model decides whether to raise or estimate).
            vm_type = self._vm_types[last[0]]
            if not vm_type.supports(template_name):
                return _INF
            execution_time = self._latency_model.latency(template_name, vm_type)
            completion = node.last_vm_finish + execution_time
            outcomes = node.outcomes + (LatencyOutcome(template_name, completion),)
            penalty_delta = self._goal.penalty(outcomes) - node.penalty
            return vm_type.running_cost * execution_time + penalty_delta
        if not self._supports_table[vm_index][template_index]:
            return _INF
        execution_time = self._latency_table[vm_index][template_index]
        completion = node.last_vm_finish + execution_time
        accumulator = node.accumulator
        if accumulator is not None:
            penalty_delta = (
                self._rate * accumulator.violation_with(template_name, completion)
                - node.penalty
            )
        else:
            outcomes = node.outcomes + (LatencyOutcome(template_name, completion),)
            penalty_delta = self._goal.penalty(outcomes) - node.penalty
        return self._run_cost_table[vm_index][template_index] + penalty_delta

    def placement_cost_row(
        self, node: SearchNode, template_names: Sequence[str]
    ) -> list[float]:
        """Equation-2 placement edge weights for many templates at once.

        The row variant of :meth:`placement_edge_cost` used by the vectorized
        feature path (:meth:`~repro.learning.features.FeatureExtractor.extract_into`):
        the most-recent-VM lookup, table rows, and accumulator reference are
        resolved once per vertex instead of once per template.  Entries are
        bit-identical to per-template :meth:`placement_edge_cost` calls, with
        ``inf`` marking infeasible placements.
        """
        last = node.state.last_vm()
        if last is None:
            return [_INF] * len(template_names)
        vm_index = self._vm_id[last[0]]
        supports_row = self._supports_table[vm_index]
        latency_row = self._latency_table[vm_index]
        run_cost_row = self._run_cost_table[vm_index]
        tpl_id = self._tpl_id
        finish = node.last_vm_finish
        accumulator = node.accumulator
        rate = self._rate
        node_penalty = node.penalty
        costs: list[float] = []
        for template_name in template_names:
            template_index = tpl_id.get(template_name)
            if template_index is None:
                # Unknown template: defer to the scalar path's fallback.
                costs.append(self.placement_edge_cost(node, template_name))
                continue
            if not supports_row[template_index]:
                costs.append(_INF)
                continue
            completion = finish + latency_row[template_index]
            if accumulator is not None:
                penalty_delta = (
                    rate * accumulator.violation_with(template_name, completion)
                    - node_penalty
                )
            else:
                outcomes = node.outcomes + (LatencyOutcome(template_name, completion),)
                penalty_delta = self._goal.penalty(outcomes) - node_penalty
            costs.append(run_cost_row[template_index] + penalty_delta)
        return costs

    def startup_edge_cost(self, vm_type_name: str) -> float:
        """Weight of a start-up edge for *vm_type_name* (its provisioning fee)."""
        return self._startup_costs[self._vm_id[vm_type_name]]

    # -- heuristics and priorities ----------------------------------------------------

    def _compute_cheapest_execution(self) -> dict[str, float]:
        cheapest: dict[str, float] = {}
        self._cheapest_time: dict[str, float] = {}
        for name in self._counts:
            template_index = self._tpl_id[name]
            costs = []
            times = []
            for vm_index in range(len(self._vm_names)):
                if not self._supports_table[vm_index][template_index]:
                    continue
                costs.append(self._run_cost_table[vm_index][template_index])
                times.append(self._latency_table[vm_index][template_index])
            if not costs:
                raise SpecificationError(
                    f"no VM type in the catalogue supports template {name!r}"
                )
            cheapest[name] = min(costs)
            self._cheapest_time[name] = min(times)
        self._min_startup_cost = min(self._startup_costs)
        self._capacity_deadline = self._penalty_free_capacity()
        return cheapest

    def _penalty_free_capacity(self) -> float | None:
        """Largest busy time a VM can reach before the goal starts penalising.

        Only defined for the deadline-style monotonic goals (max latency and
        per-query deadlines), where any query completing after the relevant
        deadline accrues violation time.  Used by the provisioning lower bound
        below; ``None`` disables that bound.
        """
        if not self._goal.is_monotonic:
            return None
        deadline = getattr(self._goal, "deadline", None)
        if deadline is None or deadline <= 0:
            return None
        deadlines = getattr(self._goal, "deadlines", None)
        if deadlines:
            relevant = [value for value in dict(deadlines).values()]
            if relevant:
                return max(relevant)
        return float(deadline)

    def _compute_remaining_bounds(
        self, remaining: tuple[tuple[str, int], ...]
    ) -> tuple[float, float]:
        """Compute and cache the remaining-multiset bounds (see :meth:`_remaining_bounds`)."""
        execution = sum(
            self._cheapest_execution[name] * count for name, count in remaining
        )
        work = sum(self._cheapest_time[name] * count for name, count in remaining)
        cached = (execution, work)
        self._bounds_cache[remaining] = cached
        return cached

    def _remaining_bounds(
        self, remaining: tuple[tuple[str, int], ...]
    ) -> tuple[float, float]:
        """(Equation-3 bound, cheapest remaining work time) for a remaining multiset.

        Memoized per multiset: the search revisits the same multisets via many
        paths, and the memo keeps each value bit-identical to a fresh
        evaluation (an incremental parent-minus-contribution running value
        would drift in the last float bits and perturb tie-breaking).
        """
        cached = self._bounds_cache.get(remaining)
        if cached is None:
            cached = self._compute_remaining_bounds(remaining)
        return cached

    def remaining_execution_bound(self, state: SearchState) -> float:
        """Equation 3: cheapest possible execution cost of the unassigned queries."""
        return self._remaining_bounds(state.remaining)[0]

    def heuristic(self, state: SearchState) -> float:
        """Admissible cost-to-go estimate for *state*.

        For monotonically increasing goals this is Equation 3; for other goals
        the same quantity is still a valid lower bound on the *infrastructure*
        part of the remaining cost, so it is used as the cost-to-go term while
        the partial penalty is excluded from the node's g-value (see
        :meth:`priority`).
        """
        return self.remaining_execution_bound(state)

    def provisioning_bound(self, node: SearchNode) -> float:
        """Lower bound on the future provisioning-or-penalty cost at *node*.

        For deadline-style goals every VM can absorb at most ``D`` seconds of
        work before its queue starts violating (``D`` being the deadline, or
        the loosest per-template deadline).  If ``W`` seconds of work remain
        and the most recent VM has ``slack`` seconds of headroom, then any
        completion of the schedule with ``k`` additional VMs pays at least
        ``k`` start-up fees plus penalties for the work that does not fit:

            k * f_s  +  rate * max(0, W - slack - k * D)

        Minimising over ``k`` gives an admissible bound on the cost still to be
        paid *beyond* the pure execution cost of Equation 3.  For goals without
        a per-query deadline semantics the bound is zero.
        """
        capacity = self._capacity_deadline
        if capacity is None or not node.state.remaining:
            return 0.0
        remaining_work = self._remaining_bounds(node.state.remaining)[1]
        slack = 0.0
        if node.state.last_vm() is not None:
            slack = max(0.0, capacity - node.last_vm_finish)
        overflow = remaining_work - slack
        if overflow <= 0:
            return 0.0
        return _min_provisioning_cost(
            overflow, capacity, self._min_startup_cost, self._rate
        )

    def _remaining_latency_bounds(
        self, remaining: tuple[tuple[str, int], ...]
    ) -> list[float]:
        """Per-query latency lower bounds of a remaining multiset (memoized).

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

    def priority(self, node: SearchNode) -> float:
        """A* f-value: a lower bound on the best complete-schedule cost via *node*.

        * Goal vertices use their true cost (infrastructure + penalty).
        * For monotonic goals, internal vertices use
          ``infrastructure + partial penalty + Equation-3 heuristic`` — the
          partial penalty can only grow, so the bound is admissible.
        * For non-monotonic goals the partial penalty is dropped (it may shrink
          as more queries arrive), leaving ``infrastructure + heuristic``,
          which is admissible because penalties are never negative.
        """
        state = node.state
        if state.is_goal():
            return node.partial_cost
        bound = node.infra_cost + self._remaining_bounds(state.remaining)[0]
        if self._is_monotonic:
            bound += node.penalty + self.provisioning_bound(node)
        elif self._bound_obj is None:
            bound += self._future_cost_bound(
                self._latency_key_of(node), state.remaining
            )
        else:
            bound += self._bound_obj.node_bound(self, node)
        return bound

    def _latency_key_of(self, node: SearchNode) -> tuple[float, ...]:
        """The node's assigned-latency memo key, computed once and cached.

        Children built by :meth:`expand` inherit the key incrementally (one
        bisect insertion per placement); this fallback only runs for nodes
        built elsewhere (the initial vertex, runtime contexts, tests).  Goals
        whose bound is permutation-invariant key by the sorted latency
        multiset, the rest by the exact sequence (float sums are
        order-sensitive, and f-values must stay bit-identical).
        """
        key = node.latency_key
        if key is None:
            assigned = tuple(outcome.latency for outcome in node.outcomes)
            if self._future_bound_order_invariant:
                key = tuple(sorted(assigned))
            else:
                key = assigned
            node.latency_key = key
        return key

    def _future_cost_bound(
        self,
        latency_key: tuple[float, ...],
        remaining: tuple[tuple[str, int], ...],
    ) -> float:
        """Memoised non-monotonic future-cost term of the f-value.

        The term depends only on (assigned latencies, remaining multiset);
        provision edges and converging paths revisit the same inputs
        constantly.  ``latency_key`` doubles as the assigned-latency argument
        of the goal hook: for order-invariant goals it is the sorted multiset
        (the hook only reads order statistics, so the value is unchanged), for
        the rest it is the exact placement sequence.
        """
        key = (remaining, latency_key)
        future = self._future_cost_cache.get(key)
        if future is None:
            future = self._goal.future_cost_lower_bound(
                latency_key,
                self._remaining_latency_bounds(remaining),
                self._min_startup_cost,
            )
            self._future_cost_cache[key] = future
        return future

    # -- miscellany ---------------------------------------------------------------------

    def is_goal(self, state: SearchState) -> bool:
        """True when *state* is a goal vertex (complete schedule)."""
        return state.is_goal()

    def total_queries(self) -> int:
        """Number of queries in the workload being scheduled."""
        return sum(self._counts.values())

    def initial_counts(self) -> tuple[tuple[str, int], ...]:
        """Frozen template counts of the workload (canonical order)."""
        return freeze_counts(self._counts)

    def partial_cost_of(self, outcomes: Sequence[LatencyOutcome], infra_cost: float) -> float:
        """Cost of an arbitrary partial schedule description under this goal."""
        return infra_cost + self._goal.penalty(outcomes)
