"""The scheduling-graph search problem (Section 4.3).

:class:`SchedulingProblem` encapsulates everything the A* search needs:

* successor generation with the paper's two graph reductions — a new VM may
  only be provisioned when the most recent VM is non-empty, and queries may
  only be placed on the most recent VM;
* incremental cost bookkeeping per search node: infrastructure cost (start-up
  fees plus rental for executed queries), the partial schedule's SLA penalty,
  and the wait time of the most recent VM;
* the A* f-value: infrastructure, plus the admissible heuristic of Equation 3
  (cheapest possible execution cost of the remaining queries), plus the
  goal's cost-to-go term from a :class:`~repro.search.bounds.FutureCostBound`.

Nodes fully determine their partial schedule, so the best goal vertex found by
the search is the minimum-cost complete schedule regardless of the path taken
to reach it.

Hot-path architecture
---------------------

The search core is built around *incremental state* and *precomputed tables*
so that the per-vertex work is O(1)-ish rather than proportional to the number
of queries already placed:

* **One hook for the lower bound.**  :meth:`SchedulingProblem._price` is the
  only place an f-value is computed: ``expand`` calls it once per child and
  :meth:`~SchedulingProblem.priority` calls it on a node.  The goal-dependent
  term comes from the problem's bound — :class:`~repro.search.bounds.ProvisioningBound`
  for monotonic goals, the registered ``future_bound`` for the others — which
  receives the memoised Equation-3 tuple and may keep incremental state on
  the child.  A retraining search's adaptive bound ``h'`` (Section 5), passed
  to the constructor, composes there too: the f-value is ``max(f, h'(v))``,
  so every strategy orders its frontier by the same number.
* **Incremental penalties.**  Every :class:`SearchNode` carries a copy-on-write
  :class:`~repro.sla.accumulators.ViolationAccumulator` (obtained from
  :meth:`~repro.sla.base.PerformanceGoal.search_accumulator`) describing its
  partial schedule.  A placement edge branches the parent's accumulator and
  records one completion, so node penalties and Equation-2 edge weights are
  O(1)/O(log n) deltas instead of ``goal.penalty(outcomes)`` scans over the
  whole outcome tuple (which made each optimal path quadratic).  Retraining
  searches carry a *second* accumulator for the adaptive bound's ``aux_goal``
  — the old goal — maintained the same copy-on-write way, so ``h'``'s
  ``cost(R, v)`` term is an O(1) read too.
* **Interned ids and dense tables.**  Template names and VM type names are
  interned to integer ids at problem construction, and per-``(vm, template)``
  latency, execution-cost, and supports tables are precomputed, so ``expand``,
  ``_place``, and the dominance checks stop doing string-keyed dict walks and
  attribute lookups per node.  Each node caches the integer id of its most
  recent VM.
* **Memoized remaining-work terms.**  The Equation-3 heuristic and the
  cheapest remaining work time depend only on the *remaining* multiset, which
  the search revisits constantly, so they are memoized per multiset.  (A
  parent-minus-placed-contribution running value would also be O(1), but
  floating-point subtraction is inexact and would perturb tie-breaking;
  memoization keeps every f-value bit-identical to a fresh evaluation.)

The accumulators agree with the batch :meth:`PerformanceGoal.penalty`
definition bit-for-bit (property-tested across all four goal kinds), so
optimal costs and chosen schedules are unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

from repro.cloud.latency import LatencyModel
from repro.cloud.vm import VMTypeCatalog
from repro.exceptions import SpecificationError
from repro.search.actions import Action, PlaceQuery, ProvisionVM
from repro.search.bounds import ProvisioningBound, create_future_bound
from repro.search.state import SearchState
from repro.sla.accumulators import ViolationAccumulator
from repro.sla.base import PerformanceGoal
from repro.workloads.templates import TemplateSet
from repro.workloads.workload import Workload

_INF = float("inf")


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
    #: The memoized bound's term of the f-value (-1.0 = not computed).
    #: Provision edges keep (outcomes, remaining) unchanged, so their children
    #: reuse the parent's term without rebuilding the memo key.
    future_bound: float = field(default=-1.0)
    #: Assigned-latency key of the memoized and tight bounds (``None`` = not
    #: computed).  Maintained incrementally along placement edges — one
    #: ``bisect`` insertion for order-invariant goals, one tuple append
    #: otherwise — so the memo key is never rebuilt (or re-sorted) from the
    #: outcome tuple per generated vertex.
    latency_key: "tuple[float, ...] | None" = field(default=None)
    #: Second, *auxiliary-goal* accumulator carried by retraining searches
    #: (adaptive A*, Section 5): tracks the partial schedule's violation under
    #: the adaptive bound's ``aux_goal`` — the *old* goal — copy-on-write exactly like
    #: the primary accumulator.  ``None`` on ordinary searches.
    aux_accumulator: ViolationAccumulator | None = field(default=None)
    #: Partial penalty under the auxiliary goal (``-1.0`` = not carried), read
    #: by :class:`~repro.adaptive.retraining.AdaptiveBound` as an O(1) delta
    #: instead of re-evaluating the old goal over the full outcome tuple.
    aux_penalty: float = field(default=-1.0)
    #: Incremental aggregate maintained by the problem's
    #: :class:`~repro.search.bounds.FutureCostBound` along placement edges
    #: (e.g. the tight average bound's running ``(count, sum)``).  ``None``
    #: for bounds that keep none and for externally built nodes.
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
        future_bound: str = "memoized",
        adaptive_bound: Callable[[SearchNode], float] | None = None,
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
        #: Optional admissible bound the f-value is raised to (adaptive A*'s
        #: ``h'``, :class:`~repro.adaptive.retraining.AdaptiveBound`).
        self._adaptive_bound = adaptive_bound
        #: The goal whose partial penalty every node carries incrementally
        #: when the adaptive bound advertises one (the *old* goal of a
        #: retraining search), so ``h'`` reads it in O(1).
        aux_goal = getattr(adaptive_bound, "aux_goal", None)
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
        #: The cost-to-go term of every f-value: the provisioning bound for
        #: monotonic goals, a fresh registered bound (``future_bound``) for
        #: the rest.
        bound = self._bound = (
            ProvisioningBound()
            if goal.is_monotonic
            else create_future_bound(future_bound or "memoized")
        )
        bound.attach(self)
        # Bound once: _price calls one of these per generated vertex.
        self._placement_term = bound.placement_bound
        self._provision_term = bound.provision_bound
        self._node_term = bound.node_bound

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
        future_bound: str = "memoized",
        adaptive_bound: Callable[[SearchNode], float] | None = None,
    ) -> "SchedulingProblem":
        """Build the problem for a concrete workload (counts its templates)."""
        return cls(
            template_counts=workload.template_counts(),
            templates=workload.templates,
            vm_types=vm_types,
            goal=goal,
            latency_model=latency_model,
            future_bound=future_bound,
            adaptive_bound=adaptive_bound,
        )

    @property
    def min_startup_cost(self) -> float:
        """Cheapest start-up fee in the VM catalogue (used by the bounds)."""
        return self._min_startup_cost

    @property
    def cheapest_time(self) -> dict[str, float]:
        """Cheapest latency of each workload template over the catalogue (used by the bounds)."""
        return self._cheapest_time

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
        node.bound_state = self._bound.initial_state(node)
        node.priority = self._price(None, node, None)
        return node

    # -- successor generation (with the Section 4.3 reductions) ---------------------

    def expand(self, node: SearchNode) -> list[SearchNode]:
        """All successor nodes of *node* in the reduced scheduling graph.

        This is the innermost loop of the A* search: every lookup table is
        hoisted into locals and the per-child work — the dominance pruning of
        queue orders and the incremental penalty update — is inlined rather
        than dispatched through helper methods.  Each child's f-value is one
        :meth:`_price` call, the same hook :meth:`priority` uses.  The
        dominance rules:

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
        rate = self._rate
        price = self._price
        new_state = SearchState.__new__
        state_cls = SearchState
        set_attr = object.__setattr__

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
                accumulator = parent_accumulator.branch()
                accumulator.add(template_name, completion)
                penalty = rate * accumulator.violation()
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
                        child.aux_penalty = (
                            aux_rate * accumulator.violation_for_deadline(aux_derived)
                        )
                    elif parent_aux is not None:
                        # Second accumulator of retraining searches: the old
                        # goal's penalty, maintained copy-on-write exactly like
                        # the primary one (read by AdaptiveBound in O(1)).
                        aux_accumulator = parent_aux.branch()
                        aux_accumulator.add(template_name, completion)
                        child.aux_accumulator = aux_accumulator
                        child.aux_penalty = aux_rate * aux_accumulator.violation()
                child.priority = price(node, child, completion)
                successors.append(child)

        # Start-up edges: only when the last VM is non-empty (or none exists),
        # and only if there is still work to assign.
        if remaining and not (vms and not vms[-1][1]):
            outcomes = node.outcomes
            penalty = node.penalty
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
                child.priority = price(node, child, None)
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

    # -- the A* f-value ----------------------------------------------------------------

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
        return cheapest

    def _compute_remaining_bounds(
        self, remaining: tuple[tuple[str, int], ...]
    ) -> tuple[float, float]:
        """(Equation-3 bound, cheapest remaining work time) for a remaining multiset.

        Memoized per multiset: the search revisits the same multisets via many
        paths, and the memo keeps each value bit-identical to a fresh
        evaluation (an incremental parent-minus-contribution running value
        would drift in the last float bits and perturb tie-breaking).
        """
        execution = sum(
            self._cheapest_execution[name] * count for name, count in remaining
        )
        work = sum(self._cheapest_time[name] * count for name, count in remaining)
        cached = (execution, work)
        self._bounds_cache[remaining] = cached
        return cached

    def priority(self, node: SearchNode) -> float:
        """A* f-value of *node*, computed from scratch (see :meth:`_price`)."""
        return self._price(None, node, None)

    def _price(
        self, parent: SearchNode | None, child: SearchNode, completion: float | None
    ) -> float:
        """A* f-value: a lower bound on the best complete-schedule cost via *child*.

        * Goal vertices use their true cost (infrastructure + penalty).
        * Other vertices use ``infrastructure + Equation 3 + term``, where the
          problem's :class:`~repro.search.bounds.FutureCostBound` supplies the
          term: from the edge that built *child* out of *parent* (a placement
          completing at *completion*, or a provisioning when that is
          ``None``), or from scratch when *parent* is ``None``.
        * A retraining search raises the result to the adaptive bound ``h'``.

        The one place the f-value is computed, for :meth:`expand`'s children
        and :meth:`priority` alike.
        """
        remaining = child.state.remaining
        if remaining:
            bounds = self._bounds_cache.get(remaining)
            if bounds is None:
                bounds = self._compute_remaining_bounds(remaining)
            if completion is not None:
                term = self._placement_term(parent, child, completion, bounds)
            elif parent is not None:
                term = self._provision_term(parent, child, bounds)
            else:
                term = self._node_term(child, bounds)
            f = child.infra_cost + bounds[0] + term
        else:
            f = child.infra_cost + child.penalty
        adaptive_bound = self._adaptive_bound
        if adaptive_bound is not None:
            extra = adaptive_bound(child)
            if extra > f:
                f = extra
        return f
