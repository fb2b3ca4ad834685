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

A known path needs none of that machinery: :meth:`SchedulingProblem.walk`
steps one reusable vertex along its action labels with :meth:`expand`'s
arithmetic and returns its cost.  Training labels every path that way, a
searched one and a kept one alike (:meth:`FeatureExtractor.matrix
<repro.learning.features.FeatureExtractor.matrix>`).

Hot-path architecture
---------------------

The reduced graph is a *tree*: a vertex whose most recent VM is empty was
reached by provisioning that VM, any other by placing the last query of its
queue, so every vertex has exactly one parent and no two paths meet
(``tests/test_search_tree.py`` enumerates the oracle grid to check it).  The
search therefore keeps no closed set and hashes no state, and the per-vertex
work is built around that:

* **Price first, build on pop.**  :meth:`SchedulingProblem.expand` returns
  each child *priced* — its f-value and the few numbers needed to build it —
  computed from the parent alone: the placement's penalty comes from the
  parent accumulator's non-mutating ``violation_with`` (bit-identical to
  branch + add + violation), a retraining search's old-goal penalty from
  ``violation_with`` / ``violation_for_deadline_with`` in the same way.  A
  strategy builds the child's :class:`SearchNode` — its accumulator branch,
  VM tuple and :class:`~repro.search.state.SearchState` — with
  :meth:`SchedulingProblem.child` only when it pops the child, which most
  children never are.  No node carries its outcome tuple; the rare reader
  (a fallback adaptive bound, a test) walks the parent chain
  (:attr:`SearchNode.outcomes`).
* **One row per remaining multiset.**  The problem numbers each remaining
  multiset by a mixed-radix integer over the workload's templates in name
  order; a placement subtracts the placed template's weight.  The first
  visit to a code builds its :class:`RemainingRow`: the templates present
  (name order, with id and weight), their count, the Equation-3 bound and
  the cheapest remaining work, and the canonical ``remaining`` tuple.  Rows
  are built lazily: an eager table of every code would cost more than a
  whole search, and a 30-query workload has about a million codes.  The
  sums are fresh evaluations per multiset, never a parent-minus-placement
  running value, whose last float bits would drift and perturb tie-breaking.
* **One hook for the lower bound.**  The goal-dependent term of every
  f-value comes from the problem's bound —
  :class:`~repro.search.bounds.ProvisioningBound` for monotonic goals,
  :class:`~repro.search.bounds.MemoizedGoalBound` for the others — through
  its placement, provisioning and from-scratch hooks.  A retraining search's
  adaptive bound ``h'`` (Section 5), passed to the constructor, composes on
  top: the f-value is ``max(f, h'(v))``, so every strategy orders its
  frontier by the same number, and :meth:`SchedulingProblem.priority`
  recomputes it from scratch to the bit.
* **Interned ids and dense tables.**  Template names and VM type names are
  interned to integer ids at problem construction, and per-``(vm, template)``
  latency, execution-cost, and supports tables are precomputed, so ``expand``
  and the dominance checks stop doing string-keyed dict walks and attribute
  lookups per child.  Each node caches the integer id of its most recent VM.

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
from repro.search.bounds import MemoizedGoalBound, ProvisioningBound
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
    objects for explored vertices would dominate the search time.
    """

    template_name: str
    latency: float


#: An adaptive bound ``h'`` (Section 5): called as
#: ``bound(infra_cost, penalty, aux_penalty, outcomes)`` with a vertex's
#: infrastructure cost, its penalty under the problem's goal, and its penalty
#: under the bound's ``aux_goal`` — or ``-1.0`` when the bound advertises
#: none, in which case *outcomes* holds the vertex's outcomes (``None``
#: otherwise).  Returns a lower bound on the best complete-schedule cost
#: through the vertex.
AdaptiveBoundFn = Callable[[float, float, float, "Sequence[LatencyOutcome] | None"], float]


class RemainingRow:
    """One remaining multiset of a problem, built on the first visit to its code.

    The problem numbers each multiset by a mixed-radix integer over its
    workload's templates in name order (:meth:`SchedulingProblem.row`).
    """

    __slots__ = ("code", "present", "count", "execution", "work", "remaining")

    def __init__(
        self,
        code: int,
        present: tuple[tuple[int, int, str], ...],
        count: int,
        execution: float,
        work: float,
        remaining: tuple[tuple[str, int], ...],
    ) -> None:
        #: The multiset's mixed-radix code.
        self.code = code
        #: ``(template id, code weight, name)`` of each template with a query
        #: left, in name order: placing one subtracts its weight from the code.
        self.present = present
        #: Number of unassigned queries.
        self.count = count
        #: Equation 3: cheapest possible execution cost of the multiset.
        self.execution = execution
        #: Cheapest possible total work time of the multiset.
        self.work = work
        #: The canonical ``SearchState.remaining`` tuple.
        self.remaining = remaining


@dataclass(slots=True)
class SearchNode:
    """A vertex plus the incremental bookkeeping the search needs.

    ``accumulator`` tracks the partial schedule's violation period
    incrementally (see the module docstring); ``last_vm_index`` caches the
    interned id of the most recent VM's type and ``row`` the remaining
    multiset's row, so successor generation resolves neither.  They default
    to their "absent" values so lightweight runtime contexts (e.g. the batch
    scheduler) can build nodes without them.
    """

    state: SearchState
    parent: "SearchNode | None"
    action: Action | None
    infra_cost: float
    penalty: float
    last_vm_finish: float
    depth: int
    priority: float = field(default=0.0)
    accumulator: ViolationAccumulator | None = field(default=None)
    last_vm_index: int = field(default=-1)
    #: The bound's term of the f-value (-1.0 = not computed).  Provision
    #: edges keep (outcomes, remaining) unchanged, so the memoized bound
    #: reuses it for them without rebuilding the memo key.
    future_term: float = field(default=-1.0)
    #: Assigned-latency key of the memoized bound (``None`` = not
    #: computed).  Maintained incrementally along placement edges — one
    #: ``bisect`` insertion for order-invariant goals, one tuple append
    #: otherwise — so the memo key is never rebuilt (or re-sorted) from the
    #: outcomes per generated vertex.
    latency_key: "tuple[float, ...] | None" = field(default=None)
    #: Second, *auxiliary-goal* accumulator carried by retraining searches
    #: (adaptive A*, Section 5): tracks the partial schedule's violation under
    #: the adaptive bound's ``aux_goal`` — the *old* goal — copy-on-write exactly like
    #: the primary accumulator.  ``None`` on ordinary searches.
    aux_accumulator: ViolationAccumulator | None = field(default=None)
    #: Partial penalty under the auxiliary goal (``-1.0`` = not carried), read
    #: by :class:`~repro.adaptive.retraining.AdaptiveBound` as an O(1) delta
    #: instead of re-evaluating the old goal over the outcomes.
    aux_penalty: float = field(default=-1.0)
    #: The remaining multiset's row: set on every node a problem builds
    #: (``None`` on the reusable vertices of :meth:`SchedulingProblem.walk`
    #: and the batch scheduler, which are never expanded or priced).
    row: RemainingRow | None = field(default=None)

    @property
    def partial_cost(self) -> float:
        """Cost of the node's partial schedule: infrastructure plus penalty."""
        return self.infra_cost + self.penalty

    @property
    def outcomes(self) -> tuple[LatencyOutcome, ...]:
        """The partial schedule's query completions, in placement order.

        Read off the parent chain (a placement's completion is its node's
        ``last_vm_finish``), so it costs O(depth): nodes do not carry it.
        """
        outcomes = [
            LatencyOutcome(node.action.template_name, node.last_vm_finish)
            for node in self.path()
            if isinstance(node.action, PlaceQuery)
        ]
        return tuple(outcomes)

    def __repr__(self) -> str:
        """Compact, non-recursive rendering (the generated dataclass repr
        would chase the whole ``parent`` chain — useless in a failed property
        test).  Surfaces the incremental bookkeeping a debugging session needs:
        the auxiliary penalty and the latency-key memo input alongside the
        classic cost fields."""
        key = self.latency_key
        key_text = "None" if key is None else f"<{len(key)} latencies>"
        aux = "absent" if self.aux_penalty < 0.0 else f"{self.aux_penalty:.6g}"
        return (
            f"SearchNode(depth={self.depth}, state=[{self.state.describe()}], "
            f"action={self.action!r}, infra={self.infra_cost:.6g}, "
            f"penalty={self.penalty:.6g}, priority={self.priority:.6g}, "
            f"last_vm_finish={self.last_vm_finish:.6g}, "
            f"future_term={self.future_term:.6g}, latency_key={key_text}, "
            f"aux_penalty={aux})"
        )

    def path(self) -> list["SearchNode"]:
        """Nodes from the start vertex to this node, inclusive."""
        nodes: list[SearchNode] = []
        node: SearchNode | None = self
        while node is not None:
            nodes.append(node)
            node = node.parent
        nodes.reverse()
        return nodes


#: A child priced by :meth:`SchedulingProblem.expand` and not built yet:
#: ``(f, count, -serial, parent, action, completion, infra_cost, penalty,
#: row, latency_key, future_term, aux_penalty)``.  It is its own A* frontier
#: entry: ``f``, the queries left (``count``) and the negated generation
#: serial lead, so entries order by f-value, then fewer queries left, then
#: the most recently generated, and never compare past the unique serial.
#: ``action`` is a template id for a placement and ``-1 - vm type id`` for a
#: provisioning.
PricedChild = tuple


class SchedulingProblem:
    """Scheduling-graph construction, reduction, and cost bookkeeping."""

    def __init__(
        self,
        template_counts: Mapping[str, int] | Counter[str],
        templates: TemplateSet,
        vm_types: VMTypeCatalog,
        goal: PerformanceGoal,
        latency_model: LatencyModel,
        adaptive_bound: AdaptiveBoundFn | None = None,
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
        #: Mixed-radix code of the remaining multisets: the workload's
        #: templates in name order as ``(name, id, count + 1, weight, cheapest
        #: execution cost, cheapest time)``, the weight being the product of
        #: ``count + 1`` over the templates before.
        self._radix: list[tuple[str, int, int, int, float, float]] = []
        weight = 1
        for name in sorted(counts):
            self._radix.append(
                (
                    name,
                    self._tpl_id[name],
                    counts[name] + 1,
                    weight,
                    self._cheapest_execution[name],
                    self._cheapest_time[name],
                )
            )
            weight *= counts[name] + 1
        self._start_code = weight - 1  # every digit at its maximum
        #: code -> row, for every code visited so far.
        self._rows: dict[int, RemainingRow] = {}
        #: Children priced so far: numbers each in generation order.
        self._serial = 0
        #: The cost-to-go term of every f-value, picked by the goal alone: the
        #: provisioning bound for monotonic goals, the goal's memoised hook for
        #: the rest (a fresh instance: bounds hold per-problem memo tables).
        bound = ProvisioningBound() if goal.is_monotonic else MemoizedGoalBound()
        bound.attach(self)
        # Bound once: expand calls one of these per child.
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
        #: Action label -> VM type id / template id, for :meth:`walk`.
        self._provision_of = {
            action.label: index for index, action in enumerate(self._provision_actions)
        }
        self._place_of = {
            action.label: index for index, action in enumerate(self._place_actions)
        }

    # -- constructors -----------------------------------------------------------

    @classmethod
    def for_workload(
        cls,
        workload: Workload,
        vm_types: VMTypeCatalog,
        goal: PerformanceGoal,
        latency_model: LatencyModel,
        adaptive_bound: AdaptiveBoundFn | None = None,
    ) -> "SchedulingProblem":
        """Build the problem for a concrete workload (counts its templates)."""
        return cls(
            template_counts=workload.template_counts(),
            templates=workload.templates,
            vm_types=vm_types,
            goal=goal,
            latency_model=latency_model,
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
        node = SearchNode(
            state=SearchState.initial(self._counts),
            parent=None,
            action=None,
            infra_cost=0.0,
            penalty=0.0,
            last_vm_finish=0.0,
            depth=0,
            accumulator=self._goal.accumulator(),
            row=self.row(self._start_code),
        )
        if self._aux_goal is not None:
            if self._aux_derived_deadline is None:
                node.aux_accumulator = self._aux_goal.accumulator()
            node.aux_penalty = 0.0
        node.priority = self.priority(node)
        return node

    # -- successor generation (with the Section 4.3 reductions) ---------------------

    def expand(self, node: SearchNode) -> list[PricedChild]:
        """Every successor of *node* in the reduced scheduling graph, priced.

        Each entry is a :data:`PricedChild`: the child's f-value, queries
        left and generation serial, then what :meth:`child` needs to build
        it.  Nothing is built here: the f-value comes from *node* and the
        child's row alone (see the module docstring), so a child the search
        never pops costs one tuple.  This is the innermost loop of the A*
        search: every lookup table is hoisted into locals and the per-child
        work — the dominance pruning of queue orders and the penalty prices —
        is inlined.  The dominance rules:

        * **Adjacent pairwise interchange** (deadline-style goals): swapping
          the candidate with the query most recently placed on the same VM
          leaves every other query's completion time untouched, so if the
          swapped order is strictly cheaper — or equally cheap but in canonical
          (shortest-first) order — the current order is dominated and pruned.
        * **Order-free horizon** (all goals): while the VM's busy time stays
          within :meth:`PerformanceGoal.ordering_horizon`, query order cannot
          affect the penalty at all, so only the canonical order is explored.
        """
        successors: list[PricedChild] = []
        append = successors.append
        vms = node.state.vms
        row = node.row
        code = row.code
        rows = self._rows
        parent_infra = node.infra_cost
        parent_accumulator = node.accumulator
        aux_active = self._aux_goal is not None
        parent_aux = node.aux_accumulator
        aux_rate = self._aux_rate
        aux_derived = self._aux_derived_deadline
        adaptive_bound = self._adaptive_bound
        # A bound that advertises no aux_goal re-evaluates the old goal over
        # the child's outcomes, read once per expansion off the parent chain.
        parent_outcomes = (
            node.outcomes if adaptive_bound is not None and not aux_active else None
        )
        rate = self._rate
        serial = self._serial

        # Placement edges: only onto the most recently provisioned VM.
        if vms:
            queue = vms[-1][1]
            vm_index = node.last_vm_index
            tpl_id = self._tpl_id
            supports_row = self._supports_table[vm_index]
            latency_row = self._latency_table[vm_index]
            run_cost_row = self._run_cost_table[vm_index]
            query_deadlines = self._query_deadlines
            placement_term = self._placement_term
            violation_with = parent_accumulator.violation_with
            finish = node.last_vm_finish
            if queue:
                previous = queue[-1]
                previous_index = tpl_id[previous]
                previous_execution = latency_row[previous_index]
                previous_deadline = query_deadlines[previous_index]
            else:
                previous = None
                previous_execution = previous_deadline = 0.0

            for template_index, weight, template_name in row.present:
                if not supports_row[template_index]:
                    continue
                execution_time = latency_row[template_index]

                # -- dominance pruning of redundant queue orders ------------------
                if previous is not None:
                    candidate_deadline = query_deadlines[template_index]
                    if previous_deadline is not None and candidate_deadline is not None:
                        start = finish - previous_execution
                        pair_total = previous_execution + execution_time
                        # max(0.0, x), spelled out: four per candidate.
                        late = finish - previous_deadline
                        later = start + pair_total - candidate_deadline
                        current_violation = (late if late > 0.0 else 0.0) + (
                            later if later > 0.0 else 0.0
                        )
                        late = start + execution_time - candidate_deadline
                        later = start + pair_total - previous_deadline
                        swapped_violation = (late if late > 0.0 else 0.0) + (
                            later if later > 0.0 else 0.0
                        )
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

                # -- the placement child, priced from the parent ------------------
                completion = finish + execution_time
                penalty = rate * violation_with(template_name, completion)
                infra = parent_infra + run_cost_row[template_index]
                child_row = rows.get(code - weight)
                if child_row is None:
                    child_row = self.row(code - weight)
                count = child_row.count
                if count:
                    term, key = placement_term(node, child_row, completion, penalty)
                    f = infra + child_row.execution + term
                else:
                    term, key = -1.0, None
                    f = infra + penalty
                aux_penalty = -1.0
                if aux_active:
                    if aux_derived is not None:
                        # The old goal differs only by deadline: its violation
                        # reads off the primary accumulator (the running mean /
                        # sorted list is deadline-independent).
                        aux_penalty = aux_rate * parent_accumulator.violation_for_deadline_with(
                            template_name, completion, aux_derived
                        )
                    elif parent_aux is not None:
                        aux_penalty = aux_rate * parent_aux.violation_with(
                            template_name, completion
                        )
                if adaptive_bound is not None:
                    extra = adaptive_bound(
                        infra,
                        penalty,
                        aux_penalty,
                        None
                        if parent_outcomes is None
                        else parent_outcomes + (LatencyOutcome(template_name, completion),),
                    )
                    if extra > f:
                        f = extra
                serial += 1
                append(
                    (
                        f,
                        count,
                        -serial,
                        node,
                        template_index,
                        completion,
                        infra,
                        penalty,
                        child_row,
                        key,
                        term,
                        aux_penalty,
                    )
                )

        # Start-up edges: only when the last VM is non-empty (or none exists),
        # and only if there is still work to assign.  Provisioning places no
        # query, so every such child shares the parent's row, penalty,
        # old-goal penalty and bound term.
        count = row.count
        if count and not (vms and not vms[-1][1]):
            penalty = node.penalty
            aux_penalty = node.aux_penalty
            term, key = self._provision_term(node, row)
            execution = row.execution
            startup_costs = self._startup_costs
            for vm_index in range(len(startup_costs)):
                infra = parent_infra + startup_costs[vm_index]
                f = infra + execution + term
                if adaptive_bound is not None:
                    extra = adaptive_bound(infra, penalty, aux_penalty, parent_outcomes)
                    if extra > f:
                        f = extra
                serial += 1
                append(
                    (
                        f,
                        count,
                        -serial,
                        node,
                        -1 - vm_index,
                        0.0,
                        infra,
                        penalty,
                        row,
                        key,
                        term,
                        aux_penalty,
                    )
                )
        self._serial = serial
        return successors

    def child(self, priced: PricedChild) -> SearchNode:
        """Build the node of *priced*, a child :meth:`expand` returned.

        A placement branches the parent's accumulators and records the
        placement (the state the price was read from, so the node's penalty
        is the priced one to the bit); a provisioning shares them.
        """
        (
            priority,
            _,
            _,
            parent,
            action,
            completion,
            infra,
            penalty,
            row,
            key,
            term,
            aux_penalty,
        ) = priced
        vms = parent.state.vms
        state = SearchState.__new__(SearchState)
        state_dict = state.__dict__
        if action >= 0:
            name = self._tpl_names[action]
            vm_type_name, queue = vms[-1]
            state_dict["vms"] = vms[:-1] + ((vm_type_name, queue + (name,)),)
            accumulator = parent.accumulator.branch()
            accumulator.add(name, completion)
            aux_accumulator = parent.aux_accumulator
            if aux_accumulator is not None:
                aux_accumulator = aux_accumulator.branch()
                aux_accumulator.add(name, completion)
            vm_index = parent.last_vm_index
            action_taken: Action = self._place_actions[action]
        else:
            vm_index = -1 - action
            state_dict["vms"] = vms + ((self._vm_names[vm_index], ()),)
            accumulator = parent.accumulator
            aux_accumulator = parent.aux_accumulator
            action_taken = self._provision_actions[vm_index]
        state_dict["remaining"] = row.remaining
        return SearchNode(
            state,
            parent,
            action_taken,
            infra,
            penalty,
            completion,
            parent.depth + 1,
            priority,
            accumulator,
            vm_index,
            term,
            key,
            aux_accumulator,
            aux_penalty,
            row,
        )

    def walk(
        self, labels: Sequence[str], visit: Callable[[int, SearchNode], object]
    ) -> float | None:
        """Step one reusable vertex along the action *labels*; the path's cost.

        ``visit(index, vertex)`` is called at the vertex where ``labels[index]``
        is taken, before the step.  Nothing is rebuilt per step: like the
        runtime kernel (:class:`~repro.runtime.batch.PlacementKernel`), its
        state holds running values — the unassigned count per template and
        the most recent VM's type and queue — and each step updates them, the
        infrastructure cost and the wait time in place, with the goal's
        accumulator added to rather than branched (a walk never branches).
        So *visit* may read the vertex only while it runs, through what a
        feature row reads (the most recent VM, the remaining multiset and
        name set, ``last_vm_finish``, ``accumulator``, ``penalty``).  The
        arithmetic is :meth:`expand`'s, so walking a path this problem's own
        search returned reproduces its cost to the bit, with no f-value,
        bound or memo work.

        Returns infrastructure plus penalty of the complete schedule, or
        ``None`` when a step is not possible here — an unknown label, a
        placement with no VM, on a type that does not support the template,
        or with nothing of that template left — or the path leaves queries
        unassigned.

        No dominance rule is applied.  Adaptive retraining walks a path that
        was canonical in a *looser* goal's reduced graph and keeps it only if
        it still costs the same; such a path can be pruned in the stricter
        goal's graph only by an *equal-cost* swap (a strictly cheaper swap
        would contradict the cost equality, and the order-free horizon only
        shrinks), so it is still a minimum-cost schedule.
        """
        # Unassigned queries per template in name order, an entry dropped at
        # zero: the live views are the vertex's remaining multiset and names.
        remaining = {name: self._counts[name] for name in sorted(self._counts)}
        queue: list[str] = []
        state = SearchState.__new__(SearchState)
        state_dict = state.__dict__
        state_dict.update(
            vms=(), remaining=remaining.items(), _remaining_names=remaining.keys()
        )
        accumulator = self._goal.accumulator()
        node = SearchNode(state, None, None, 0.0, 0.0, 0.0, 0, accumulator=accumulator)
        provision_of = self._provision_of
        place_of = self._place_of
        rate = self._rate
        vm_index = -1
        for index, label in enumerate(labels):
            visit(index, node)
            provisioned = provision_of.get(label)
            if provisioned is not None:
                vm_index = provisioned
                queue = []
                state_dict["vms"] = ((self._vm_names[vm_index], queue),)
                node.infra_cost += self._startup_costs[vm_index]
                node.last_vm_finish = 0.0
                continue
            template_index = place_of.get(label)
            if (
                template_index is None
                or vm_index < 0
                or not self._supports_table[vm_index][template_index]
            ):
                return None
            name = self._tpl_names[template_index]
            left = remaining.get(name)
            if left is None:
                return None
            if left > 1:
                remaining[name] = left - 1
            else:
                del remaining[name]
            completion = node.last_vm_finish + self._latency_table[vm_index][template_index]
            accumulator.add(name, completion)
            node.infra_cost += self._run_cost_table[vm_index][template_index]
            node.penalty = rate * accumulator.violation()
            node.last_vm_finish = completion
            queue.append(name)
        if remaining:
            return None
        return node.infra_cost + node.penalty

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

    def row(self, code: int) -> RemainingRow:
        """The row of the remaining multiset numbered *code*, built on first use.

        Digit ``i`` of the code, in the mixed radix of ``count + 1`` per
        template (name order), is how many queries of template ``i`` are
        left.  The sums add one term per template in the canonical
        ``remaining`` order, so every row holds a fresh, bit-reproducible
        evaluation.
        """
        row = self._rows.get(code)
        if row is not None:
            return row
        remaining = []
        present = []
        executions = []
        works = []
        count = 0
        for name, template_index, radix, weight, execution, time in self._radix:
            left = code // weight % radix
            if left:
                remaining.append((name, left))
                present.append((template_index, weight, name))
                executions.append(execution * left)
                works.append(time * left)
                count += left
        row = self._rows[code] = RemainingRow(
            code, tuple(present), count, sum(executions), sum(works), tuple(remaining)
        )
        return row

    def priority(self, node: SearchNode) -> float:
        """A* f-value of *node*, computed from scratch.

        * Goal vertices use their true cost (infrastructure + penalty).
        * Other vertices use ``infrastructure + Equation 3 + term``, where the
          problem's :class:`~repro.search.bounds.FutureCostBound` supplies the
          term.
        * A retraining search raises the result to the adaptive bound ``h'``.

        Equal, bit for bit, to the f-value :meth:`expand` priced the node
        with from its parent.
        """
        row = node.row
        if row.count:
            f = node.infra_cost + row.execution + self._node_term(node, row)
        else:
            f = node.infra_cost + node.penalty
        adaptive_bound = self._adaptive_bound
        if adaptive_bound is not None:
            extra = adaptive_bound(
                node.infra_cost,
                node.penalty,
                node.aux_penalty,
                node.outcomes if self._aux_goal is None else None,
            )
            if extra > f:
                f = extra
        return f
