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

A vertex (Section 4.3) is a partial schedule plus the queries still
unassigned, but no node builds that schedule: a node carries only what the
search reads of it, its key — the remaining multiset's row, the most recent
VM's type id, busy time and last template (:class:`SearchNode`) — and the
partial schedule's cost so far.  The path to a node determines its partial
schedule, so the best goal vertex found is the minimum-cost complete
schedule regardless of the path taken, and that schedule is read off the goal
node's parent chain once (:meth:`SearchResult.vms
<repro.search.astar.SearchResult.vms>`).

A known path needs none of that machinery, not even a problem:
:meth:`ProblemTables.walk` steps one reusable vertex, a
:class:`VertexStepper`, along its action labels with :meth:`expand`'s
arithmetic and returns its cost.  Training walks every path that way, a
searched one and a kept one alike, recording each vertex's wait time,
penalty and two-float goal-accumulator summary
(:meth:`FeatureExtractor.vertex_values
<repro.learning.features.FeatureExtractor.vertex_values>`), so a kept sample
costs one plain walk and builds no problem; the runtime kernel
(:class:`~repro.runtime.batch.PlacementKernel`) steps the same stepper along
a model's decisions.  A runtime decision prices ``cost-of-X`` with the one
Equation-2 body, :meth:`ProblemTables.placement_edge_cost`, which reads
nothing but the vertex; training prices every row × template of a pass at
once from what its walks recorded, with the accumulators' array twin of
``violation_with``, bit for bit as that body would.  So a search node, a
training vertex and a runtime vertex in the same state get the same price to
the bit.

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
  the ``violation_with`` of the parent's second, old-goal accumulator in the
  same way.  A strategy builds the child's :class:`SearchNode` — its
  accumulator branches and its key — with :meth:`SchedulingProblem.child`
  only when it pops the child, which most children never are.  No node
  carries its outcome tuple or its partial schedule; the rare reader (a
  test, or the goal's schedule) walks the parent chain
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
  adaptive bound ``h'`` (Section 5, an
  :class:`~repro.adaptive.retraining.AdaptiveBound`), passed to the
  constructor, composes on top: every node then carries the bound's old
  goal's accumulator and penalty, the f-value is ``max(f, h'(v))``, so every
  strategy orders its frontier by the same number, and
  :meth:`SchedulingProblem.priority` recomputes it from scratch to the bit.
* **Interned ids and dense tables.**  Template names and VM type names are
  interned to integer ids, and per-``(vm, template)`` latency,
  execution-cost, and supports tables are precomputed, so ``expand`` and the
  dominance checks stop doing string-keyed dict walks and attribute lookups
  per child.  They depend on the specification and goal only
  (:class:`ProblemTables`), so a training pass builds them once and shares
  them with every sample's problem and every walk.  Each node carries the
  integer ids of its most recent VM's type and last template.

The accumulators agree with the batch :meth:`PerformanceGoal.penalty`
definition bit-for-bit (property-tested across all four goal kinds), so
optimal costs and chosen schedules are unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from repro.cloud.latency import LatencyModel
from repro.cloud.vm import VMTypeCatalog
from repro.exceptions import SpecificationError
from repro.search.actions import Action, PlaceQuery, ProvisionVM
from repro.search.bounds import MemoizedGoalBound, ProvisioningBound
from repro.sla.accumulators import ViolationAccumulator
from repro.sla.base import PerformanceGoal
from repro.workloads.templates import TemplateSet
from repro.workloads.workload import Workload

if TYPE_CHECKING:  # the adaptive layer imports the trainer, which imports this
    from repro.adaptive.retraining import AdaptiveBound

_INF = float("inf")


class LatencyOutcome(NamedTuple):
    """Lightweight per-query outcome used while searching partial schedules.

    Only the two attributes the SLA classes read (``template_name`` and
    ``latency``) are carried; building full :class:`~repro.core.outcome.QueryOutcome`
    objects for explored vertices would dominate the search time.
    """

    template_name: str
    latency: float


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
        #: The multiset as ``(name, count)`` pairs in name order.
        self.remaining = remaining


@dataclass(slots=True, repr=False)
class SearchNode:
    """A vertex of the search, with the incremental bookkeeping the search needs.

    A node does not hold its partial schedule.  What the vertex's future
    depends on is its key: the remaining multiset (``row.code``), the most
    recent VM's type id (``last_vm_index``, -1 before the first VM), that
    VM's busy time (``last_vm_finish``) and the template of its last query
    (``last_template``, -1 when it holds none or there is no VM), which the
    queue-order rules read.  The rest is the partial schedule's price so far:
    ``infra_cost``, ``penalty`` and the goal's violation accumulator, which
    with the key is what a ``cost-of-X`` price reads
    (:meth:`ProblemTables.placement_edge_cost`).  The schedule itself is read
    off the parent chain when it is wanted (:attr:`outcomes`,
    :meth:`~repro.search.astar.SearchResult.vms`).
    """

    parent: "SearchNode | None"
    action: Action | None
    infra_cost: float
    penalty: float
    last_vm_finish: float
    priority: float = field(default=0.0)
    accumulator: ViolationAccumulator | None = field(default=None)
    last_vm_index: int = field(default=-1)
    last_template: int = field(default=-1)
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
    #: Second, *auxiliary-goal* accumulator carried by every node of a
    #: retraining search (adaptive A*, Section 5), whatever the goal kind:
    #: tracks the partial schedule's violation under the adaptive bound's
    #: ``old_goal``, copy-on-write exactly like the primary accumulator.
    #: ``None`` on ordinary searches.
    aux_accumulator: ViolationAccumulator | None = field(default=None)
    #: Partial penalty under the old goal, ``cost(R, v)`` minus the
    #: infrastructure (``-1.0`` = not a retraining search), which
    #: :class:`~repro.adaptive.retraining.AdaptiveBound` reads in O(1).
    aux_penalty: float = field(default=-1.0)
    #: The remaining multiset's row.
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


class ProblemTables:
    """The tables every problem of one specification and goal reads.

    Template and VM type names interned to integer ids; per-``(vm,
    template)`` latency, execution-cost and supports tables; each template's
    cheapest execution cost and time over the catalogue (absent when no type
    runs it); the goal's rate and per-template deadlines; and one shared
    action object per template and VM type.  None of it depends on a
    workload's counts.  It is the one compiled form of a specification and
    goal: a training pass builds it once, every sample's problem reads it
    (:meth:`SchedulingProblem.from_tables`), the pass's
    :class:`~repro.learning.features.FeatureExtractor` reads its template
    order, ``supports`` table and action labels, and the model fitted on
    that extractor's rows decides on it (:attr:`DecisionModel.tables
    <repro.learning.model.DecisionModel.tables>`).  The tables also hold the
    one body of Equation 2 (:meth:`placement_edge_cost`), which the runtime
    reads and training's array pricing is held against, and the walk of a
    known path (:meth:`walk`), which needs no problem.
    """

    def __init__(
        self,
        templates: TemplateSet,
        vm_types: VMTypeCatalog,
        goal: PerformanceGoal,
        latency_model: LatencyModel,
    ) -> None:
        self.templates = templates
        self.vm_types = vm_types
        self.goal = goal
        self.latency_model = latency_model
        self.tpl_names: tuple[str, ...] = templates.names
        self.tpl_id: dict[str, int] = {name: index for index, name in enumerate(self.tpl_names)}
        self.vm_names: tuple[str, ...] = vm_types.names
        self.vm_id: dict[str, int] = {name: index for index, name in enumerate(self.vm_names)}
        self.startup_costs: list[float] = []
        self.supports_table: list[list[bool]] = []
        self.latency_table: list[list[float]] = []
        self.run_cost_table: list[list[float]] = []
        #: Per VM type id, ``(execution time, execution cost)`` by the name of
        #: each template the type runs, and last an empty table that id -1 (no
        #: VM yet) reads: what :meth:`placement_edge_cost` looks up.
        self.edge_tables: list[dict[str, tuple[float, float]]] = []
        for vm_type in vm_types:
            self.startup_costs.append(vm_type.startup_cost)
            supports_row: list[bool] = []
            latency_row: list[float] = []
            run_cost_row: list[float] = []
            edges: dict[str, tuple[float, float]] = {}
            for name in self.tpl_names:
                if vm_type.supports(name):
                    latency = latency_model.latency(name, vm_type)
                    run_cost = vm_type.running_cost * latency
                    edges[name] = (latency, run_cost)
                    supports_row.append(True)
                    latency_row.append(latency)
                    run_cost_row.append(run_cost)
                else:
                    supports_row.append(False)
                    latency_row.append(_INF)
                    run_cost_row.append(_INF)
            self.supports_table.append(supports_row)
            self.latency_table.append(latency_row)
            self.run_cost_table.append(run_cost_row)
            self.edge_tables.append(edges)
        self.edge_tables.append({})
        self.min_startup_cost = min(self.startup_costs)
        #: Template -> cheapest execution cost / latency over the types that
        #: run it; a template no type runs has no entry.
        self.cheapest_execution: dict[str, float] = {}
        self.cheapest_time: dict[str, float] = {}
        for template_index, name in enumerate(self.tpl_names):
            runs = [
                vm_index
                for vm_index in range(len(self.vm_names))
                if self.supports_table[vm_index][template_index]
            ]
            if runs:
                self.cheapest_execution[name] = min(
                    [self.run_cost_table[vm_index][template_index] for vm_index in runs]
                )
                self.cheapest_time[name] = min(
                    [self.latency_table[vm_index][template_index] for vm_index in runs]
                )
        self.rate = goal.penalty_rate
        #: Per-template deadline (or None), resolved once instead of per vertex.
        self.query_deadlines: list[float | None] = [
            goal.query_deadline(name) for name in self.tpl_names
        ]
        # Actions are immutable value objects, so one shared instance per
        # template / VM type avoids a frozen-dataclass __init__ per child.
        self.place_actions: list[PlaceQuery] = [PlaceQuery(name) for name in self.tpl_names]
        self.provision_actions: list[ProvisionVM] = [
            ProvisionVM(name) for name in self.vm_names
        ]
        #: Action label -> VM type id / template id, for :meth:`walk`.
        self.provision_of = {
            action.label: index for index, action in enumerate(self.provision_actions)
        }
        self.place_of = {action.label: index for index, action in enumerate(self.place_actions)}

    # -- edge costs (Equation 2), used by the cost-of-X feature ----------------------

    def placement_edge_cost(
        self, vertex: "SearchNode | VertexStepper", template_name: str
    ) -> float:
        """Weight of the placement edge for *template_name* out of *vertex* (Equation 2).

        The one body of the price: ``run_cost + (rate · violation_with −
        penalty)``, read from the vertex alone — its ``last_vm_index``,
        ``last_vm_finish``, accumulator and ``penalty`` — so an A* node and a
        :class:`VertexStepper` price alike.  ``inf`` marks an impossible
        placement: no VM yet, a type that cannot run the template, or a
        template outside the specification.  A runtime parse calls it once
        per ``cost-of-X`` its tree path tests; training prices a whole pass's
        rows with the array twin instead (:meth:`FeatureExtractor.block
        <repro.learning.features.FeatureExtractor.block>`), which is held
        against it bit for bit.
        """
        edge = self.edge_tables[vertex.last_vm_index].get(template_name)
        if edge is None:
            return _INF
        execution_time, execution_cost = edge
        violation = vertex.accumulator.violation_with(
            template_name, vertex.last_vm_finish + execution_time
        )
        return execution_cost + (self.rate * violation - vertex.penalty)

    # -- a known path ------------------------------------------------------------------

    def walk(
        self,
        counts: Mapping[str, int],
        labels: Sequence[str],
        visit: Callable[[int, "VertexStepper"], object],
    ) -> float | None:
        """Step a :class:`VertexStepper` along the action *labels* from *counts*; the path's cost.

        *counts* is the workload's queries per template name.
        ``visit(index, stepper)`` is called at the vertex where ``labels[index]``
        is taken, before the step, and may read the stepper only while it
        runs.  Each label is translated, refused if the step is not possible,
        and taken with the stepper, whose arithmetic is
        :meth:`SchedulingProblem.expand`'s: walking a path a search over these
        tables returned reproduces its cost to the bit, with no problem, no
        f-value, bound or memo work.  Training's visit records the wait time,
        penalty and accumulator summary a row's ``cost-of-X`` needs
        (:meth:`FeatureExtractor.vertex_values
        <repro.learning.features.FeatureExtractor.vertex_values>`); the rest
        of a row follows from the labels.

        Returns infrastructure plus penalty of the complete schedule, or
        ``None`` when a step is not possible here — an unknown label, a
        placement with no VM, on a type that does not support the template,
        or with nothing of that template left — or the path leaves queries
        unassigned.

        No dominance rule is applied.  Adaptive retraining walks a path that
        was canonical in a *looser* goal's reduced graph and keeps it only if
        it still costs the same; such a path can be pruned in the stricter
        goal's graph only by an *equal-cost* swap (a strictly cheaper swap
        would contradict the cost equality, and the canonical order does not
        depend on the goal's strictness), so it is still a minimum-cost
        schedule.
        """
        stepper = VertexStepper(self)
        stepper.reset({name: count for name, count in counts.items() if count > 0})
        remaining = stepper.remaining
        provision_of = self.provision_of
        place_of = self.place_of
        supports_table = self.supports_table
        tpl_names = self.tpl_names
        for index, label in enumerate(labels):
            visit(index, stepper)
            provisioned = provision_of.get(label)
            if provisioned is not None:
                stepper.provision(provisioned)
                continue
            template_index = place_of.get(label)
            vm_index = stepper.last_vm_index
            if (
                template_index is None
                or vm_index < 0
                or not supports_table[vm_index][template_index]
                or tpl_names[template_index] not in remaining
            ):
                return None
            stepper.place(template_index)
        if remaining:
            return None
        return stepper.infra_cost + stepper.penalty


class VertexStepper:
    """One reusable vertex, stepped one action at a time.

    Its fields are running values updated in place: the unassigned queries
    per template (:attr:`remaining`, in name order, an entry dropped at
    zero), the most recent VM's type id (:attr:`last_vm_index`, -1 before
    the first VM), busy time, queue and per-template queue counts (no
    earlier VM is represented), the goal accumulator (added to, never
    branched), the penalty and the infrastructure cost.  The fields
    :meth:`ProblemTables.placement_edge_cost` reads carry a
    :class:`SearchNode`'s names, so the price of a stepper equals the price
    of the search node in the same state.  :meth:`provision` and
    :meth:`place` use :meth:`SchedulingProblem.expand`'s arithmetic, the
    penalty being ``rate · accumulator.violation()`` after every placement,
    and check nothing.  Training steps one along a path's labels
    (:meth:`ProblemTables.walk`), the runtime along a model's decisions
    (:class:`~repro.runtime.batch.PlacementKernel`), and the decision model
    and the feature extractor read it between steps.
    """

    def __init__(self, tables: ProblemTables) -> None:
        #: What the stepper steps with; :meth:`reset` reads it, so a caller
        #: may replace it between walks.
        self.tables = tables
        self._rate = tables.rate
        self._tpl_names = tables.tpl_names
        self.remaining: dict[str, int] = {}
        self.queue: list[str] = []
        self.queue_counts: dict[str, int] = {}
        self.last_vm_index = -1
        self.last_vm_finish = 0.0
        self.accumulator: ViolationAccumulator | None = None
        self.penalty = 0.0
        self.infra_cost = 0.0
        # The most recent VM's latency and execution-cost rows.
        self._latency_row: list[float] = []
        self._run_cost_row: list[float] = []

    def reset(
        self, counts: Mapping[str, int], vm_type: str | None = None, busy: float = 0.0
    ) -> None:
        """Start a walk at *counts* (positive, by template name).

        With *vm_type* (a type name) the walk continues a rented VM of that
        type, busy for *busy* more seconds and seen with an empty queue.  The
        vertex gets a fresh goal accumulator and zero penalty and cost.
        """
        tables = self.tables
        self._rate = tables.rate
        self._tpl_names = tables.tpl_names
        remaining = self.remaining
        remaining.clear()
        for name in sorted(counts):
            remaining[name] = counts[name]
        self.accumulator = tables.goal.accumulator()
        self.penalty = 0.0
        if vm_type is None:
            self.queue.clear()
            self.queue_counts.clear()
            self.last_vm_index = -1
            self.last_vm_finish = 0.0
        else:
            self.provision(tables.vm_id[vm_type])
            self.last_vm_finish = busy
        # A rented VM's start-up fee was paid before this walk.
        self.infra_cost = 0.0

    def provision(self, vm_index: int) -> None:
        """Rent a VM of the type numbered *vm_index*: it becomes the most recent."""
        tables = self.tables
        self.queue.clear()
        self.queue_counts.clear()
        self._latency_row = tables.latency_table[vm_index]
        self._run_cost_row = tables.run_cost_table[vm_index]
        self.last_vm_index = vm_index
        self.infra_cost += tables.startup_costs[vm_index]
        self.last_vm_finish = 0.0

    def place(self, template_index: int) -> None:
        """Place a query of the template numbered *template_index* on the most recent VM."""
        name = self._tpl_names[template_index]
        remaining = self.remaining
        left = remaining[name]
        if left > 1:
            remaining[name] = left - 1
        else:
            del remaining[name]
        self.last_vm_finish = completion = (
            self.last_vm_finish + self._latency_row[template_index]
        )
        accumulator = self.accumulator
        accumulator.add(name, completion)
        self.infra_cost += self._run_cost_row[template_index]
        self.penalty = self._rate * accumulator.violation()
        self.queue.append(name)
        counts = self.queue_counts
        counts[name] = counts.get(name, 0) + 1


class SchedulingProblem:
    """Scheduling-graph construction, reduction, and cost bookkeeping."""

    def __init__(
        self,
        template_counts: Mapping[str, int] | Counter[str],
        templates: TemplateSet,
        vm_types: VMTypeCatalog,
        goal: PerformanceGoal,
        latency_model: LatencyModel,
        adaptive_bound: AdaptiveBound | None = None,
    ) -> None:
        self._attach(
            template_counts,
            ProblemTables(templates, vm_types, goal, latency_model),
            adaptive_bound,
        )

    def _attach(
        self,
        template_counts: Mapping[str, int] | Counter[str],
        tables: ProblemTables,
        adaptive_bound: AdaptiveBound | None,
    ) -> None:
        """Set the problem up for *template_counts* over the shared *tables*."""
        counts = {name: count for name, count in dict(template_counts).items() if count > 0}
        for name in counts:
            if name not in tables.templates:
                raise SpecificationError(f"workload references unknown template {name!r}")
        self._counts = counts
        self._tables = tables
        self._goal = goal = tables.goal
        #: Optional bound the f-value is raised to (adaptive A*'s ``h'``).
        #: Every node then carries its old goal's partial penalty
        #: incrementally, at this rate, so ``h'`` reads it in O(1).
        self._adaptive_bound = adaptive_bound
        self._aux_rate = (
            adaptive_bound.old_goal.penalty_rate if adaptive_bound is not None else 0.0
        )
        # The shared tables, bound as attributes: expand reads them once per
        # call.
        self._tpl_names = tables.tpl_names
        self._tpl_id = tables.tpl_id
        self._startup_costs = tables.startup_costs
        self._supports_table = tables.supports_table
        self._latency_table = tables.latency_table
        self._run_cost_table = tables.run_cost_table
        self._rate = tables.rate
        self._query_deadlines = tables.query_deadlines
        self._place_actions = tables.place_actions
        self._provision_actions = tables.provision_actions
        self._min_startup_cost = tables.min_startup_cost
        # Equation 2 has one body, the tables': the problem's name for it is
        # their bound method.
        self.placement_edge_cost = tables.placement_edge_cost
        self._cheapest_execution: dict[str, float] = {}
        self._cheapest_time: dict[str, float] = {}
        for name in counts:
            if name not in tables.cheapest_execution:
                raise SpecificationError(
                    f"no VM type in the catalogue supports template {name!r}"
                )
            self._cheapest_execution[name] = tables.cheapest_execution[name]
            self._cheapest_time[name] = tables.cheapest_time[name]
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
        #: Whether some VM type cannot run one of the workload's templates:
        #: only then can a provisioning child be a dead end (see :meth:`expand`).
        self._partial_support = not all(
            supports_row[self._tpl_id[name]]
            for supports_row in self._supports_table
            for name in counts
        )
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

    # -- constructors -----------------------------------------------------------

    @classmethod
    def for_workload(
        cls,
        workload: Workload,
        vm_types: VMTypeCatalog,
        goal: PerformanceGoal,
        latency_model: LatencyModel,
        adaptive_bound: AdaptiveBound | None = None,
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

    @classmethod
    def from_tables(
        cls,
        tables: ProblemTables,
        template_counts: Mapping[str, int] | Counter[str],
        adaptive_bound: AdaptiveBound | None = None,
    ) -> "SchedulingProblem":
        """The problem of *template_counts* over tables built once for many problems.

        Equal to the problem the constructor builds from the tables'
        specification and goal; only the tables are shared, so the
        unknown- and unsupported-template checks still run per problem.
        """
        problem = cls.__new__(cls)
        problem._attach(template_counts, tables, adaptive_bound)
        return problem

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
    def goal(self) -> PerformanceGoal:
        """The performance goal the schedule must satisfy."""
        return self._goal

    @property
    def template_counts(self) -> dict[str, int]:
        """Number of queries per template in the workload being scheduled."""
        return dict(self._counts)

    # -- initial node ---------------------------------------------------------------

    def initial_node(self) -> SearchNode:
        """The start vertex: nothing provisioned, everything unassigned."""
        node = SearchNode(
            parent=None,
            action=None,
            infra_cost=0.0,
            penalty=0.0,
            last_vm_finish=0.0,
            accumulator=self._goal.accumulator(),
            row=self.row(self._start_code),
        )
        if self._adaptive_bound is not None:
            node.aux_accumulator = self._adaptive_bound.old_goal.accumulator()
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
        * **Canonical order** (goals with no per-query deadline, i.e.
          average and percentile latency): running the shorter of two
          adjacent queries first leaves every other completion unchanged and
          makes the pair's latencies no larger, which cannot raise a sum or a
          percentile; so only shortest-first queues are explored.
        """
        successors: list[PricedChild] = []
        append = successors.append
        vm_index = node.last_vm_index
        row = node.row
        code = row.code
        rows = self._rows
        parent_infra = node.infra_cost
        parent_aux = node.aux_accumulator
        aux_rate = self._aux_rate
        adaptive_bound = self._adaptive_bound
        rate = self._rate
        serial = self._serial

        # Placement edges: only onto the most recently provisioned VM.
        if vm_index >= 0:
            supports_row = self._supports_table[vm_index]
            latency_row = self._latency_table[vm_index]
            run_cost_row = self._run_cost_table[vm_index]
            query_deadlines = self._query_deadlines
            placement_term = self._placement_term
            violation_with = node.accumulator.violation_with
            finish = node.last_vm_finish
            previous_index = node.last_template
            if previous_index >= 0:
                previous = self._tpl_names[previous_index]
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
                    elif execution_time < previous_execution or (
                        execution_time == previous_execution and template_name < previous
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
                if adaptive_bound is not None:
                    aux_penalty = aux_rate * parent_aux.violation_with(
                        template_name, completion
                    )
                    extra = adaptive_bound(infra, penalty, aux_penalty)
                    if extra > f:
                        f = extra
                else:
                    aux_penalty = -1.0
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
        # old-goal penalty and bound term.  A type that runs none of the
        # remaining templates would be a dead end (nothing can be placed on
        # it, and nothing provisioned on top of an empty VM), so it gets none.
        count = row.count
        if count and (vm_index < 0 or node.last_template >= 0):
            penalty = node.penalty
            aux_penalty = node.aux_penalty
            term, key = self._provision_term(node, row)
            execution = row.execution
            startup_costs = self._startup_costs
            supports_table = self._supports_table if self._partial_support else None
            for vm_index in range(len(startup_costs)):
                if supports_table is not None:
                    runs = supports_table[vm_index]
                    if not any([runs[template_index] for template_index, _, _ in row.present]):
                        continue
                infra = parent_infra + startup_costs[vm_index]
                f = infra + execution + term
                if adaptive_bound is not None:
                    extra = adaptive_bound(infra, penalty, aux_penalty)
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

        A placement branches the parent's accumulators and adds the
        placement to them (the price was read from the parent's, so the
        node's penalty is the priced one to the bit); a provisioning shares
        them.
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
        if action >= 0:
            name = self._tpl_names[action]
            accumulator = parent.accumulator.branch()
            accumulator.add(name, completion)
            aux_accumulator = parent.aux_accumulator
            if aux_accumulator is not None:
                aux_accumulator = aux_accumulator.branch()
                aux_accumulator.add(name, completion)
            vm_index, last_template = parent.last_vm_index, action
            action_taken: Action = self._place_actions[action]
        else:
            vm_index, last_template = -1 - action, -1
            accumulator = parent.accumulator
            aux_accumulator = parent.aux_accumulator
            action_taken = self._provision_actions[vm_index]
        return SearchNode(
            parent,
            action_taken,
            infra,
            penalty,
            completion,
            priority,
            accumulator,
            vm_index,
            last_template,
            term,
            key,
            aux_accumulator,
            aux_penalty,
            row,
        )

    # -- the A* f-value ----------------------------------------------------------------

    def row(self, code: int) -> RemainingRow:
        """The row of the remaining multiset numbered *code*, built on first use.

        Digit ``i`` of the code, in the mixed radix of ``count + 1`` per
        template (name order), is how many queries of template ``i`` are
        left.  The sums add one term per template in the canonical
        ``remaining`` order with ``+=``, never ``sum()`` (compensated since
        Python 3.12), so every row holds a fresh evaluation that is
        bit-reproducible on any interpreter.
        """
        row = self._rows.get(code)
        if row is not None:
            return row
        remaining = []
        present = []
        executions = 0.0
        works = 0.0
        count = 0
        for name, template_index, radix, weight, execution, time in self._radix:
            left = code // weight % radix
            if left:
                remaining.append((name, left))
                present.append((template_index, weight, name))
                executions += execution * left
                works += time * left
                count += left
        row = self._rows[code] = RemainingRow(
            code, tuple(present), count, executions, works, tuple(remaining)
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
            extra = adaptive_bound(node.infra_cost, node.penalty, node.aux_penalty)
            if extra > f:
                f = extra
        return f
