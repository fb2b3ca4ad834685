"""Batch scheduling with a trained decision model (Section 6.2).

Given a decision model and an incoming batch of queries, the scheduler parses
the model repeatedly: each parse yields either "place a query of template X on
the most recent VM" or "provision a new VM of type Y".  The loop ends when all
queries are assigned, so at most ``2n`` parses are needed and scheduling runs
in ``O(h · n)`` for a tree of height ``h`` (Section 7.4 / Figure 17).

Three details keep large batches fast and faithful:

* a parse computes only the features its tree path tests
  (:meth:`~repro.learning.model.DecisionModel.decide`), each by the expression
  the training-time :class:`~repro.learning.features.FeatureExtractor` uses
  for that column; the marginal-penalty part of ``cost-of-X`` comes from the
  incremental accumulators of :mod:`repro.sla.accumulators` instead of a
  rescan of all previously placed queries;
* everything a parse can ask of the vertex is a running value updated per
  action — unassigned queries per template, the most recent VM's queue and
  its per-template counts — so nothing is rebuilt per decision and a parse
  costs O(h) whatever the batch size, the number of VMs or the length of the
  queue (``benchmarks/bench_fig17_batch_scheduling_scale.py`` asserts both
  axes);
* queries whose template is not part of the model's specification are treated
  as instances of the template with the closest expected latency, exactly as
  Section 6.2 prescribes.

Batch and online scheduling decide through one kernel,
:class:`PlacementKernel`.  Its :meth:`~PlacementKernel.place` takes the
queries as per-template FIFO pools (each query filed under the template the
model treats it as) plus an optional rented VM to continue, and hands back the
original query objects placed.  A kernel resets its running values (the
remaining multiset, the reusable vertex and the runtime context, which it
rebuilds only for another model) at the start of every pass, so an online
session (:mod:`repro.runtime.online`), which pools its wait queue directly,
keeps one for its whole life; :meth:`BatchScheduler.schedule_detailed` is
the batch adapter over a one-shot kernel.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass, field

from repro.cloud.vm import VMType
from repro.core.schedule import Schedule, VMAssignment
from repro.core.scheduler import SchedulerOverhead, SchedulingOutcome, simulated_outcome
from repro.exceptions import ScheduleError
from repro.learning.model import DecisionModel
from repro.search.actions import ProvisionVM
from repro.search.problem import SearchNode
from repro.search.state import SearchState
from repro.workloads.query import Query
from repro.workloads.workload import Workload


_INF = float("inf")


class RuntimeSchedulingContext:
    """Placement-cost provider compatible with :class:`SchedulingProblem`.

    The decision model only needs one thing from the "problem" object it is
    handed: the Equation-2 cost of placing a given template on the most recent
    VM.  This context answers that question using an incremental violation
    accumulator, so each call is O(1)/O(log n) instead of O(#placed queries).
    """

    def __init__(self, model: DecisionModel) -> None:
        self._model = model
        self._rate = model.goal.penalty_rate
        #: The last VM type a cost was asked for, and its ``vm_tables``.
        self._vm_type_name: str | None = None
        self._time_of: dict[str, float] = {}
        self._cost_of: dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every recorded placement: a fresh accumulator, no violation.

        The VM tables are the model's and stay, so a context serves any number
        of scheduling passes of one model.
        """
        self._accumulator = self._model.goal.accumulator()
        self._violation_with = self._accumulator.violation_with
        #: Violation of the placements recorded so far, refreshed per placement.
        self._violation = self._accumulator.violation()

    def placement_cost_row(
        self, node: SearchNode, template_names: tuple[str, ...]
    ) -> list[float]:
        """:meth:`placement_edge_cost` for every template, ``inf`` where infeasible.

        What a full feature row asks for
        (:meth:`~repro.learning.features.FeatureExtractor.extract_into`, the
        oracle the equivalence suite holds decisions against); no runtime
        decision calls it.
        """
        return [self.placement_edge_cost(node, name) for name in template_names]

    def placement_edge_cost(self, node: SearchNode, template_name: str) -> float:
        """Equation-2 edge weight for placing *template_name* at *node*.

        ``inf`` when there is no VM yet or its type cannot run the template.
        The hot call of a model parse — one per ``cost-of-X`` column the tree
        path tests — so latency and execution cost come from the model's
        per-type tables, not the catalogue and latency model, and the tables
        are looked up again only when the VM type changes.
        """
        vms = node.state.vms
        if not vms:
            return _INF
        vm_type_name = vms[-1][0]
        if vm_type_name != self._vm_type_name:
            self._time_of, self._cost_of = self._model.vm_tables(vm_type_name)
            self._vm_type_name = vm_type_name
        execution_time = self._time_of.get(template_name)
        if execution_time is None:
            return _INF
        violation = self._violation_with(template_name, node.last_vm_finish + execution_time)
        return self._cost_of[template_name] + self._rate * (violation - self._violation)

    def record_placement(self, template_name: str, completion_time: float) -> None:
        """Tell the context that a query of *template_name* will finish at *completion_time*."""
        self._accumulator.add(template_name, completion_time)
        self._violation = self._accumulator.violation()


class PlacementKernel:
    """The decision kernel: parse a model until it has placed every pool.

    Reused across scheduling passes: the per-template running values and the
    one reusable vertex the model reads are made here once, and the runtime
    context once per model — kept while passes bring the same model, replaced
    when one brings another.  All of it is reset at the start of every
    :meth:`place`, so a pass pays no set-up beyond its pools and a pass that
    raised leaves nothing the next one reads.  Not thread-safe: one pass at a
    time.
    """

    def __init__(self) -> None:
        self._context: RuntimeSchedulingContext | None = None
        # Unassigned queries per template, in name order, an entry dropped
        # when it reaches zero: the dict's live views are the vertex's
        # remaining multiset and name set, kept current by one decrement per
        # placement.
        self._remaining: dict[str, int] = {}
        # The most recent VM's queue as the model sees it: template names in
        # order plus their running per-template counts.
        self._queue: list[str] = []
        self._queue_counts: dict[str, int] = {}
        # One reusable vertex: the model and the runtime context read the
        # node's state and wait time but never retain them, so nothing is
        # rebuilt per model parse — the state's fields and cached accessors
        # are the running values above, updated in place per action.  Only the
        # most recent VM is represented — the model never looks further back.
        state = SearchState.__new__(SearchState)
        self._state_dict = state.__dict__
        self._state_dict.update(
            vms=(),
            remaining=self._remaining.items(),
            _remaining_names=self._remaining.keys(),
            _last_queue_counts=self._queue_counts,
        )
        self._node = SearchNode(
            state=state,
            parent=None,
            action=None,
            infra_cost=0.0,
            penalty=0.0,
            last_vm_finish=0.0,
            depth=0,
        )

    def place(
        self,
        model: DecisionModel,
        pools: dict[str, deque[Query]],
        existing_vm_type: VMType | None = None,
        existing_vm_busy_time: float = 0.0,
    ) -> tuple[list[Query], list[tuple[VMType, list[Query]]], int]:
        """Parse *model* until it has placed every pool.

        *pools* maps template names the model knows to non-empty FIFOs of the
        queries it should treat as that template (consumed).  Queries may go
        on an existing VM, busy for *existing_vm_busy_time* more seconds,
        until the model provisions.  Returns ``(queries placed on the
        existing VM, [(new VM type, its queries)], model parses)``; VMs that
        got no query are left out.
        """
        context = self._context
        if context is not None and context._model is model:
            context.reset()
        else:
            context = self._context = RuntimeSchedulingContext(model)
        remaining = self._remaining
        remaining.clear()
        for name in sorted(pools):
            remaining[name] = len(pools[name])
        queue = self._queue
        queue.clear()
        queue_counts = self._queue_counts
        queue_counts.clear()
        state_dict = self._state_dict
        node = self._node

        vms: list[tuple[VMType, list[Query]]] = []
        placed_on_existing: list[Query] = []
        placed = placed_on_existing
        last_vm_type = existing_vm_type
        decisions = 0
        decide = model.decide
        vm_types = model.vm_types
        vm_tables = model.vm_tables
        record_placement = context.record_placement
        if last_vm_type is not None:
            state_dict["vms"] = ((last_vm_type.name, queue),)
            last_finish = existing_vm_busy_time
            # A placement's template is always one its VM type supports, so
            # the VM's execution-time table has it.
            time_of = vm_tables(last_vm_type.name)[0]
        else:
            state_dict["vms"] = ()
            last_finish = 0.0
            time_of = {}
        max_decisions = 3 * sum(remaining.values()) + 2

        while remaining:
            decisions += 1
            if decisions > max_decisions:
                raise ScheduleError(
                    "the decision model failed to converge on a complete schedule"
                )
            node.last_vm_finish = last_finish
            action = decide(node, context)
            if isinstance(action, ProvisionVM):
                last_vm_type = vm_types[action.vm_type_name]
                placed = []
                vms.append((last_vm_type, placed))
                queue.clear()
                queue_counts.clear()
                state_dict["vms"] = ((last_vm_type.name, queue),)
                last_finish = 0.0
                time_of = vm_tables(last_vm_type.name)[0]
                continue
            template_name = action.template_name
            placed.append(pools[template_name].popleft())
            left = remaining[template_name] - 1
            if left:
                remaining[template_name] = left
            else:
                del remaining[template_name]
            last_finish += time_of[template_name]
            record_placement(template_name, last_finish)
            queue.append(template_name)
            queue_counts[template_name] = queue_counts.get(template_name, 0) + 1

        return placed_on_existing, [vm for vm in vms if vm[1]], decisions


@dataclass
class BatchSchedulingResult:
    """A batch schedule plus the kernel's bookkeeping."""

    schedule: Schedule
    #: Queries the model chose to append to the pre-existing VM, if one was given.
    placed_on_existing_vm: list[Query] = field(default_factory=list)
    #: Number of model parses performed.
    decisions: int = 0


class BatchScheduler:
    """Schedules batch workloads by repeatedly parsing a decision model."""

    #: Display name under the unified :class:`~repro.core.scheduler.Scheduler`
    #: protocol (the label the paper's figures use for the learned strategies).
    name = "WiSeDB"

    def __init__(self, model: DecisionModel) -> None:
        self._model = model

    @property
    def model(self) -> DecisionModel:
        """The decision model driving this scheduler."""
        return self._model

    @property
    def search_strategy(self) -> str:
        """Spec of the search strategy the model was trained under.

        Scheduling itself never searches — it parses the tree — but the
        strategy (and, for relaxed strategies,
        :attr:`~repro.learning.model.DecisionModel.training_optimality_ratio`)
        is the provenance an operator needs when comparing tenants whose
        models were trained under different engines.
        """
        return self._model.search_strategy

    @property
    def training_optimality_ratio(self) -> float:
        """Worst training cost-vs-optimal ratio of the model (1.0 = exact)."""
        return self._model.training_optimality_ratio

    # -- public API --------------------------------------------------------------

    def schedule(self, workload: Workload) -> Schedule:
        """Produce a complete schedule for *workload*."""
        return self.schedule_detailed(workload).schedule

    def run(self, workload: Workload) -> SchedulingOutcome:
        """Schedule *workload* and report the unified outcome.

        The wall-clock overhead covers schedule generation only (the quantity
        Figure 17 plots); pricing is derived from one simulator pass and
        matches :class:`~repro.core.cost_model.CostModel` bit-for-bit.
        """
        stats = self._model.stats
        fallbacks_before = stats.fallbacks
        guard_before = stats.guard_activations
        started = time.perf_counter()
        result = self.schedule_detailed(workload)
        elapsed = time.perf_counter() - started
        return simulated_outcome(
            name=self.name,
            schedule=result.schedule,
            goal=self._model.goal,
            latency_model=self._model.latency_model,
            overhead=SchedulerOverhead(
                wall_time_seconds=elapsed,
                decisions=result.decisions,
                fallbacks=stats.fallbacks - fallbacks_before,
                guard_activations=stats.guard_activations - guard_before,
            ),
        )

    def schedule_detailed(
        self,
        workload: Workload,
        existing_vm_type: VMType | None = None,
        existing_vm_busy_time: float = 0.0,
    ) -> BatchSchedulingResult:
        """Schedule *workload*, optionally continuing an already-rented VM.

        The batch adapter over a one-shot :class:`PlacementKernel`: workload
        in as pools, placements out as a :class:`~repro.core.schedule.Schedule`.
        """
        on_existing, vms, decisions = PlacementKernel().place(
            self._model,
            self._build_pools(workload),
            existing_vm_type,
            existing_vm_busy_time,
        )
        return BatchSchedulingResult(
            schedule=Schedule(
                VMAssignment(vm_type, tuple(queries)) for vm_type, queries in vms
            ),
            placed_on_existing_vm=on_existing,
            decisions=decisions,
        )

    # -- internals ---------------------------------------------------------------

    def _build_pools(self, workload: Workload) -> dict[str, deque[Query]]:
        """Group queries by the template the model will treat them as."""
        model_templates = self._model.templates
        pools: dict[str, deque[Query]] = defaultdict(deque)
        for query in workload:
            if query.template_name in model_templates:
                perceived = query.template_name
            else:
                base_latency = workload.templates[query.template_name].base_latency
                perceived = model_templates.closest_by_latency(base_latency).name
            pools[perceived].append(query)
        return pools

