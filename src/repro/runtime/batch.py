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
  for that column; ``cost-of-X`` is the one Equation-2 body training prices
  with (:meth:`ProblemTables.placement_edge_cost
  <repro.search.problem.ProblemTables.placement_edge_cost>`, on the model's
  own tables), its marginal penalty read from the goal accumulator
  (:mod:`repro.sla.accumulators`) the vertex carries instead of a rescan of
  all previously placed queries;
* the vertex is a :class:`~repro.search.problem.VertexStepper`'s, the one
  training walks a path with: everything a parse can ask of it is a running
  value updated per action — unassigned queries per template, the most
  recent VM's queue and its per-template counts — so nothing is rebuilt per
  decision and a parse costs O(h) whatever the batch size, the number of VMs
  or the length of the queue
  (``benchmarks/bench_fig17_batch_scheduling_scale.py`` asserts both axes);
* queries whose template is not part of the model's specification are treated
  as instances of the template with the closest expected latency, exactly as
  Section 6.2 prescribes.

Batch and online scheduling decide through one kernel,
:class:`PlacementKernel`.  Its :meth:`~PlacementKernel.place` takes the
queries as per-template FIFO pools (each query filed under the template the
model treats it as) plus an optional rented VM to continue, and hands back the
original query objects placed.  A kernel keeps one stepper and resets it
(the remaining multiset and the reusable vertex, which gets a fresh goal
accumulator) at the start of every pass, over the pass's model's tables, so
an online session (:mod:`repro.runtime.online`), which pools its wait queue
directly, keeps one kernel for its whole life;
:meth:`BatchScheduler.schedule_detailed` is the batch adapter over a one-shot
kernel.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.cloud.vm import VMType
from repro.core.schedule import Schedule, VMAssignment
from repro.core.scheduler import SchedulerOverhead, SchedulingOutcome, simulated_outcome
from repro.exceptions import ScheduleError
from repro.learning.model import DecisionModel
from repro.search.actions import ProvisionVM
from repro.search.problem import ProblemTables, SearchNode, VertexStepper
from repro.workloads.query import Query
from repro.workloads.workload import Workload


class RuntimeSchedulingContext(ProblemTables):
    """Keeps the perf trace's ``runtime.batch.cost_row`` target resolvable.

    A pass prices one ``cost-of-X`` at a time on the model's own tables
    (:attr:`DecisionModel.tables <repro.learning.model.DecisionModel.tables>`),
    so nothing builds this class.
    """

    def placement_cost_row(
        self, node: SearchNode, template_names: Sequence[str]
    ) -> list[float]:
        """:meth:`~repro.search.problem.ProblemTables.placement_edge_cost` of every template."""
        edge = self.placement_edge_cost
        return [edge(node, name) for name in template_names]


class PlacementKernel:
    """The decision kernel: parse a model until it has placed every pool.

    Reused across scheduling passes: it keeps one :class:`VertexStepper` —
    the running values and the one reusable vertex the model reads — and
    hands it the pass's model's tables, so a pass that brings another model
    builds nothing either.  The stepper is reset at the start of every
    :meth:`place`, so a pass pays no set-up beyond its pools and a pass that
    raised leaves nothing the next one reads.  Not thread-safe: one pass at
    a time.
    """

    def __init__(self) -> None:
        self._stepper: VertexStepper | None = None

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
        tables = model.tables
        stepper = self._stepper
        if stepper is None:
            stepper = self._stepper = VertexStepper(tables)
        else:
            stepper.tables = tables
        node = stepper.reset(
            {name: len(pool) for name, pool in pools.items()},
            existing_vm_type.name if existing_vm_type is not None else None,
            existing_vm_busy_time,
        )
        remaining = stepper.remaining
        provision = stepper.provision
        place = stepper.place
        tpl_id = tables.tpl_id
        vm_id = tables.vm_id
        vm_types = model.vm_types
        decide = model.decide

        vms: list[tuple[VMType, list[Query]]] = []
        placed_on_existing: list[Query] = []
        placed = placed_on_existing
        decisions = 0
        max_decisions = 3 * sum(remaining.values()) + 2
        while remaining:
            decisions += 1
            if decisions > max_decisions:
                raise ScheduleError(
                    "the decision model failed to converge on a complete schedule"
                )
            action = decide(node, tables)
            if isinstance(action, ProvisionVM):
                name = action.vm_type_name
                placed = []
                vms.append((vm_types[name], placed))
                provision(vm_id[name])
                continue
            name = action.template_name
            placed.append(pools[name].popleft())
            place(tpl_id[name])

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
