"""First-fit heuristics: FFD and FFI (Section 3 / Figure 13).

Both heuristics sort the workload by expected latency — decreasing for
First-Fit Decreasing (FFD), increasing for First-Fit Increasing (FFI) — and
then place each query on the first already-rented VM where it "fits", i.e.
where adding it to the end of the VM's queue incurs no additional SLA penalty.
A query that fits nowhere gets a fresh VM.

FFD is the classic bin-packing approximation (a good match for max-latency
goals); FFI tends to do better for per-query and average-latency goals.  The
paper uses both as the metric-specific baselines that WiSeDB's learned
strategies are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.latency import LatencyModel
from repro.cloud.vm import VMType
from repro.core.schedule import Schedule, VMAssignment
from repro.core.scheduler import SchedulingOutcome, timed_simulated_run
from repro.sla.accumulators import ViolationAccumulator
from repro.sla.base import PerformanceGoal
from repro.workloads.query import Query
from repro.workloads.workload import Workload

#: Violations smaller than this (in seconds) count as "still fits".
_FIT_TOLERANCE = 1e-9


@dataclass
class _OpenVM:
    """A rented VM being filled by a first-fit style heuristic."""

    vm_type: VMType
    queries: list[Query] = field(default_factory=list)
    busy_time: float = 0.0


class FirstFitScheduler:
    """Shared machinery for FFD, FFI, and the Pack9 ordering heuristic."""

    #: Display name under the unified scheduler protocol (subclasses override).
    name = "FirstFit"

    def __init__(
        self,
        vm_type: VMType,
        goal: PerformanceGoal,
        latency_model: LatencyModel,
        descending: bool = True,
    ) -> None:
        self._vm_type = vm_type
        self._goal = goal
        self._latency_model = latency_model
        self._descending = descending

    # -- ordering (overridden by Pack9) ----------------------------------------------

    def ordered_queries(self, workload: Workload) -> list[Query]:
        """The order in which queries are offered to the first-fit placement."""
        return list(workload.sorted_by_latency(descending=self._descending))

    # -- scheduling ---------------------------------------------------------------------

    def schedule(self, workload: Workload) -> Schedule:
        """Produce a first-fit schedule for *workload*."""
        if workload.is_empty():
            return Schedule(())
        vms: list[_OpenVM] = []
        accumulator = self._goal.accumulator()
        for query in self.ordered_queries(workload):
            self._place(query, vms, accumulator)
        return Schedule(
            VMAssignment(vm.vm_type, tuple(vm.queries)) for vm in vms if vm.queries
        )

    def run(self, workload: Workload) -> SchedulingOutcome:
        """Schedule *workload* and report the unified outcome.

        Heuristics have no decision model, so only the placement count and the
        wall-clock time populate the overhead counters.
        """
        return timed_simulated_run(self, workload, self._goal, self._latency_model)

    def _place(
        self, query: Query, vms: list[_OpenVM], accumulator: ViolationAccumulator
    ) -> None:
        execution_time = self._latency_model.latency(query.template_name, self._vm_type)
        current_violation = accumulator.violation()
        for vm in vms:
            completion = vm.busy_time + execution_time
            hypothetical = accumulator.violation_with(query.template_name, completion)
            if hypothetical - current_violation <= _FIT_TOLERANCE:
                self._commit(query, vm, completion, accumulator)
                return
        # No rented VM can take the query without a penalty: rent a new one.
        new_vm = _OpenVM(vm_type=self._vm_type)
        vms.append(new_vm)
        self._commit(query, new_vm, execution_time, accumulator)

    def _commit(
        self,
        query: Query,
        vm: _OpenVM,
        completion: float,
        accumulator: ViolationAccumulator,
    ) -> None:
        vm.queries.append(query)
        vm.busy_time = completion
        accumulator.add(query.template_name, completion)


class FirstFitDecreasingScheduler(FirstFitScheduler):
    """FFD: longest queries first (the bin-packing classic)."""

    name = "FFD"

    def __init__(
        self, vm_type: VMType, goal: PerformanceGoal, latency_model: LatencyModel
    ) -> None:
        super().__init__(vm_type, goal, latency_model, descending=True)


class FirstFitIncreasingScheduler(FirstFitScheduler):
    """FFI: shortest queries first (good for per-query / average-latency goals)."""

    name = "FFI"

    def __init__(
        self, vm_type: VMType, goal: PerformanceGoal, latency_model: LatencyModel
    ) -> None:
        super().__init__(vm_type, goal, latency_model, descending=False)
