"""Driver for computing optimal (minimum-cost) schedules.

This is the "Optimal Schedule Generation" stage of Figure 4: given a concrete
workload, build the scheduling graph, run A*, and convert the winning goal
vertex back into a :class:`~repro.core.schedule.Schedule` with concrete query
instances.  The same driver doubles as the paper's *Optimal* baseline in the
effectiveness experiments (Figures 9-12, 18, 20-22), since A* with an
admissible heuristic returns exact minimum-cost schedules.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cloud.latency import LatencyModel
from repro.cloud.vm import VMTypeCatalog
from repro.core.cost_model import CostBreakdown, CostModel
from repro.core.schedule import Schedule, VMAssignment
from repro.search.astar import SearchResult, astar_search
from repro.search.problem import SchedulingProblem
from repro.sla.base import PerformanceGoal
from repro.workloads.workload import Workload


def schedule_from_state(
    vms: Iterable[tuple[str, Sequence[str]]], workload: Workload, vm_types: VMTypeCatalog
) -> Schedule:
    """Materialise a goal schedule's *vms* into a schedule over *workload*'s queries.

    *vms* holds ``(VM type name, template queue)`` per VM, as
    :meth:`SearchResult.vms <repro.search.astar.SearchResult.vms>` reads them
    off a goal vertex's path.  Queries of the same template are
    interchangeable (Section 4.3), so each template slot is filled with the
    next unused query instance of that template, in workload order.
    """
    pools: dict[str, deque] = defaultdict(deque)
    for query in workload:
        pools[query.template_name].append(query)
    return Schedule(
        VMAssignment(vm_types[vm_type_name], tuple(pools[name].popleft() for name in queue))
        for vm_type_name, queue in vms
    ).without_empty_vms()


@dataclass
class OptimalScheduleResult:
    """An optimal schedule together with its cost and search telemetry."""

    schedule: Schedule
    cost: CostBreakdown
    search: SearchResult
    problem: SchedulingProblem

    @property
    def total_cost(self) -> float:
        """Total cost (Equation 1) of the optimal schedule, in cents."""
        return self.cost.total

def find_optimal_schedule(
    workload: Workload,
    vm_types: VMTypeCatalog,
    goal: PerformanceGoal,
    latency_model: LatencyModel,
    max_expansions: int | None = None,
) -> OptimalScheduleResult:
    """Compute a minimum-cost schedule for *workload* under *goal*.

    Raises :class:`~repro.exceptions.SearchBudgetExceeded` if *max_expansions*
    is reached before the search completes.
    """
    problem = SchedulingProblem.for_workload(workload, vm_types, goal, latency_model)
    result = astar_search(problem, max_expansions=max_expansions)
    schedule = schedule_from_state(result.vms(), workload, vm_types)
    cost = CostModel(latency_model).breakdown(schedule, goal)
    return OptimalScheduleResult(
        schedule=schedule, cost=cost, search=result, problem=problem
    )
