"""Per-strategy cost estimation (Section 6.1).

For every recommended strategy WiSeDB exposes a *cost estimation function*
that takes the number of instances of each query template and returns the
expected monetary cost of executing such a workload with that strategy.  The
estimator is calibrated once, by scheduling a large random sample workload
with the strategy's model and attributing the resulting schedule's cost to
individual queries:

* each VM's start-up and rental cost is split across the queries it executes,
  proportionally to their execution time;
* the schedule's penalty is split across queries proportionally to their
  observed latency (queries that linger longest are the ones responsible for
  violations under all four supported goal types).

The per-template averages of those per-query costs form the strategy's *cost
profile*, which doubles as the signature compared with the Earth Mover's
Distance when pruning similar strategies.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

from repro.cloud.latency import LatencyModel
from repro.cloud.simulator import ExecutionTrace, ScheduleSimulator
from repro.core.schedule import Schedule
from repro.sla.base import PerformanceGoal
from repro.workloads.templates import TemplateSet


def _attribute_costs(
    schedule: Schedule, trace: ExecutionTrace, goal: PerformanceGoal
) -> dict[int, float]:
    """Split the cost of *schedule*, already simulated as *trace*, by query id."""
    costs: dict[int, float] = defaultdict(float)

    by_vm = trace.outcomes_by_vm
    for vm_index, vm in enumerate(schedule):
        outcomes = by_vm.get(vm_index)
        if not outcomes:
            continue
        busy = sum(outcome.execution_time for outcome in outcomes)
        vm_cost = vm.vm_type.startup_cost + vm.vm_type.running_cost * busy
        for outcome in outcomes:
            share = outcome.execution_time / busy if busy > 0 else 1.0 / len(outcomes)
            costs[outcome.query_id] += vm_cost * share

    penalty = goal.penalty(trace.outcomes)
    if penalty > 0 and trace.outcomes:
        total_latency = sum(outcome.latency for outcome in trace.outcomes)
        for outcome in trace.outcomes:
            share = (
                outcome.latency / total_latency
                if total_latency > 0
                else 1.0 / len(trace.outcomes)
            )
            costs[outcome.query_id] += penalty * share
    return dict(costs)


def per_template_cost_profile(
    schedule: Schedule,
    goal: PerformanceGoal,
    latency_model: LatencyModel,
) -> dict[str, float]:
    """Average cost per query of each template in an executed *schedule*."""
    trace = ScheduleSimulator(latency_model).run(schedule)
    query_costs = _attribute_costs(schedule, trace, goal)
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for outcome in trace.outcomes:
        totals[outcome.template_name] += query_costs.get(outcome.query_id, 0.0)
        counts[outcome.template_name] += 1
    return {
        name: totals[name] / counts[name] for name in totals if counts[name] > 0
    }


class CostEstimator:
    """Estimates workload cost from per-template instance counts.

    The estimate is ``sum over templates [count * average per-query cost]``,
    with the averages calibrated from one representative scheduled workload.
    Templates never seen during calibration fall back to the mean calibrated
    cost so the estimator still returns a sensible number.
    """

    def __init__(self, templates: TemplateSet, profile: Mapping[str, float]) -> None:
        self._templates = templates
        self._profile = dict(profile)
        if self._profile:
            self._fallback = sum(self._profile.values()) / len(self._profile)
        else:
            self._fallback = 0.0

    def per_query_cost(self, template_name: str) -> float:
        """Calibrated average cost of one query of *template_name*, in cents."""
        return self._profile.get(template_name, self._fallback)

    def estimate(self, counts: Mapping[str, int]) -> float:
        """Expected cost (cents) of a workload with the given template counts."""
        return sum(
            count * self.per_query_cost(name) for name, count in counts.items() if count > 0
        )
