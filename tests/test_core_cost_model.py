"""The Equation-1 cost model."""

from __future__ import annotations

import pytest

from repro import units
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.simulator import ExecutionTrace, ScheduleSimulator
from repro.cloud.vm import t2_medium
from repro.core.cost_model import CostBreakdown, CostModel, breakdown_from_trace
from repro.core.schedule import Schedule, VMAssignment
from repro.exceptions import ScheduleError
from repro.sla.max_latency import MaxLatencyGoal
from repro.workloads.query import Query


def _schedule(*queues):
    return Schedule(
        VMAssignment(t2_medium(), tuple(Query(template_name=name) for name in queue))
        for queue in queues
    )


@pytest.fixture()
def cost_model(small_templates):
    return CostModel(TemplateLatencyModel(small_templates))


def test_breakdown_components(cost_model):
    vm = t2_medium()
    goal = MaxLatencyGoal(deadline=units.minutes(30))
    schedule = _schedule(("T1", "T2"), ("T3",))
    breakdown = cost_model.breakdown(schedule, goal)
    assert breakdown.startup_cost == pytest.approx(2 * vm.startup_cost)
    expected_execution = vm.running_cost * units.minutes(1 + 2 + 4)
    assert breakdown.execution_cost == pytest.approx(expected_execution)
    assert breakdown.penalty_cost == 0.0
    assert breakdown.total == pytest.approx(breakdown.startup_cost + expected_execution)


def test_breakdown_includes_penalty(cost_model):
    goal = MaxLatencyGoal(deadline=units.minutes(2))
    schedule = _schedule(("T1", "T2"),)  # second query finishes at minute 3
    breakdown = cost_model.breakdown(schedule, goal)
    assert breakdown.penalty_cost == pytest.approx(units.minutes(1) * goal.penalty_rate)
    assert breakdown.total > breakdown.startup_cost + breakdown.execution_cost


def test_total_cost_matches_breakdown(cost_model):
    goal = MaxLatencyGoal(deadline=units.minutes(5))
    schedule = _schedule(("T1", "T3"))
    assert cost_model.total_cost(schedule, goal) == pytest.approx(
        cost_model.breakdown(schedule, goal).total
    )


def test_empty_schedule_costs_nothing(cost_model):
    goal = MaxLatencyGoal(deadline=units.minutes(5))
    breakdown = cost_model.breakdown(Schedule.empty(), goal)
    assert breakdown.total == 0.0


def test_more_vms_cost_more_startup(cost_model):
    goal = MaxLatencyGoal(deadline=units.minutes(60))
    packed = _schedule(("T1", "T2", "T3"))
    spread = _schedule(("T1",), ("T2",), ("T3",))
    packed_cost = cost_model.breakdown(packed, goal)
    spread_cost = cost_model.breakdown(spread, goal)
    # Execution cost identical, start-up cost differs by two provisioning fees.
    assert spread_cost.execution_cost == pytest.approx(packed_cost.execution_cost)
    assert spread_cost.startup_cost - packed_cost.startup_cost == pytest.approx(
        2 * t2_medium().startup_cost
    )


def test_cost_breakdown_addition():
    a = CostBreakdown(1.0, 2.0, 3.0)
    b = CostBreakdown(0.5, 0.5, 0.5)
    total = a + b
    assert total.startup_cost == 1.5
    assert total.execution_cost == 2.5
    assert total.penalty_cost == 3.5


def test_trace_of_another_schedule_is_rejected_not_mispriced(small_templates):
    simulator = ScheduleSimulator(TemplateLatencyModel(small_templates))
    goal = MaxLatencyGoal(deadline=units.minutes(30))
    two_vms = _schedule(("T1", "T2"), ("T3",))
    three_vms = _schedule(("T1",), ("T2",), ("T3",))
    trace = simulator.run(two_vms)
    # The schedule has more VMs than the trace has rentals, and fewer.
    with pytest.raises(ScheduleError, match="has 2 rentals .* schedule has 3 VMs"):
        breakdown_from_trace(three_vms, trace, goal)
    with pytest.raises(ScheduleError, match="has 3 rentals .* schedule has 2 VMs"):
        breakdown_from_trace(two_vms, simulator.run(three_vms), goal)
    # Rental counts agree, but an outcome ran on a VM the schedule does not have.
    stray = trace.outcomes[-1]._replace(vm_index=2)
    hand_built = ExecutionTrace(trace.outcomes[:-1] + (stray,), trace.rentals)
    with pytest.raises(ScheduleError, match="2 rentals and outcomes up to VM index 2"):
        breakdown_from_trace(two_vms, hand_built, goal)
