"""A* search over the scheduling graph: correctness and optimality."""

from __future__ import annotations

import itertools

import pytest

from repro import units
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import single_vm_type_catalog, t2_medium
from repro.core.cost_model import CostModel
from repro.core.schedule import Schedule, VMAssignment
from repro.exceptions import SearchBudgetExceeded
from repro.search.astar import astar_search
from repro.search.optimal import find_optimal_schedule, schedule_from_state
from repro.search.problem import SchedulingProblem
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.max_latency import MaxLatencyGoal
from repro.workloads.workload import Workload
from oracles import initial_state, next_state, validate_complete


def brute_force_best_cost(workload, vm_type, goal, latency_model, max_vms=4):
    """Exhaustively enumerate schedules (partitions + orders) for tiny workloads."""
    queries = list(workload)
    best = float("inf")
    cost_model = CostModel(latency_model)

    def assignments(remaining, bins):
        if not remaining:
            yield [list(b) for b in bins]
            return
        head, *tail = remaining
        for index in range(len(bins)):
            bins[index].append(head)
            yield from assignments(tail, bins)
            bins[index].pop()

    for num_vms in range(1, min(max_vms, len(queries)) + 1):
        for assignment in assignments(queries, [[] for _ in range(num_vms)]):
            if any(not bin_ for bin_ in assignment):
                continue
            ordered_options = [list(itertools.permutations(bin_)) for bin_ in assignment]
            for orders in itertools.product(*ordered_options):
                schedule = Schedule(VMAssignment(vm_type, tuple(o)) for o in orders)
                best = min(best, cost_model.total_cost(schedule, goal))
    return best


@pytest.mark.parametrize("goal_kind", ["max", "per_query", "average", "percentile"])
def test_astar_matches_brute_force_on_tiny_workloads(small_templates, all_goals, goal_kind):
    goal = all_goals[goal_kind]
    latency_model = TemplateLatencyModel(small_templates)
    workload = Workload.from_template_names(small_templates, ["T1", "T2", "T3", "T3"])
    result = find_optimal_schedule(
        workload, single_vm_type_catalog(), goal, latency_model
    )
    brute = brute_force_best_cost(workload, t2_medium(), goal, latency_model)
    assert result.total_cost == pytest.approx(brute, rel=1e-6)


def test_astar_schedule_is_complete(small_templates, max_goal):
    latency_model = TemplateLatencyModel(small_templates)
    workload = Workload.from_counts(small_templates, {"T1": 3, "T2": 2, "T3": 1})
    result = find_optimal_schedule(
        workload, single_vm_type_catalog(), max_goal, latency_model
    )
    validate_complete(result.schedule, workload)
    assert result.schedule.num_queries() == len(workload)


def test_astar_cost_matches_cost_model(small_templates, max_goal):
    latency_model = TemplateLatencyModel(small_templates)
    workload = Workload.from_counts(small_templates, {"T1": 2, "T3": 2})
    result = find_optimal_schedule(
        workload, single_vm_type_catalog(), max_goal, latency_model
    )
    recomputed = CostModel(latency_model).total_cost(result.schedule, max_goal)
    assert result.search.cost == pytest.approx(recomputed)
    assert result.total_cost == pytest.approx(recomputed)


def test_astar_loose_goal_uses_single_vm(small_templates):
    # With an extremely loose deadline the cheapest schedule rents one VM.
    goal = MaxLatencyGoal(deadline=units.minutes(1000))
    latency_model = TemplateLatencyModel(small_templates)
    workload = Workload.from_counts(small_templates, {"T1": 3, "T2": 2})
    result = find_optimal_schedule(
        workload, single_vm_type_catalog(), goal, latency_model
    )
    assert result.schedule.num_vms() == 1


def test_astar_tight_goal_spreads_queries(small_templates):
    # With a deadline equal to the longest query, every query needs its own VM.
    goal = MaxLatencyGoal(deadline=units.minutes(4))
    latency_model = TemplateLatencyModel(small_templates)
    workload = Workload.from_counts(small_templates, {"T3": 3})
    result = find_optimal_schedule(
        workload, single_vm_type_catalog(), goal, latency_model
    )
    assert result.schedule.num_vms() == 3
    assert result.cost.penalty_cost == 0.0


def test_astar_prefers_penalty_when_cheaper(small_templates):
    # A sub-cent penalty rate makes violations cheaper than extra VMs.
    goal = MaxLatencyGoal(deadline=units.minutes(4), penalty_rate=0.000001)
    latency_model = TemplateLatencyModel(small_templates)
    workload = Workload.from_counts(small_templates, {"T3": 3})
    result = find_optimal_schedule(
        workload, single_vm_type_catalog(), goal, latency_model
    )
    assert result.schedule.num_vms() == 1


def test_astar_exploits_cheaper_vm_type(small_templates, max_goal, two_type_catalog):
    latency_model = TemplateLatencyModel(small_templates)
    workload = Workload.from_counts(small_templates, {"T1": 2, "T2": 2})
    single = find_optimal_schedule(
        workload, single_vm_type_catalog(), max_goal, latency_model
    )
    double = find_optimal_schedule(workload, two_type_catalog, max_goal, latency_model)
    # Short templates run at full speed on the cheaper type, so two available
    # types can never be worse than one.
    assert double.total_cost <= single.total_cost + 1e-9


def test_astar_budget_exceeded(small_templates, average_goal):
    latency_model = TemplateLatencyModel(small_templates)
    workload = Workload.from_counts(small_templates, {"T1": 4, "T2": 4, "T3": 4})
    problem = SchedulingProblem.for_workload(
        workload, single_vm_type_catalog(), average_goal, latency_model
    )
    with pytest.raises(SearchBudgetExceeded):
        astar_search(problem, max_expansions=3)


def test_search_result_decisions_reconstruct_goal(small_templates, max_goal):
    latency_model = TemplateLatencyModel(small_templates)
    workload = Workload.from_counts(small_templates, {"T1": 2, "T2": 1})
    result = find_optimal_schedule(
        workload, single_vm_type_catalog(), max_goal, latency_model
    )
    decisions = list(result.search.decisions())
    assert decisions
    # The number of decisions equals placements plus provisionings.
    placements = sum(1 for _, action in decisions if hasattr(action, "template_name"))
    assert placements == len(workload)
    # Replaying the decisions from the start vertex ends at the goal vertex.
    state = initial_state(result.problem.template_counts)
    for _, action in decisions:
        state = next_state(state, action)
    assert state == (tuple(result.search.vms()), ())


def test_schedule_from_state_materialises_queries(small_templates, max_goal):
    latency_model = TemplateLatencyModel(small_templates)
    workload = Workload.from_counts(small_templates, {"T1": 1, "T2": 1})
    result = find_optimal_schedule(
        workload, single_vm_type_catalog(), max_goal, latency_model
    )
    rebuilt = schedule_from_state(result.search.vms(), workload, single_vm_type_catalog())
    validate_complete(rebuilt, workload)


def test_empty_workload_search(small_templates, max_goal):
    latency_model = TemplateLatencyModel(small_templates)
    workload = Workload(small_templates, [])
    result = find_optimal_schedule(
        workload, single_vm_type_catalog(), max_goal, latency_model
    )
    assert result.schedule.num_vms() == 0
    assert result.total_cost == 0.0


def test_average_goal_optimum_is_not_worse_than_ffi_style(small_templates):
    goal = AverageLatencyGoal(deadline=units.minutes(3))
    latency_model = TemplateLatencyModel(small_templates)
    workload = Workload.from_counts(small_templates, {"T1": 2, "T3": 2})
    result = find_optimal_schedule(
        workload, single_vm_type_catalog(), goal, latency_model
    )
    # Compare against a hand-built sensible schedule: short queries first, two VMs.
    queries = sorted(workload, key=lambda q: q.template_name)
    manual = Schedule(
        [
            VMAssignment(t2_medium(), (queries[0], queries[2])),
            VMAssignment(t2_medium(), (queries[1], queries[3])),
        ]
    )
    manual_cost = CostModel(latency_model).total_cost(manual, goal)
    assert result.total_cost <= manual_cost + 1e-9
