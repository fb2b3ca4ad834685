"""Batch scheduling with trained decision models."""

from __future__ import annotations

import pytest

from repro import units
from repro.core.cost_model import CostModel
from repro.runtime.batch import BatchScheduler, RuntimeSchedulingContext
from repro.search.state import SearchState, freeze_counts
from repro.search.problem import SearchNode
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.query import Query
from repro.workloads.templates import QueryTemplate
from repro.workloads.workload import Workload

from search_helpers import children


def _node_for(vm_type, queue, finish, remaining):
    state = SearchState(
        vms=((vm_type.name, tuple(queue)),) if vm_type is not None else (),
        remaining=freeze_counts(remaining),
    )
    return SearchNode(
        state=state,
        parent=None,
        action=None,
        infra_cost=0.0,
        penalty=0.0,
        last_vm_finish=finish,
        depth=0,
    )


def test_schedule_is_complete_and_valid(trained_max, small_templates):
    workload = WorkloadGenerator(small_templates, seed=3).uniform(20)
    schedule = BatchScheduler(trained_max.model).schedule(workload)
    schedule.validate_complete(workload)


def test_empty_workload_gives_empty_schedule(trained_max, small_templates):
    schedule = BatchScheduler(trained_max.model).schedule(Workload(small_templates, []))
    assert schedule.num_vms() == 0


def test_scheduling_is_deterministic(trained_max, small_templates):
    workload = WorkloadGenerator(small_templates, seed=4).uniform(15)
    first = BatchScheduler(trained_max.model).schedule(workload)
    second = BatchScheduler(trained_max.model).schedule(workload)
    assert first.signature() == second.signature()


def test_larger_workloads_use_more_vms(trained_max, small_templates):
    generator = WorkloadGenerator(small_templates, seed=5)
    small = BatchScheduler(trained_max.model).schedule(generator.uniform(6))
    large = BatchScheduler(trained_max.model).schedule(generator.uniform(40))
    assert large.num_vms() > small.num_vms()


def test_schedule_cost_is_reasonable(trained_max, small_templates):
    """The learned strategy should stay in the same ballpark as a per-query-per-VM plan."""
    workload = WorkloadGenerator(small_templates, seed=6).uniform(24)
    model = trained_max.model
    schedule = BatchScheduler(model).schedule(workload)
    cost_model = CostModel(model.latency_model)
    cost = cost_model.total_cost(schedule, model.goal)
    # Reference: every query on its own VM is penalty-free but pays maximal start-up fees.
    from repro.baselines.trivial import OneQueryPerVMScheduler

    reference = OneQueryPerVMScheduler(model.vm_types.default).schedule(workload)
    reference_cost = cost_model.total_cost(reference, model.goal)
    assert cost <= reference_cost * 1.05


def test_unknown_template_mapped_to_closest(trained_max, small_templates):
    """Queries from unseen templates are scheduled as their closest known template."""
    foreign_templates = small_templates.extended(
        [QueryTemplate(name="T_new", base_latency=units.minutes(2.1))]
    )
    workload = Workload.from_template_names(
        foreign_templates, ["T1", "T_new", "T3", "T_new"]
    )
    schedule = BatchScheduler(trained_max.model).schedule(workload)
    schedule.validate_complete(workload)
    assert schedule.num_queries() == 4


def test_detailed_result_with_existing_vm(trained_max, small_templates, vm_catalog):
    workload = Workload.from_counts(small_templates, {"T1": 3, "T2": 2})
    result = BatchScheduler(trained_max.model).schedule_detailed(
        workload,
        existing_vm_type=vm_catalog.default,
        existing_vm_busy_time=units.minutes(1),
    )
    total = result.schedule.num_queries() + len(result.placed_on_existing_vm)
    assert total == len(workload)
    assert result.decisions >= len(workload)


def test_runtime_context_matches_problem_edge_costs(trained_max, small_templates, vm_catalog):
    """The runtime cost provider agrees with the search-graph edge weights."""
    from repro.cloud.latency import TemplateLatencyModel
    from repro.search.problem import SchedulingProblem

    model = trained_max.model
    problem = SchedulingProblem(
        template_counts={"T1": 2, "T2": 1, "T3": 1},
        templates=small_templates,
        vm_types=vm_catalog,
        goal=model.goal,
        latency_model=TemplateLatencyModel(small_templates),
    )
    context = RuntimeSchedulingContext(model)
    # Walk a few placements in lockstep and compare marginal costs.
    node = problem.initial_node()
    node = children(problem, node)[0]  # provision
    for template in ("T1", "T2"):
        search_cost = problem.placement_edge_cost(node, template)
        runtime_node = _node_for(
            vm_catalog.default,
            [o.template_name for o in node.outcomes],
            node.last_vm_finish,
            dict(node.state.remaining),
        )
        runtime_cost = context.placement_edge_cost(runtime_node, template)
        assert runtime_cost == pytest.approx(search_cost)
        node = next(
            child
            for child in children(problem, node)
            if getattr(child.action, "template_name", None) == template
        )
        context.record_placement(template, node.last_vm_finish)


def test_runtime_context_infeasible_cases(trained_max):
    context = RuntimeSchedulingContext(trained_max.model)
    node = _node_for(None, [], 0.0, {"T1": 1})
    assert context.placement_edge_cost(node, "T1") == float("inf")


def test_scheduler_counts_decisions(trained_max, small_templates):
    workload = Workload.from_counts(small_templates, {"T1": 4, "T3": 2})
    result = BatchScheduler(trained_max.model).schedule_detailed(workload)
    # At least one decision per query (placements) and at least one provisioning.
    assert result.decisions >= len(workload) + 1
