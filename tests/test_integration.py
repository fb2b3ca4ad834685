"""Cross-module integration through the service API: train, schedule, adapt,
recommend, estimate and run online, checked against the optimal search."""

from __future__ import annotations

import pytest

from repro.config import TrainingConfig
from repro.runtime.estimator import CostEstimator, per_template_cost_profile
from repro.runtime.online import OnlineOptimizations
from repro.search.optimal import find_optimal_schedule
from repro.service import WiSeDBService
from repro.sla.max_latency import MaxLatencyGoal
from repro.workloads.generator import WorkloadGenerator

TENANT = "app"


@pytest.fixture(scope="module")
def service(small_templates):
    service = WiSeDBService()
    service.register(
        TENANT,
        small_templates,
        MaxLatencyGoal.from_factor(small_templates, factor=2.5),
        config=TrainingConfig.tiny(seed=13),
    )
    service.train(TENANT)
    return service


def test_schedule_batch_and_evaluate(service, small_templates):
    workload = WorkloadGenerator(small_templates, seed=31).uniform(18)
    outcome = service.schedule_batch(TENANT, workload)
    assert not outcome.degraded
    outcome.schedule.validate_complete(workload)
    breakdown = service.evaluate(TENANT, outcome.schedule)
    assert breakdown == outcome.cost
    assert breakdown.total > 0.0
    assert breakdown.startup_cost > 0.0


def test_scheduled_cost_close_to_optimal(service, small_templates):
    """Integration: the full pipeline stays in the optimal's ballpark (Figure 9 shape)."""
    workload = WorkloadGenerator(small_templates, seed=32).uniform(16)
    model_cost = service.schedule_batch(TENANT, workload).total_cost
    spec = service.tenant(TENANT).spec
    optimal = find_optimal_schedule(
        workload,
        spec.vm_types,
        spec.goal,
        spec.resolved_latency_model(),
        max_expansions=200_000,
    )
    assert model_cost <= optimal.total_cost * 1.35


def test_adapt_produces_stricter_model(service, small_templates):
    goal = service.tenant(TENANT).spec.goal
    result, report = service.adapt(TENANT, goal.tightened(0.3, small_templates))
    assert result.model.goal.deadline < goal.deadline
    assert report.samples_retrained > 0
    # Adapting derives a model without moving the tenant off its goal.
    assert service.model(TENANT).goal is goal


def test_recommend_strategies(service):
    strategies = service.recommend_strategies(
        TENANT, k=3, num_candidates=5, max_shift=0.4
    )
    assert len(strategies) == 3
    deadlines = [s.goal.deadline for s in strategies]
    assert deadlines == sorted(deadlines, reverse=True)


def test_cost_estimator_roundtrip(service, small_templates):
    spec = service.tenant(TENANT).spec
    calibration = WorkloadGenerator(small_templates, seed=23).uniform(100)
    profile = per_template_cost_profile(
        service.schedule_batch(TENANT, calibration).schedule,
        spec.goal,
        spec.resolved_latency_model(),
    )
    estimator = CostEstimator(small_templates, profile)
    estimate = estimator.estimate({"T1": 10, "T2": 5, "T3": 5})
    workload = WorkloadGenerator(small_templates, seed=33).from_proportions(
        {"T1": 0.5, "T2": 0.25, "T3": 0.25}, 20
    )
    actual = service.schedule_batch(TENANT, workload).total_cost
    # The estimator is calibrated on a different sample; it should land within
    # a factor of two of the realised cost for a similar mix.
    assert 0.4 * actual <= estimate <= 2.5 * actual


def test_evaluate_with_explicit_goal(service, small_templates):
    workload = WorkloadGenerator(small_templates, seed=36).uniform(8)
    schedule = service.schedule_batch(TENANT, workload).schedule
    loose = MaxLatencyGoal(deadline=10_000.0)
    strict = MaxLatencyGoal(deadline=60.0)
    assert (
        service.evaluate(TENANT, schedule, strict).total
        >= service.evaluate(TENANT, schedule, loose).total
    )


def test_online_run(service, small_templates):
    generator = WorkloadGenerator(small_templates, seed=34)
    workload = generator.with_fixed_arrivals(generator.uniform(8), delay=45.0)
    outcome = service.run_online(
        TENANT, workload, OnlineOptimizations.all(), wait_resolution=60.0
    )
    assert len(outcome.query_outcomes) == len(workload)
    assert outcome.total_cost > 0.0
    assert outcome.scheduler == "WiSeDB-online"


GOAL_KINDS = ("max", "per_query", "average", "percentile")


@pytest.fixture(scope="module")
def goal_service(small_templates, all_goals):
    """One trained tenant per goal kind, each named after its kind."""
    service = WiSeDBService()
    for kind in GOAL_KINDS:
        service.register(
            kind, small_templates, all_goals[kind], config=TrainingConfig.tiny(seed=13)
        )
        service.train(kind)
    return service


@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_every_goal_kind_schedules_close_to_optimal(goal_service, small_templates, kind):
    workload = WorkloadGenerator(small_templates, seed=40).uniform(12)
    outcome = goal_service.schedule_batch(kind, workload)
    assert not outcome.degraded
    outcome.schedule.validate_complete(workload)
    assert goal_service.evaluate(kind, outcome.schedule) == outcome.cost
    spec = goal_service.tenant(kind).spec
    optimal = find_optimal_schedule(
        workload,
        spec.vm_types,
        spec.goal,
        spec.resolved_latency_model(),
        max_expansions=200_000,
    )
    assert optimal.total_cost <= outcome.total_cost <= optimal.total_cost * 1.35


@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_every_goal_kind_runs_online(goal_service, small_templates, kind):
    generator = WorkloadGenerator(small_templates, seed=34)
    workload = generator.with_fixed_arrivals(generator.uniform(8), delay=45.0)
    outcome = goal_service.run_online(
        kind, workload, OnlineOptimizations.all(), wait_resolution=60.0
    )
    assert not outcome.degraded
    assert outcome.goal.kind == kind
    assert len(outcome.query_outcomes) == len(workload)
    outcome.schedule.validate_complete(workload)
    assert outcome.total_cost > 0.0


def test_two_vm_type_catalogue(small_templates, two_type_catalog):
    service = WiSeDBService()
    service.register(
        TENANT,
        small_templates,
        MaxLatencyGoal.from_factor(small_templates, factor=2.5),
        vm_types=two_type_catalog,
        config=TrainingConfig.tiny(seed=14),
    )
    workload = WorkloadGenerator(small_templates, seed=37).uniform(15)
    outcome = service.schedule_batch(TENANT, workload)
    assert not outcome.degraded
    outcome.schedule.validate_complete(workload)
    used_types = {vm.vm_type.name for vm in outcome.schedule}
    assert used_types <= {"t2.medium", "t2.small"}
