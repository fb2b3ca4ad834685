"""Every scheduler family speaks the unified Scheduler protocol."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.first_fit import (
    FirstFitDecreasingScheduler,
    FirstFitIncreasingScheduler,
)
from repro.baselines.pack9 import Pack9Scheduler
from repro.baselines.trivial import OneQueryPerVMScheduler, SingleVMScheduler
from repro.cloud.vm import t2_medium
from repro.core.cost_model import CostModel
from repro.core.scheduler import Scheduler, SchedulingOutcome
from repro.evaluation.harness import (
    ExperimentEnvironment,
    heuristic_schedulers,
    run_schedulers,
)
from repro.exceptions import SpecificationError
from repro.runtime.batch import BatchScheduler
from repro.runtime.online import OnlineScheduler
from repro.service.registry import ModelRegistry
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def environment(small_templates, vm_catalog, latency_model, max_goal, trained_max):
    return ExperimentEnvironment(
        templates=small_templates,
        vm_types=vm_catalog,
        latency_model=latency_model,
        goal=max_goal,
        training=trained_max,
    )


def _all_schedulers(trained_max, model_generator, max_goal, latency_model):
    vm_type = t2_medium()
    return [
        BatchScheduler(trained_max.model),
        OnlineScheduler(base_training=trained_max, generator=model_generator),
        FirstFitDecreasingScheduler(vm_type, max_goal, latency_model),
        FirstFitIncreasingScheduler(vm_type, max_goal, latency_model),
        Pack9Scheduler(vm_type, max_goal, latency_model),
        OneQueryPerVMScheduler(vm_type, max_goal, latency_model),
        SingleVMScheduler(vm_type, max_goal, latency_model),
    ]


def test_every_family_satisfies_the_protocol(
    trained_max, model_generator, max_goal, latency_model
):
    for scheduler in _all_schedulers(
        trained_max, model_generator, max_goal, latency_model
    ):
        assert isinstance(scheduler, Scheduler)
        assert isinstance(scheduler.name, str) and scheduler.name


def test_every_family_produces_complete_outcomes(
    trained_max, model_generator, max_goal, latency_model, small_workload
):
    names = set()
    for scheduler in _all_schedulers(
        trained_max, model_generator, max_goal, latency_model
    ):
        outcome = scheduler.run(small_workload)
        assert isinstance(outcome, SchedulingOutcome)
        assert outcome.scheduler == scheduler.name
        names.add(outcome.scheduler)
        assert outcome.num_queries() == len(small_workload)
        assert len(outcome.query_outcomes) == len(small_workload)
        assert outcome.total_cost > 0.0
        assert outcome.cost.total == pytest.approx(
            outcome.cost.startup_cost
            + outcome.cost.execution_cost
            + outcome.cost.penalty_cost
        )
        assert outcome.overhead.wall_time_seconds >= 0.0
        outcome.schedule.validate_complete(small_workload)
    assert len(names) == 7  # every family keeps a distinct display name


def test_batch_outcome_cost_matches_cost_model(trained_max, small_workload):
    scheduler = BatchScheduler(trained_max.model)
    outcome = scheduler.run(small_workload)
    expected = CostModel(trained_max.model.latency_model).breakdown(
        outcome.schedule, trained_max.goal
    )
    assert outcome.cost == expected


def test_a_priced_outcome_computes_its_violation_once(
    trained_max, small_workload, monkeypatch
):
    goal = trained_max.goal
    scans = []
    scan = type(goal).violation_period

    def counting_scan(self, outcomes):
        scans.append(outcomes)
        return scan(self, outcomes)

    monkeypatch.setattr(type(goal), "violation_period", counting_scan)
    outcome = BatchScheduler(trained_max.model).run(small_workload)
    record = ModelRegistry().record_outcome("t", outcome, "batch")
    expected = scan(goal, outcome.query_outcomes)
    assert [s for s in scans if s is outcome.query_outcomes] == [outcome.query_outcomes]
    assert record.violation_seconds == outcome.violation == expected
    assert outcome.cost.penalty_cost == goal.penalty_rate * expected
    # Derived state: equality and repr ignore it, and without it the
    # outcome still computes the violation.
    bare = dataclasses.replace(outcome, violation=None)
    assert bare == outcome and repr(bare) == repr(outcome)
    assert bare.violation_period() == expected


def test_online_outcome_matches_report(trained_max, model_generator, small_templates):
    generator = WorkloadGenerator(small_templates, seed=61)
    workload = generator.with_fixed_arrivals(generator.uniform(6), delay=45.0)
    outcome = OnlineScheduler(
        base_training=trained_max, generator=model_generator, wait_resolution=60.0
    ).run(workload)
    report = OnlineScheduler(
        base_training=trained_max, generator=model_generator, wait_resolution=60.0
    ).run_report(workload)
    assert outcome.cost == report.cost
    assert outcome.query_outcomes == report.outcomes
    assert outcome.num_vms() == report.num_vms
    assert outcome.overhead.retrains == report.retrains


def test_trivial_scheduler_without_goal_cannot_price(small_workload):
    scheduler = SingleVMScheduler(t2_medium())
    assert scheduler.schedule(small_workload).num_queries() == len(small_workload)
    with pytest.raises(SpecificationError):
        scheduler.run(small_workload)


def test_harness_runs_every_scheduler_through_the_protocol(
    environment, small_workload
):
    schedulers = heuristic_schedulers(environment)
    outcomes = run_schedulers(schedulers, small_workload)
    assert set(outcomes) == {"FFD", "FFI", "Pack9", "WiSeDB"}
    for label, outcome in outcomes.items():
        assert outcome.scheduler == label
        assert outcome.total_cost == pytest.approx(
            environment.cost_of(outcome.schedule)
        )
