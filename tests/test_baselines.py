"""FFD, FFI, Pack9, and the trivial reference schedulers."""

from __future__ import annotations

import pytest

from repro import units
from repro.baselines.first_fit import (
    FirstFitDecreasingScheduler,
    FirstFitIncreasingScheduler,
)
from repro.baselines.pack9 import Pack9Scheduler
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import t2_medium
from repro.core.cost_model import CostModel
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.percentile import PercentileGoal
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.workload import Workload
from oracles import OneQueryPerVMScheduler, SingleVMScheduler, validate_complete


@pytest.fixture()
def latency(small_templates):
    return TemplateLatencyModel(small_templates)


def test_ffd_orders_longest_first(small_templates, latency, max_goal):
    scheduler = FirstFitDecreasingScheduler(t2_medium(), max_goal, latency)
    workload = Workload.from_template_names(small_templates, ["T1", "T3", "T2"])
    ordered = scheduler.ordered_queries(workload)
    assert [q.template_name for q in ordered] == ["T3", "T2", "T1"]


def test_ffi_orders_shortest_first(small_templates, latency, max_goal):
    scheduler = FirstFitIncreasingScheduler(t2_medium(), max_goal, latency)
    workload = Workload.from_template_names(small_templates, ["T3", "T1", "T2"])
    ordered = scheduler.ordered_queries(workload)
    assert [q.template_name for q in ordered] == ["T1", "T2", "T3"]


def test_first_fit_respects_deadline(small_templates, latency):
    goal = MaxLatencyGoal(deadline=units.minutes(5))
    scheduler = FirstFitIncreasingScheduler(t2_medium(), goal, latency)
    workload = Workload.from_counts(small_templates, {"T3": 3})
    schedule = scheduler.schedule(workload)
    # Each 4-minute query alone fits; two together (8 min) would violate.
    assert schedule.num_vms() == 3
    cost = CostModel(latency).breakdown(schedule, goal)
    assert cost.penalty_cost == 0.0


def test_first_fit_packs_when_deadline_allows(small_templates, latency):
    goal = MaxLatencyGoal(deadline=units.minutes(60))
    scheduler = FirstFitDecreasingScheduler(t2_medium(), goal, latency)
    workload = WorkloadGenerator(small_templates, seed=1).uniform(12)
    schedule = scheduler.schedule(workload)
    assert schedule.num_vms() == 1


def test_first_fit_schedules_are_complete(small_templates, latency, max_goal):
    workload = WorkloadGenerator(small_templates, seed=2).uniform(25)
    for scheduler_cls in (FirstFitDecreasingScheduler, FirstFitIncreasingScheduler):
        schedule = scheduler_cls(t2_medium(), max_goal, latency).schedule(workload)
        validate_complete(schedule, workload)


def test_first_fit_empty_workload(small_templates, latency, max_goal):
    scheduler = FirstFitDecreasingScheduler(t2_medium(), max_goal, latency)
    assert scheduler.schedule(Workload(small_templates, [])).num_vms() == 0


def test_pack9_ordering(small_templates, latency, percentile_goal):
    scheduler = Pack9Scheduler(t2_medium(), percentile_goal, latency)
    workload = Workload.from_counts(small_templates, {"T1": 10, "T3": 2})
    ordered = scheduler.ordered_queries(workload)
    names = [q.template_name for q in ordered]
    # Nine short queries first, then the longest remaining one.
    assert names[:9] == ["T1"] * 9
    assert names[9] == "T3"
    assert len(names) == 12


def test_pack9_complete_and_respects_percentile(small_templates, latency):
    goal = PercentileGoal(percent=90.0, deadline=units.minutes(6))
    workload = WorkloadGenerator(small_templates, seed=3).uniform(30)
    schedule = Pack9Scheduler(t2_medium(), goal, latency).schedule(workload)
    validate_complete(schedule, workload)


def test_one_query_per_vm(small_templates):
    workload = WorkloadGenerator(small_templates, seed=4).uniform(7)
    schedule = OneQueryPerVMScheduler(t2_medium()).schedule(workload)
    assert schedule.num_vms() == 7
    validate_complete(schedule, workload)


def test_single_vm_scheduler(small_templates):
    workload = WorkloadGenerator(small_templates, seed=5).uniform(7)
    schedule = SingleVMScheduler(t2_medium()).schedule(workload)
    assert schedule.num_vms() == 1
    validate_complete(schedule, workload)
    (vm,) = schedule
    names = [q.template_name for q in vm.queries]
    latencies = [small_templates[name].base_latency for name in names]
    assert latencies == sorted(latencies)


def test_single_vm_empty(small_templates):
    assert SingleVMScheduler(t2_medium()).schedule(Workload(small_templates, [])).num_vms() == 0


def test_ffi_beats_ffd_on_per_query_style_example(small_templates, latency):
    """The Section 3 motivating example: FFI packs better than FFD here."""
    goal = MaxLatencyGoal(deadline=units.minutes(3))
    workload = Workload.from_counts(small_templates, {"T1": 1, "T2": 3})
    cost_model = CostModel(latency)
    ffd = FirstFitDecreasingScheduler(t2_medium(), goal, latency).schedule(workload)
    ffi = FirstFitIncreasingScheduler(t2_medium(), goal, latency).schedule(workload)
    assert cost_model.total_cost(ffi, goal) <= cost_model.total_cost(ffd, goal)
