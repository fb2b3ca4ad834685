"""Property-based invariants of the optimal-schedule search."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.baselines.first_fit import (
    FirstFitDecreasingScheduler,
    FirstFitIncreasingScheduler,
)
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import single_vm_type_catalog, t2_medium
from repro.core.cost_model import CostModel
from repro.search.optimal import find_optimal_schedule
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.percentile import PercentileGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.workloads.templates import QueryTemplate, TemplateSet
from repro.workloads.workload import Workload
from oracles import OneQueryPerVMScheduler, SingleVMScheduler, validate_complete

TEMPLATES = TemplateSet(
    [
        QueryTemplate(name="T1", base_latency=units.minutes(1)),
        QueryTemplate(name="T2", base_latency=units.minutes(2)),
        QueryTemplate(name="T3", base_latency=units.minutes(4)),
    ]
)
LATENCY = TemplateLatencyModel(TEMPLATES)
CATALOG = single_vm_type_catalog()
COST = CostModel(LATENCY)

workload_strategy = st.lists(
    st.sampled_from(TEMPLATES.names), min_size=1, max_size=6
).map(lambda names: Workload.from_template_names(TEMPLATES, names))

goal_strategy = st.sampled_from(
    [
        MaxLatencyGoal(deadline=units.minutes(6)),
        MaxLatencyGoal(deadline=units.minutes(12)),
        PerQueryDeadlineGoal.from_factor(TEMPLATES, factor=2.0),
        AverageLatencyGoal(deadline=units.minutes(5)),
        PercentileGoal(percent=75.0, deadline=units.minutes(6)),
    ]
)


@given(workload=workload_strategy, goal=goal_strategy)
@settings(max_examples=40, deadline=None)
def test_optimal_schedule_is_complete_and_costed_consistently(workload, goal):
    """The search returns a complete schedule whose reported cost matches Equation 1."""
    result = find_optimal_schedule(workload, CATALOG, goal, LATENCY)
    validate_complete(result.schedule, workload)
    assert result.total_cost == pytest.approx(
        COST.total_cost(result.schedule, goal), rel=1e-9
    )


@given(workload=workload_strategy, goal=goal_strategy)
@settings(max_examples=30, deadline=None)
def test_optimal_never_loses_to_reference_schedulers(workload, goal):
    """Property: no baseline scheduler ever beats the A* optimum."""
    optimal = find_optimal_schedule(workload, CATALOG, goal, LATENCY).total_cost
    vm_type = t2_medium()
    references = [
        FirstFitDecreasingScheduler(vm_type, goal, LATENCY).schedule(workload),
        FirstFitIncreasingScheduler(vm_type, goal, LATENCY).schedule(workload),
        OneQueryPerVMScheduler(vm_type).schedule(workload),
        SingleVMScheduler(vm_type).schedule(workload),
    ]
    for schedule in references:
        assert optimal <= COST.total_cost(schedule, goal) + 1e-6


@given(workload=workload_strategy)
@settings(max_examples=25, deadline=None)
def test_tightening_the_goal_never_reduces_the_optimal_cost(workload):
    """Property behind Lemma 5.1: stricter goals can only cost more."""
    loose = MaxLatencyGoal(deadline=units.minutes(10))
    tight = MaxLatencyGoal(deadline=units.minutes(5))
    loose_cost = find_optimal_schedule(workload, CATALOG, loose, LATENCY).total_cost
    tight_cost = find_optimal_schedule(workload, CATALOG, tight, LATENCY).total_cost
    assert tight_cost >= loose_cost - 1e-9


@given(workload=workload_strategy, goal=goal_strategy)
@settings(max_examples=25, deadline=None)
def test_adding_a_query_never_reduces_the_optimal_cost(workload, goal):
    """Property: supersets of work cost at least as much to execute optimally."""
    base_cost = find_optimal_schedule(workload, CATALOG, goal, LATENCY).total_cost
    extended = workload.with_queries(
        [*workload.queries, Workload.from_template_names(TEMPLATES, ["T1"]).queries[0]]
    )
    extended_cost = find_optimal_schedule(extended, CATALOG, goal, LATENCY).total_cost
    assert extended_cost >= base_cost - 1e-9
