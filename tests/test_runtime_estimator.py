"""Per-strategy cost estimation and cost attribution."""

from __future__ import annotations

import pytest

from repro import units
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import t2_medium
from repro.core.cost_model import CostModel
from repro.core.schedule import Schedule, VMAssignment
from repro.runtime.estimator import CostEstimator, per_template_cost_profile
from repro.sla.max_latency import MaxLatencyGoal
from repro.workloads.query import Query


@pytest.fixture()
def latency(small_templates):
    return TemplateLatencyModel(small_templates)


def _schedule(*queues):
    return Schedule(
        VMAssignment(t2_medium(), tuple(Query(template_name=name) for name in queue))
        for queue in queues
    )


def test_profile_covers_total_cost(latency):
    goal = MaxLatencyGoal(deadline=units.minutes(3))
    schedule = _schedule(("T1", "T2"), ("T3",))  # one query per template
    profile = per_template_cost_profile(schedule, goal, latency)
    total = CostModel(latency).total_cost(schedule, goal)
    assert sum(profile.values()) == pytest.approx(total)
    assert len(profile) == 3


def test_profile_averages_by_template(latency, max_goal):
    schedule = _schedule(("T1", "T1"), ("T3",))
    profile = per_template_cost_profile(schedule, max_goal, latency)
    assert set(profile) == {"T1", "T3"}
    assert profile["T3"] > profile["T1"]


def test_estimator_linear_in_counts(small_templates):
    estimator = CostEstimator(small_templates, {"T1": 1.0, "T2": 2.0, "T3": 4.0})
    assert estimator.estimate({"T1": 10}) == pytest.approx(10.0)
    assert estimator.estimate({"T1": 10, "T3": 5}) == pytest.approx(30.0)
    assert estimator.estimate({}) == 0.0


def test_estimator_skips_zero_and_negative_counts(small_templates):
    estimator = CostEstimator(small_templates, {"T1": 1.5, "T2": 2.5})
    # A zero count adds nothing, not even the fallback cost of T3.
    assert estimator.estimate({"T1": 2, "T2": 1, "T3": 0}) == pytest.approx(5.5)
    assert estimator.estimate({"T1": 2, "T2": -1}) == pytest.approx(3.0)


def test_estimator_unknown_template_uses_fallback(small_templates):
    estimator = CostEstimator(small_templates, {"T1": 1.0, "T2": 3.0})
    assert estimator.per_query_cost("T99") == pytest.approx(2.0)


def test_estimator_empty_profile(small_templates):
    estimator = CostEstimator(small_templates, {})
    assert estimator.estimate({"T1": 5}) == 0.0
