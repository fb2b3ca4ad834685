"""Evaluation metrics and the shared experiment harness."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.config import TrainingConfig
from repro.evaluation.harness import (
    CostComparison,
    ExperimentEnvironment,
    average_percent_above_optimal,
    build_environment,
    compare_to_heuristics,
    compare_to_optimal,
    figure_number,
    format_table,
    measure_training_time,
    optimality_cell,
    skewed_workloads,
    uniform_workloads,
)
from repro.evaluation.metrics import mean, percent_above, spread
from repro.search.optimal import find_optimal_schedule
from repro.sla.factory import GOAL_KINDS, default_goal
from oracles import validate_complete


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_percent_above():
    assert percent_above(110.0, 100.0) == pytest.approx(10.0)
    assert percent_above(90.0, 100.0) == pytest.approx(-10.0)
    assert percent_above(5.0, 0.0) == 0.0


def test_mean_and_spread():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert math.isnan(mean([]))
    assert spread([5.0, 1.0, 3.0]) == 4.0
    assert spread([2.0]) == 0.0


def test_cost_comparison_property():
    comparison = CostComparison(label="w", model_cost=11.0, reference_cost=10.0)
    assert comparison.percent_above_reference == pytest.approx(10.0)
    assert average_percent_above_optimal([comparison]) == pytest.approx(10.0)
    assert math.isnan(average_percent_above_optimal([]))


def test_format_table_alignment():
    rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
    table = format_table(rows, ["a", "b"])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "a" in lines[0] and "b" in lines[0]


# ---------------------------------------------------------------------------
# Harness (uses a tiny environment; marked slow-ish but still unit-scale)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_environment(small_templates):
    return build_environment(
        "max",
        templates=small_templates,
        config=TrainingConfig.tiny(seed=5),
    )


def test_build_environment_contents(tiny_environment, small_templates):
    assert isinstance(tiny_environment, ExperimentEnvironment)
    assert tiny_environment.goal.kind == "max"
    assert tiny_environment.model.goal is tiny_environment.goal
    assert tiny_environment.templates is small_templates


def test_uniform_and_skewed_workload_helpers(small_templates):
    uniform = uniform_workloads(small_templates, count=3, size=12, seed=1)
    assert len(uniform) == 3
    assert all(len(w) == 12 for w in uniform)
    skewed = skewed_workloads(small_templates, count=2, size=12, skew=0.9, seed=2)
    assert len(skewed) == 2
    for workload in skewed:
        assert max(workload.template_counts().values()) >= 8


def test_compare_to_optimal_produces_comparisons(tiny_environment, small_templates):
    workloads = uniform_workloads(small_templates, count=2, size=10, seed=3)
    comparisons, dropped = compare_to_optimal(
        tiny_environment, workloads, max_expansions=100_000
    )
    assert len(comparisons) + dropped == len(workloads)
    assert comparisons
    for comparison in comparisons:
        assert comparison.model_cost >= comparison.reference_cost - 1e-9


@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_the_optimum_is_priced_as_the_model_is_bit_for_bit(tiny_environment, small_templates, kind):
    """``compare_to_optimal`` prices both sides through ``CostModel.breakdown``:
    an optimum's ``total_cost`` is ``environment.cost_of`` of its schedule,
    which ``find_optimal_schedule`` builds from the ``(vm type, templates)``
    pairs read off the goal node's path, to the bit.  The search's running
    total agrees with it only up to float order."""
    environment = replace(tiny_environment, goal=default_goal(kind, small_templates))
    for workload in uniform_workloads(small_templates, count=3, size=6, seed=8):
        optimal = find_optimal_schedule(
            workload, environment.vm_types, environment.goal, environment.latency_model
        )
        validate_complete(optimal.schedule, workload)
        assert optimal.total_cost == environment.cost_of(optimal.schedule)
        assert optimal.total_cost == pytest.approx(optimal.search.cost, rel=1e-12, abs=1e-12)


def test_compare_to_optimal_counts_the_workloads_it_drops(tiny_environment, small_templates):
    """A workload whose optimum runs out of budget is dropped and counted; a
    cell over nothing but dropped workloads prints "no number", never nan."""
    workloads = uniform_workloads(small_templates, count=3, size=10, seed=3)
    comparisons, dropped = compare_to_optimal(tiny_environment, workloads, max_expansions=1)
    assert (comparisons, dropped) == ([], 3)
    assert optimality_cell(comparisons, dropped) == "no number (3 dropped)"
    assert figure_number(average_percent_above_optimal(comparisons)) == "no number"
    kept = [CostComparison("a", 11.0, 10.0), CostComparison("b", 10.0, 10.0)]
    assert optimality_cell(kept, 1) == "5.0 (1 dropped)"
    assert figure_number(1.0 / 3.0) == 0.33


def test_compare_to_heuristics_includes_all_schedulers(tiny_environment, small_templates):
    workload = uniform_workloads(small_templates, count=1, size=20, seed=4)[0]
    costs = compare_to_heuristics(tiny_environment, workload)
    assert set(costs) == {"FFD", "FFI", "Pack9", "WiSeDB"}
    assert all(value > 0 for value in costs.values())


def test_measure_training_time(small_templates):
    elapsed, result = measure_training_time(
        "max", num_templates=3, config=TrainingConfig.tiny(seed=6)
    )
    assert elapsed > 0.0
    assert result.num_examples > 0
