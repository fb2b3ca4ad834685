"""Every retraining search carries the old goal's accumulator, and it is exact.

Retraining searches (adaptive A*, Section 5) carry a second, old-goal
violation accumulator per node, for every goal kind, so
:class:`AdaptiveBound` reads ``cost(R, v)`` as an O(1) delta.  These tests
pin that one path, for all four kinds and for an old percentile goal with
another percentile:

* node-level: ``aux_penalty`` equals ``old_goal.penalty(outcomes)`` evaluated
  from scratch — bit for bit — along expansions (``tests/test_search_tree.py``
  checks the same at every vertex of the oracle grid);
* search-level: every vertex of an adaptive search's optimal path is priced
  at least at ``h'`` of its from-scratch old-goal penalty, and the search
  finds a fresh search's optimum (proven for max and per-query goals);
* training-level: a retrain whose samples kept no path searches every one of
  them under ``h'`` and still costs what a fresh training says.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.adaptive.retraining import AdaptiveBound, AdaptiveModeler
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import single_vm_type_catalog
from repro.config import TrainingConfig
from repro.learning.trainer import ModelGenerator
from repro.search.astar import astar_search
from repro.search.problem import SchedulingProblem
from repro.sla.base import PerformanceGoal
from repro.sla.percentile import PercentileGoal
from repro.workloads.templates import QueryTemplate, TemplateSet

from search_helpers import children

TEMPLATES = TemplateSet(
    [
        QueryTemplate(name="T1", base_latency=units.minutes(1)),
        QueryTemplate(name="T2", base_latency=units.minutes(2)),
        QueryTemplate(name="T3", base_latency=units.minutes(4)),
    ]
)
VM_TYPES = single_vm_type_catalog()
LATENCY_MODEL = TemplateLatencyModel(TEMPLATES)
GOAL_KINDS = ("max", "per_query", "average", "percentile")
#: The four goal kinds, plus an old percentile goal at another percentile.
CASES = (*GOAL_KINDS, "percentile_other_percent")
#: The kinds for which ``h'`` is admissible (Lemma 5.1), so a search under it
#: is exact.
ADMISSIBLE_KINDS = ("max", "per_query")


def _goals(case: str, all_goals) -> tuple[PerformanceGoal, PerformanceGoal]:
    """(old goal, new goal) pair for one case: a goal kind tightened by 35 %."""
    if case == "percentile_other_percent":
        new_goal = all_goals["percentile"]
        return PercentileGoal(percent=75.0, deadline=new_goal.deadline), new_goal
    old_goal = all_goals[case]
    return old_goal, old_goal.tightened(0.35, TEMPLATES)


def _problem(counts, goal, bound=None) -> SchedulingProblem:
    return SchedulingProblem(
        template_counts=counts,
        templates=TEMPLATES,
        vm_types=VM_TYPES,
        goal=goal,
        latency_model=LATENCY_MODEL,
        adaptive_bound=bound,
    )


counts_strategy = st.fixed_dictionaries(
    {
        "T1": st.integers(min_value=0, max_value=3),
        "T2": st.integers(min_value=0, max_value=3),
        "T3": st.integers(min_value=0, max_value=2),
    }
).filter(lambda counts: sum(counts.values()) > 0)


@given(case=st.sampled_from(CASES), counts=counts_strategy)
@settings(max_examples=30, deadline=None)
def test_property_aux_penalty_matches_batch_old_goal_penalty(
    case, counts, all_goals
):
    """aux_penalty equals old_goal.penalty(outcomes) bit-for-bit along expansions."""
    old_goal, new_goal = _goals(case, all_goals)
    problem = _problem(counts, new_goal, AdaptiveBound(old_goal, 0.0))
    node = problem.initial_node()
    assert node.aux_penalty == 0.0
    assert node.aux_accumulator is not None
    # Walk a few expansion layers breadth-first and check every generated node.
    frontier = [node]
    for _ in range(3):
        layer = []
        for parent in frontier:
            for child in children(problem, parent):
                assert child.aux_penalty == old_goal.penalty(child.outcomes)
                layer.append(child)
        frontier = layer[:8]
        if not frontier:
            break


@pytest.mark.parametrize("case", CASES)
@given(counts=counts_strategy)
@settings(max_examples=12, deadline=None)
def test_adaptive_search_prices_its_path_with_the_old_goal_penalty(
    case, counts, all_goals
):
    """Each path vertex's f-value is at least h' of its recomputed old-goal cost."""
    old_goal, new_goal = _goals(case, all_goals)
    bound = AdaptiveBound(old_goal, astar_search(_problem(counts, old_goal)).cost)
    result = astar_search(_problem(counts, new_goal, bound))
    fresh = astar_search(_problem(counts, new_goal))
    for node in result.path():
        old_penalty = old_goal.penalty(node.outcomes)
        assert node.aux_penalty == old_penalty
        assert node.priority >= bound(node.infra_cost, node.penalty, old_penalty)
    # Whatever h' prunes, the search returns a real schedule: never below the
    # optimum, and at it wherever h' is admissible.
    assert result.cost >= fresh.cost or math.isclose(
        result.cost, fresh.cost, rel_tol=1e-12
    )
    if case in ADMISSIBLE_KINDS:
        assert math.isclose(result.cost, fresh.cost, rel_tol=1e-12)


@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_retrain_without_kept_paths_searches_every_sample_to_the_fresh_cost(
    kind, all_goals
):
    """With no stored path to keep, every sample is searched under h'."""
    old_goal, new_goal = _goals(kind, all_goals)
    generator = ModelGenerator(
        TEMPLATES, vm_types=VM_TYPES, config=TrainingConfig.tiny(seed=13)
    )
    base = generator.generate(old_goal)
    base = replace(base, samples=[replace(s, path=()) for s in base.samples])

    result, report = AdaptiveModeler(generator, base).retrain(new_goal)
    fresh = generator.generate(new_goal, workloads=base.workloads)
    assert report.samples_kept == 0
    assert report.samples_retrained == len(result.samples) == len(fresh.samples)
    assert report.total_expansions == sum(s.expansions for s in result.samples)
    for adapted, oracle in zip(result.samples, fresh.samples):
        assert adapted.template_counts == oracle.template_counts
        assert adapted.expansions > 0 and adapted.path
        assert math.isclose(adapted.optimal_cost, oracle.optimal_cost, rel_tol=1e-12), (
            adapted.template_counts,
            adapted.optimal_cost,
            oracle.optimal_cost,
        )


def test_adaptive_bound_is_the_section_5_formula(all_goals):
    """h' = cost(R', v) + max(0, cost(R, g) - cost(R, v)), and it pickles."""
    bound = AdaptiveBound(all_goals["max"], 100.0)
    # The old partial cost 30 + 20 lies 50 below the old optimum.
    assert bound(30.0, 5.0, 20.0) == 30.0 + 5.0 + 50.0
    # At or past the old optimum the bound adds nothing to the partial cost.
    assert bound(60.0, 5.0, 40.0) == 65.0
    assert bound(60.0, 5.0, 90.0) == 65.0
    # Retraining ships the bound to worker processes.
    shipped = pickle.loads(pickle.dumps(bound))
    assert shipped.old_goal.to_dict() == bound.old_goal.to_dict()
    assert shipped.old_optimal_cost == bound.old_optimal_cost
    assert shipped(30.0, 5.0, 20.0) == bound(30.0, 5.0, 20.0)


def test_relaxed_goal_skips_aux_accumulator(all_goals):
    """Relaxed retrains use no adaptive bound, so nodes carry no aux state."""
    old_goal = all_goals["max"]
    problem = _problem({"T1": 2, "T2": 1}, old_goal)
    node = problem.initial_node()
    assert node.aux_accumulator is None
    assert node.aux_penalty == -1.0
    for child in children(problem, node):
        assert child.aux_accumulator is None
        assert child.aux_penalty == -1.0
