"""The incremental old-goal accumulator agrees with the recomputed AdaptiveBound.

Retraining searches (adaptive A*, Section 5) carry a second, old-goal
violation accumulator per node so :class:`AdaptiveBound` reads ``cost(R, v)``
as an O(1) delta.  These tests pin the contract that makes that safe, for all
four goal kinds:

* node-level: ``aux_penalty`` equals ``old_goal.penalty(outcomes)`` evaluated
  from scratch — bit for bit — along every expansion;
* search-level: f-values, optimal costs, expansion counts, and generated
  counts are identical whether the bound reads the accumulator or recomputes;
* training-level: :meth:`AdaptiveModeler.retrain` produces bit-identical
  training sets, sample solutions, and fitted trees when the bound reads the
  accumulator and when :class:`AdaptiveBound` falls back to re-evaluating the
  old goal (reached through a wrapper that advertises no ``aux_goal``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from repro.workloads.templates import QueryTemplate, TemplateSet

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


@dataclass(frozen=True)
class RecomputedBound:
    """The pre-refactor AdaptiveBound: re-evaluates the old goal per node.

    Deliberately does *not* expose ``aux_goal``, so problems built for it
    carry no auxiliary accumulator — this is the reference semantics the
    incremental path must reproduce bit for bit.
    """

    old_goal: PerformanceGoal
    old_optimal_cost: float

    def __call__(self, node) -> float:
        old_partial = node.infra_cost + self.old_goal.penalty(node.outcomes)
        return node.partial_cost + max(0.0, self.old_optimal_cost - old_partial)


@dataclass(frozen=True)
class HiddenAuxBound:
    """An :class:`AdaptiveBound` behind a wrapper that advertises no ``aux_goal``.

    Problems built for it carry no auxiliary accumulator, so every call runs
    ``AdaptiveBound.__call__``'s re-evaluation of the old goal; *reached*
    counts the calls.
    """

    bound: AdaptiveBound
    reached: list

    def __call__(self, node) -> float:
        assert node.aux_penalty < 0.0
        self.reached.append(1)
        return self.bound(node)


def _goals(kind: str, all_goals) -> tuple[PerformanceGoal, PerformanceGoal]:
    """(old goal, stricter new goal) pair for one goal kind."""
    old_goal = all_goals[kind]
    return old_goal, old_goal.tightened(0.35, TEMPLATES)


def _problem(counts, goal, aux_goal=None) -> SchedulingProblem:
    return SchedulingProblem(
        template_counts=counts,
        templates=TEMPLATES,
        vm_types=VM_TYPES,
        goal=goal,
        latency_model=LATENCY_MODEL,
        aux_goal=aux_goal,
    )


counts_strategy = st.fixed_dictionaries(
    {
        "T1": st.integers(min_value=0, max_value=3),
        "T2": st.integers(min_value=0, max_value=3),
        "T3": st.integers(min_value=0, max_value=2),
    }
).filter(lambda counts: sum(counts.values()) > 0)


@given(kind=st.sampled_from(GOAL_KINDS), counts=counts_strategy)
@settings(max_examples=30, deadline=None)
def test_property_aux_penalty_matches_batch_old_goal_penalty(
    kind, counts, all_goals
):
    """aux_penalty equals old_goal.penalty(outcomes) bit-for-bit along expansions."""
    old_goal, new_goal = _goals(kind, all_goals)
    problem = _problem(counts, new_goal, aux_goal=old_goal)
    node = problem.initial_node()
    assert node.aux_penalty == 0.0
    # Same-kind deadline-only shifts of the non-monotonic goals read the old
    # violation off the primary accumulator; the rest carry a second one.
    carries_second_accumulator = kind in ("max", "per_query")
    assert (node.aux_accumulator is not None) == carries_second_accumulator
    # Walk a few expansion layers breadth-first and check every generated node.
    frontier = [node]
    for _ in range(3):
        layer = []
        for parent in frontier:
            for child in problem.expand(parent):
                assert child.aux_penalty == old_goal.penalty(child.outcomes)
                layer.append(child)
        frontier = layer[:8]
        if not frontier:
            break


@given(kind=st.sampled_from(GOAL_KINDS), counts=counts_strategy)
@settings(max_examples=20, deadline=None)
def test_property_search_identical_incremental_vs_recomputed(
    kind, counts, all_goals
):
    """Costs, expansions, and generated counts agree between the two bounds."""
    old_goal, new_goal = _goals(kind, all_goals)
    old_result = astar_search(_problem(counts, old_goal))
    old_cost = old_result.cost

    incremental = astar_search(
        _problem(counts, new_goal, aux_goal=old_goal),
        extra_lower_bound=AdaptiveBound(old_goal, old_cost),
    )
    recomputed = astar_search(
        _problem(counts, new_goal),
        extra_lower_bound=RecomputedBound(old_goal, old_cost),
    )
    assert incremental.cost == recomputed.cost
    assert incremental.expansions == recomputed.expansions
    assert incremental.generated == recomputed.generated
    # The two optimal paths took identical decisions with identical f-values.
    incremental_path = incremental.path()
    recomputed_path = recomputed.path()
    assert [node.action for node in incremental_path] == [
        node.action for node in recomputed_path
    ]
    assert [node.priority for node in incremental_path] == [
        node.priority for node in recomputed_path
    ]


def _retrain_fingerprint(result, report) -> tuple:
    return (
        result.model.tree.to_text(),
        tuple(result.training_set.labels()),
        tuple(tuple(row) for row in result.training_set.to_matrix()[0].tolist()),
        tuple((s.optimal_cost, s.expansions) for s in result.samples),
        report.total_expansions,
        report.samples_retrained,
        report.samples_skipped,
    )


@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_retrain_bit_identical_accumulator_vs_old_goal_fallback(
    kind, all_goals, monkeypatch
):
    """AdaptiveBound's accumulator read and its own fallback retrain alike."""
    old_goal, new_goal = _goals(kind, all_goals)
    generator = ModelGenerator(
        TEMPLATES, vm_types=VM_TYPES, config=TrainingConfig.tiny(seed=13)
    )
    # Without kept paths every sample is searched under h', so the bound runs.
    base = generator.generate(old_goal)
    base = replace(base, samples=[replace(s, path=()) for s in base.samples])

    # One modeler per variant: a second retrain of the same goal through one
    # modeler keeps every path and searches nothing.
    incremental = _retrain_fingerprint(*AdaptiveModeler(generator, base).retrain(new_goal))
    reached: list = []
    monkeypatch.setattr(
        AdaptiveModeler,
        "_adaptive_bound",
        staticmethod(lambda goal, cost: HiddenAuxBound(AdaptiveBound(goal, cost), reached)),
    )
    fallback = _retrain_fingerprint(*AdaptiveModeler(generator, base).retrain(new_goal))
    assert reached
    assert incremental == fallback


@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_retrain_bit_identical_incremental_vs_recomputed_bound(
    kind, all_goals, monkeypatch
):
    """Swapping only the bound implementation changes nothing in the output."""
    old_goal, new_goal = _goals(kind, all_goals)
    generator = ModelGenerator(
        TEMPLATES, vm_types=VM_TYPES, config=TrainingConfig.tiny(seed=29)
    )
    base = generator.generate(old_goal)

    # One modeler per variant (see above).
    incremental = _retrain_fingerprint(*AdaptiveModeler(generator, base).retrain(new_goal))
    monkeypatch.setattr(
        AdaptiveModeler,
        "_adaptive_bound",
        staticmethod(lambda goal, cost: RecomputedBound(goal, cost)),
    )
    recomputed = _retrain_fingerprint(*AdaptiveModeler(generator, base).retrain(new_goal))
    assert incremental == recomputed


def test_percentile_aux_with_different_percent_carries_second_accumulator(
    all_goals,
):
    """Only deadline-only shifts may share the primary percentile state."""
    from repro.sla.percentile import PercentileGoal

    old_goal = PercentileGoal(percent=75.0, deadline=all_goals["percentile"].deadline)
    new_goal = all_goals["percentile"]
    problem = _problem({"T1": 2, "T2": 1}, new_goal, aux_goal=old_goal)
    node = problem.initial_node()
    assert node.aux_accumulator is not None
    for child in problem.expand(node):
        for grandchild in problem.expand(child):
            assert grandchild.aux_penalty == old_goal.penalty(grandchild.outcomes)


def test_relaxed_goal_skips_aux_accumulator(all_goals):
    """Relaxed retrains use no adaptive bound, so nodes carry no aux state."""
    old_goal = all_goals["max"]
    problem = _problem({"T1": 2, "T2": 1}, old_goal)
    node = problem.initial_node()
    assert node.aux_accumulator is None
    assert node.aux_penalty == -1.0
    for child in problem.expand(node):
        assert child.aux_accumulator is None
        assert child.aux_penalty == -1.0
