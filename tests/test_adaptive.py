"""Adaptive modeling, EMD, and strategy recommendation."""

from __future__ import annotations

import pytest

from repro.adaptive.emd import cost_profile_distance, earth_movers_distance
from repro.adaptive.recommendation import StrategyRecommender
from repro.adaptive.retraining import AdaptiveModeler
from repro.exceptions import SpecificationError, TrainingError
from repro.learning.trainer import TrainingResult


# ---------------------------------------------------------------------------
# Earth Mover's Distance
# ---------------------------------------------------------------------------


def test_emd_identical_distributions():
    assert earth_movers_distance([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0)
    assert earth_movers_distance([2, 4, 6], [1, 2, 3]) == pytest.approx(0.0)


def test_emd_disjoint_mass():
    # All mass at position 0 vs all mass at position 2: two steps of work.
    assert earth_movers_distance([1, 0, 0], [0, 0, 1]) == pytest.approx(2.0)


def test_emd_symmetry():
    a, b = [0.2, 0.5, 0.3], [0.6, 0.1, 0.3]
    assert earth_movers_distance(a, b) == pytest.approx(earth_movers_distance(b, a))


def test_emd_zero_vectors():
    assert earth_movers_distance([0, 0], [0, 0]) == 0.0
    assert earth_movers_distance([0, 0], [1, 0]) == 1.0


def test_emd_length_mismatch():
    with pytest.raises(ValueError):
        earth_movers_distance([1], [1, 2])


def test_cost_profile_distance_includes_scale():
    order = ["T1", "T2"]
    same_shape_double_cost = cost_profile_distance(
        {"T1": 1.0, "T2": 1.0}, {"T1": 2.0, "T2": 2.0}, order
    )
    identical = cost_profile_distance({"T1": 1.0, "T2": 1.0}, {"T1": 1.0, "T2": 1.0}, order)
    assert identical == pytest.approx(0.0)
    assert same_shape_double_cost > 0.0


# ---------------------------------------------------------------------------
# Adaptive retraining (Section 5)
# ---------------------------------------------------------------------------


def test_adaptive_retraining_produces_model(model_generator, trained_max, small_templates):
    modeler = AdaptiveModeler(model_generator, trained_max)
    stricter = trained_max.goal.tightened(0.3, small_templates)
    result, report = modeler.retrain(stricter)
    assert isinstance(result, TrainingResult)
    assert result.goal is stricter
    assert result.num_examples > 0
    assert report.retraining_time >= 0.0
    assert report.samples_retrained == len(result.samples)


def test_adaptive_costs_never_decrease_for_stricter_goals(
    model_generator, trained_max, small_templates
):
    """Lemma 5.1's corollary: tightening the goal cannot make samples cheaper."""
    modeler = AdaptiveModeler(model_generator, trained_max)
    stricter = trained_max.goal.tightened(0.5, small_templates)
    result, _ = modeler.retrain(stricter)
    old_costs = {
        tuple(sorted(sample.template_counts.items())): sample.optimal_cost
        for sample in trained_max.samples
    }
    for sample in result.samples:
        key = tuple(sorted(sample.template_counts.items()))
        if key in old_costs:
            assert sample.optimal_cost >= old_costs[key] - 1e-9


def test_adaptive_relaxed_goal_also_works(model_generator, trained_max, small_templates):
    modeler = AdaptiveModeler(model_generator, trained_max)
    relaxed = trained_max.goal.tightened(-0.3, small_templates)
    result, _ = modeler.retrain(relaxed)
    assert result.num_examples > 0


def test_adaptive_requires_stored_workloads(model_generator, trained_max):
    stripped = TrainingResult(
        model=trained_max.model,
        training_set=trained_max.training_set,
        samples=trained_max.samples,
        goal=trained_max.goal,
        config=trained_max.config,
        training_time=trained_max.training_time,
        search_time=trained_max.search_time,
        fit_time=trained_max.fit_time,
        workloads=[],
    )
    with pytest.raises(TrainingError):
        AdaptiveModeler(model_generator, stripped)


def test_fresh_and_retrained_results_split_search_from_fit_time(
    model_generator, trained_max, small_templates
):
    """A retrain fits a tree too: its cost must not be booked as search time."""
    modeler = AdaptiveModeler(model_generator, trained_max)
    retrained, report = modeler.retrain(trained_max.goal.tightened(0.3, small_templates))
    for result in (trained_max, retrained):
        assert result.fit_time > 0.0
        assert result.search_time > 0.0
        assert result.search_time + result.fit_time <= result.training_time
    assert retrained.training_time == report.retraining_time


# ---------------------------------------------------------------------------
# Strategy recommendation (Section 6.1)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recommender(model_generator, trained_max):
    return StrategyRecommender(
        AdaptiveModeler(model_generator, trained_max),
        trained_max,
        num_candidates=5,
        max_shift=0.4,
        calibration_queries=40,
    )


def test_candidate_fractions_centered_on_zero(recommender):
    fractions = recommender.candidate_fractions()
    assert len(fractions) == 5
    assert fractions[len(fractions) // 2] == pytest.approx(0.0)
    assert fractions == sorted(fractions)


def test_recommend_returns_k_strategies(recommender):
    strategies = recommender.recommend(k=3)
    assert len(strategies) == 3
    # Ordered from relaxed to strict.
    deadlines = [s.goal.deadline for s in strategies]
    assert deadlines == sorted(deadlines, reverse=True)
    for strategy in strategies:
        assert strategy.profile
        assert strategy.estimator.estimate({"T1": 10}) > 0.0
        assert "Strategy" in strategy.describe()


def test_stricter_strategies_cost_more(recommender):
    strategies = recommender.build_strategies()
    relaxed_total = sum(strategies[0].profile.values())
    strict_total = sum(strategies[-1].profile.values())
    # Stricter goals require more VMs, hence higher per-query cost
    # (allow a little slack for tie cases in tiny models).
    assert strict_total >= relaxed_total * 0.9


def test_recommender_validation(model_generator, trained_max):
    modeler = AdaptiveModeler(model_generator, trained_max)
    with pytest.raises(SpecificationError):
        StrategyRecommender(modeler, trained_max, num_candidates=1)
    with pytest.raises(SpecificationError):
        StrategyRecommender(modeler, trained_max, max_shift=1.5)
    recommender = StrategyRecommender(modeler, trained_max, num_candidates=3)
    with pytest.raises(SpecificationError):
        recommender.recommend(k=0)
