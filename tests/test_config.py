"""Training configuration and paper constants."""

from __future__ import annotations

import pytest

from repro import config, units


def test_default_running_cost_matches_paper():
    # $0.052 per hour expressed in cents per second.
    assert config.DEFAULT_RUNNING_COST == pytest.approx(5.2 / 3600.0)


def test_default_startup_cost_matches_paper():
    assert config.DEFAULT_STARTUP_COST == pytest.approx(0.08)


def test_default_penalty_rate_is_one_cent_per_second():
    assert config.DEFAULT_PENALTY_RATE == 1.0


def test_default_deadlines_match_section_7_1():
    assert config.DEFAULT_MAX_LATENCY_DEADLINE == units.minutes(15)
    assert config.DEFAULT_AVERAGE_DEADLINE == units.minutes(10)
    assert config.DEFAULT_PERCENTILE == 90.0
    assert config.DEFAULT_PERCENTILE_DEADLINE == units.minutes(10)


def test_paper_training_config_defaults():
    paper = config.TrainingConfig.paper()
    assert paper.num_samples == 3000
    assert paper.queries_per_sample == 18


def test_fast_config_is_smaller_than_paper():
    fast = config.TrainingConfig.fast()
    paper = config.TrainingConfig.paper()
    assert fast.num_samples < paper.num_samples
    assert fast.queries_per_sample < paper.queries_per_sample


def test_config_with_samples_returns_copy():
    base = config.TrainingConfig.fast()
    modified = base.with_samples(10)
    assert modified.num_samples == 10
    assert base.num_samples != 10
    assert modified.queries_per_sample == base.queries_per_sample


def test_config_is_frozen():
    base = config.TrainingConfig.fast()
    with pytest.raises(AttributeError):
        base.num_samples = 5  # type: ignore[misc]
