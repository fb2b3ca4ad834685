"""Shared fixtures for the WiSeDB reproduction test suite.

Training even a tiny model involves hundreds of A* searches, so trained models
are produced once per session by the fixtures below and shared across tests.
Fixtures deliberately use small template sets and the ``tiny`` training
configuration — the goal of the unit tests is behavioural correctness, not
schedule quality (which the benchmarks measure).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help=(
            "Regenerate the golden-scenario files under tests/golden/ instead "
            "of comparing against them (deliberate act: review the diff)."
        ),
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running tests excluded from the fast CI split"
    )


@pytest.fixture(scope="session")
def regen_golden(request: pytest.FixtureRequest) -> bool:
    """True when the run should rewrite the golden-scenario files."""
    return bool(request.config.getoption("--regen-golden"))

from repro import units
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import single_vm_type_catalog, two_vm_type_catalog
from repro.config import TrainingConfig
from repro.learning.trainer import ModelGenerator
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.sla.percentile import PercentileGoal
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.templates import QueryTemplate, TemplateSet, tpch_templates


# ---------------------------------------------------------------------------
# Templates and workloads
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def small_templates() -> TemplateSet:
    """Three templates with well-separated latencies (1, 2, and 4 minutes)."""
    return TemplateSet(
        [
            QueryTemplate(name="T1", base_latency=units.minutes(1)),
            QueryTemplate(name="T2", base_latency=units.minutes(2)),
            QueryTemplate(name="T3", base_latency=units.minutes(4)),
        ]
    )


@pytest.fixture(scope="session")
def tpch10() -> TemplateSet:
    """The paper's ten TPC-H templates."""
    return tpch_templates(10)


@pytest.fixture(scope="session")
def vm_catalog():
    """Single-type VM catalogue (the default experimental setup)."""
    return single_vm_type_catalog()


@pytest.fixture(scope="session")
def two_type_catalog(small_templates):
    """Two-type catalogue where the long template is slow on the small VM."""
    return two_vm_type_catalog(slow_templates=["T3"])


@pytest.fixture(scope="session")
def latency_model(small_templates):
    """Deterministic latency model over the small template set."""
    return TemplateLatencyModel(small_templates)


@pytest.fixture(scope="session")
def workload_generator(small_templates):
    """Seeded workload generator over the small template set."""
    return WorkloadGenerator(small_templates, seed=42)


@pytest.fixture(scope="session")
def small_workload(small_templates):
    """A 9-query uniform workload over the small template set.

    Drawn from its own seeded generator, so its value does not depend on
    which test drew from the shared ``workload_generator`` first.
    """
    return WorkloadGenerator(small_templates, seed=42).uniform(9)


# ---------------------------------------------------------------------------
# Goals
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def max_goal(small_templates) -> MaxLatencyGoal:
    """Max-latency goal at 2.5x the longest template (10 minutes)."""
    return MaxLatencyGoal.from_factor(small_templates, factor=2.5)


@pytest.fixture(scope="session")
def per_query_goal(small_templates) -> PerQueryDeadlineGoal:
    """Per-query deadlines at 3x each template's latency."""
    return PerQueryDeadlineGoal.from_factor(small_templates, factor=3.0)


@pytest.fixture(scope="session")
def average_goal(small_templates) -> AverageLatencyGoal:
    """Average-latency goal at 2.5x the mean template latency."""
    return AverageLatencyGoal.from_factor(small_templates, factor=2.5)


@pytest.fixture(scope="session")
def percentile_goal(small_templates) -> PercentileGoal:
    """90th-percentile goal at 2.5x the mean template latency."""
    return PercentileGoal.from_factor(small_templates, percent=90.0, factor=2.5)


@pytest.fixture(scope="session")
def all_goals(max_goal, per_query_goal, average_goal, percentile_goal):
    """All four default goals keyed by kind."""
    return {
        "max": max_goal,
        "per_query": per_query_goal,
        "average": average_goal,
        "percentile": percentile_goal,
    }


# ---------------------------------------------------------------------------
# Trained models (expensive; session-scoped)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def tiny_config() -> TrainingConfig:
    """Minimal training configuration used throughout the test suite."""
    return TrainingConfig.tiny(seed=7)


@pytest.fixture(scope="session")
def model_generator(small_templates, vm_catalog, tiny_config) -> ModelGenerator:
    """Model generator over the small template set with the tiny configuration."""
    return ModelGenerator(
        templates=small_templates, vm_types=vm_catalog, config=tiny_config
    )


@pytest.fixture(scope="session")
def trained_max(model_generator, max_goal):
    """A trained model (and full training result) for the max-latency goal."""
    return model_generator.generate(max_goal)


@pytest.fixture(scope="session")
def trained_per_query(model_generator, per_query_goal):
    """A trained model (and full training result) for the per-query goal."""
    return model_generator.generate(per_query_goal)


@pytest.fixture(scope="session")
def trained_average(model_generator, average_goal):
    """A trained model (and full training result) for the average-latency goal."""
    return model_generator.generate(average_goal)


@pytest.fixture(scope="session")
def trained_percentile(model_generator, percentile_goal):
    """A trained model (and full training result) for the percentile goal."""
    return model_generator.generate(percentile_goal)


@pytest.fixture(scope="session")
def all_trained(trained_max, trained_per_query, trained_average, trained_percentile):
    """Training results for all four goal kinds, keyed by kind."""
    return {
        "max": trained_max,
        "per_query": trained_per_query,
        "average": trained_average,
        "percentile": trained_percentile,
    }
