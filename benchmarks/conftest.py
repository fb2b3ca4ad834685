"""Shared fixtures and scale knobs for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures.  The paper's
own experiments train on N=3000 sample workloads of m=18 queries and schedule
batches of up to 30,000 queries; a pure-Python reproduction cannot do that in
a few minutes, so the benchmarks run a *scaled-down* version of each
experiment by default and document the scale they use.  Set the environment
variable ``REPRO_BENCH_SCALE`` to ``paper`` to run closer to paper scale
(expect hours), or leave it at the default ``small``.

The benchmark functions print the rows/series of the figure they reproduce, so
``pytest benchmarks/ --benchmark-only -s`` doubles as the experiment report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.config import TrainingConfig
from repro.evaluation.harness import ExperimentEnvironment, build_environment
from repro.sla.factory import GOAL_KINDS
from repro.workloads.templates import tpch_templates


@dataclass(frozen=True)
class BenchScale:
    """Workload and training sizes used by the benchmark suite."""

    name: str
    training: TrainingConfig
    #: Workload sizes for the optimality-versus-size sweep (Figure 10).
    optimality_sizes: tuple[int, ...]
    #: Default workload size for single-size optimality comparisons.
    optimality_size: int
    #: Workloads evaluated per data point.
    workloads_per_point: int
    #: Batch size of the large-workload heuristic comparison (Figure 13).
    heuristic_batch_size: int
    #: Batch sizes for the scheduling-scalability sweep (Figure 17).
    scalability_sizes: tuple[int, ...]
    #: Queries per run for the online-scheduling experiments (Figures 18-19).
    online_queries: int
    #: Node-expansion budget for reference optimal schedules.
    optimal_budget: int


SMALL_SCALE = BenchScale(
    name="small",
    training=TrainingConfig(
        num_samples=60,
        queries_per_sample=8,
        seed=0,
        max_expansions=120_000,
        min_samples_leaf=5,
        max_depth=30,
    ),
    optimality_sizes=(12, 18, 24),
    optimality_size=18,
    workloads_per_point=3,
    heuristic_batch_size=2000,
    scalability_sizes=(10_000, 20_000, 30_000),
    online_queries=12,
    optimal_budget=80_000,
)

PAPER_SCALE = BenchScale(
    name="paper",
    training=TrainingConfig.paper(),
    optimality_sizes=(20, 25, 30),
    optimality_size=30,
    workloads_per_point=5,
    heuristic_batch_size=5000,
    scalability_sizes=(10_000, 20_000, 30_000),
    online_queries=30,
    optimal_budget=2_000_000,
)


def current_scale() -> BenchScale:
    """The benchmark scale selected via ``REPRO_BENCH_SCALE``."""
    if os.environ.get("REPRO_BENCH_SCALE", "small").lower() == "paper":
        return PAPER_SCALE
    return SMALL_SCALE


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    """Scale parameters shared by every benchmark."""
    return current_scale()


@pytest.fixture(scope="session")
def templates(scale):
    """The paper's ten TPC-H templates."""
    return tpch_templates(10)


@pytest.fixture(scope="session")
def environments(scale, templates) -> dict[str, ExperimentEnvironment]:
    """One trained environment per performance goal (shared by most figures)."""
    return {
        kind: build_environment(
            kind, templates=templates, config=scale.training, seed=kind_index
        )
        for kind_index, kind in enumerate(GOAL_KINDS)
    }


def print_figure(title: str, table: str) -> None:
    """Uniform reporting helper used by every benchmark."""
    banner = "=" * len(title)
    print(f"\n{title}\n{banner}\n{table}\n")
