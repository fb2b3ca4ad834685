"""Shared experiment harness behind the ``benchmarks/`` directory.

Every figure in Section 7 boils down to a handful of reusable measurements:

* schedule a workload with a trained model and with the optimal (A*) scheduler
  and compare their Equation-1 costs;
* schedule a workload with a trained model and with the metric-specific
  heuristics (FFD / FFI / Pack9);
* measure training and adaptive-retraining wall-clock time;
* run the online scheduler under different optimization combinations.

The helpers here implement those measurements once so that each benchmark file
only has to pick parameters and print the rows the paper reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.baselines.first_fit import (
    FirstFitDecreasingScheduler,
    FirstFitIncreasingScheduler,
)
from repro.baselines.pack9 import Pack9Scheduler
from repro.cloud.latency import LatencyModel, TemplateLatencyModel
from repro.cloud.vm import VMTypeCatalog, single_vm_type_catalog
from repro.config import TrainingConfig
from repro.core.cost_model import CostModel
from repro.core.scheduler import Scheduler, SchedulingOutcome
from repro.evaluation.metrics import mean, percent_above
from repro.exceptions import SearchBudgetExceeded
from repro.learning.model import DecisionModel
from repro.learning.trainer import ModelGenerator, TrainingResult
from repro.runtime.batch import BatchScheduler
from repro.search.optimal import find_optimal_schedule
from repro.sla.base import PerformanceGoal
from repro.sla.factory import default_goal
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.templates import TemplateSet
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class CostComparison:
    """Cost of a model-produced schedule against a reference schedule."""

    label: str
    model_cost: float
    reference_cost: float

    @property
    def percent_above_reference(self) -> float:
        """How far (in %) the model's cost sits above the reference cost."""
        return percent_above(self.model_cost, self.reference_cost)


@dataclass
class ExperimentEnvironment:
    """A trained model plus everything needed to evaluate it."""

    templates: TemplateSet
    vm_types: VMTypeCatalog
    latency_model: LatencyModel
    goal: PerformanceGoal
    training: TrainingResult

    @property
    def model(self) -> DecisionModel:
        """The trained decision model."""
        return self.training.model

    def cost_of(self, schedule) -> float:
        """Equation-1 cost of *schedule* under the environment's goal."""
        return CostModel(self.latency_model).total_cost(schedule, self.goal)


def build_environment(
    goal_kind: str,
    templates: TemplateSet | None = None,
    num_templates: int = 10,
    vm_types: VMTypeCatalog | None = None,
    config: TrainingConfig | None = None,
    latency_model: LatencyModel | None = None,
    seed: int = 0,
    n_jobs: int | None = None,
    search_strategy: str | None = None,
) -> ExperimentEnvironment:
    """Train a model for one of the paper's default goals and wrap it up.

    ``n_jobs`` overrides the configuration's worker count for the training
    solves (bit-identical output, parallel wall clock); any pool is released
    before returning.  ``search_strategy`` overrides the configuration's
    search strategy (the bench ablations sweep it; the default keeps the
    exact, bit-identical engine).
    """
    from repro.workloads.templates import tpch_templates

    templates = templates or tpch_templates(num_templates)
    vm_types = vm_types or single_vm_type_catalog()
    latency_model = latency_model or TemplateLatencyModel(templates)
    config = config or TrainingConfig.fast(seed=seed)
    if n_jobs is not None:
        config = config.with_n_jobs(n_jobs)
    if search_strategy is not None:
        config = config.with_search_strategy(search_strategy)
    goal = default_goal(goal_kind, templates)
    with ModelGenerator(
        templates=templates,
        vm_types=vm_types,
        latency_model=latency_model,
        config=config,
    ) as generator:
        training = generator.generate(goal)
    return ExperimentEnvironment(
        templates=templates,
        vm_types=vm_types,
        latency_model=latency_model,
        goal=goal,
        training=training,
    )


# ---------------------------------------------------------------------------
# Model vs optimal (Figures 9-12, 18, 20-22)
# ---------------------------------------------------------------------------


def compare_to_optimal(
    environment: ExperimentEnvironment,
    workloads: Sequence[Workload],
    max_expansions: int | None = 400_000,
) -> list[CostComparison]:
    """WiSeDB vs the optimal scheduler on each workload.

    Workloads whose optimal search exceeds *max_expansions* are skipped (the
    comparison is only meaningful when the exact optimum is known).
    """
    comparisons: list[CostComparison] = []
    scheduler = BatchScheduler(environment.model)
    for index, workload in enumerate(workloads):
        try:
            optimal = find_optimal_schedule(
                workload,
                environment.vm_types,
                environment.goal,
                environment.latency_model,
                max_expansions=max_expansions,
            )
        except SearchBudgetExceeded:
            continue
        schedule = scheduler.schedule(workload)
        comparisons.append(
            CostComparison(
                label=f"workload-{index}",
                model_cost=environment.cost_of(schedule),
                reference_cost=optimal.total_cost,
            )
        )
    return comparisons


def average_percent_above_optimal(comparisons: Sequence[CostComparison]) -> float:
    """Mean percent-above-optimal across comparisons (NaN when empty)."""
    return mean([c.percent_above_reference for c in comparisons])


def uniform_workloads(
    templates: TemplateSet, count: int, size: int, seed: int = 101
) -> list[Workload]:
    """*count* uniform workloads of *size* queries (the default evaluation input)."""
    generator = WorkloadGenerator(templates, seed=seed)
    return [generator.uniform(size) for _ in range(count)]


def skewed_workloads(
    templates: TemplateSet, count: int, size: int, skew: float, seed: int = 211
) -> list[Workload]:
    """*count* workloads of *size* queries skewed towards a random dominant template."""
    generator = WorkloadGenerator(templates, seed=seed)
    return [generator.skewed(size, skew) for _ in range(count)]


# ---------------------------------------------------------------------------
# Model vs metric-specific heuristics (Figure 13) — via the unified protocol
# ---------------------------------------------------------------------------


def heuristic_schedulers(environment: ExperimentEnvironment) -> dict[str, Scheduler]:
    """The Figure-13 scheduler line-up (learned strategy plus all heuristics).

    Every entry implements the unified :class:`~repro.core.scheduler.Scheduler`
    protocol, so callers run and price them identically.
    """
    vm_type = environment.vm_types.default
    goal = environment.goal
    latency_model = environment.latency_model
    return {
        "FFD": FirstFitDecreasingScheduler(vm_type, goal, latency_model),
        "FFI": FirstFitIncreasingScheduler(vm_type, goal, latency_model),
        "Pack9": Pack9Scheduler(vm_type, goal, latency_model),
        "WiSeDB": BatchScheduler(environment.model),
    }


def run_schedulers(
    schedulers: Mapping[str, Scheduler], workload: Workload
) -> dict[str, SchedulingOutcome]:
    """Run every scheduler on *workload* through the unified protocol."""
    return {name: scheduler.run(workload) for name, scheduler in schedulers.items()}


def compare_to_heuristics(
    environment: ExperimentEnvironment, workload: Workload
) -> dict[str, float]:
    """Cost of WiSeDB, FFD, FFI, and Pack9 schedules for one workload."""
    outcomes = run_schedulers(heuristic_schedulers(environment), workload)
    return {name: outcome.total_cost for name, outcome in outcomes.items()}


# ---------------------------------------------------------------------------
# Training-time measurements (Figures 14-16)
# ---------------------------------------------------------------------------


def measure_training_time(
    goal_kind: str,
    num_templates: int,
    vm_types: VMTypeCatalog | None = None,
    config: TrainingConfig | None = None,
    seed: int = 0,
    n_jobs: int | None = None,
) -> tuple[float, TrainingResult]:
    """Wall-clock training time for a given specification size.

    ``n_jobs`` fans the per-sample solves across worker processes (Figures
    14-15 measure exactly this wall clock, pool start-up included; the
    schedule output is unchanged).
    """
    from repro.workloads.templates import tpch_templates

    templates = tpch_templates(num_templates)
    vm_types = vm_types or single_vm_type_catalog()
    config = config or TrainingConfig.fast(seed=seed)
    if n_jobs is not None:
        config = config.with_n_jobs(n_jobs)
    goal = default_goal(goal_kind, templates)
    with ModelGenerator(templates=templates, vm_types=vm_types, config=config) as generator:
        started = time.perf_counter()
        result = generator.generate(goal)
        elapsed = time.perf_counter() - started
    return elapsed, result


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Plain-text table renderer used by the benchmark scripts' reports."""
    widths = {
        column: max(len(column), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
