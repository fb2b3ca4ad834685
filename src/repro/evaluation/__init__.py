"""Experiment harness and metrics used by the benchmark suite (Section 7)."""

from repro.evaluation.harness import (
    CostComparison,
    ExperimentEnvironment,
    average_percent_above_optimal,
    build_environment,
    compare_to_heuristics,
    compare_to_optimal,
    figure_number,
    format_table,
    heuristic_schedulers,
    measure_training_time,
    optimality_cell,
    run_schedulers,
    skewed_workloads,
    uniform_workloads,
)
from repro.evaluation.metrics import (
    mean,
    percent_above,
    spread,
)

__all__ = [
    "CostComparison",
    "ExperimentEnvironment",
    "average_percent_above_optimal",
    "build_environment",
    "compare_to_heuristics",
    "compare_to_optimal",
    "figure_number",
    "format_table",
    "heuristic_schedulers",
    "mean",
    "measure_training_time",
    "optimality_cell",
    "percent_above",
    "run_schedulers",
    "skewed_workloads",
    "spread",
    "uniform_workloads",
]
