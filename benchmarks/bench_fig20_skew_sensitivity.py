"""Figure 20 — sensitivity to skewed runtime workloads.

Models are trained on uniformly sampled workloads; the paper then schedules
runtime workloads increasingly skewed towards a single template (quantified by
the chi-squared confidence on the x-axis) and shows that the cost stays within
a few percent of optimal even when the workload is almost a single template.

Reproduction: the same skew sweep on scaled-down workloads.  The shape to
check is that the percent-above-optimal curve stays flat (no blow-up at high
skew).
"""

from __future__ import annotations

from repro.evaluation.harness import (
    compare_to_optimal,
    format_table,
    optimality_cell,
    skewed_workloads,
)
from repro.evaluation.metrics import mean
from repro.sla.factory import GOAL_KINDS
from repro.workloads.skew import chi_squared_confidence

SKEW_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
SIZE_CAP = {"percentile": 12, "per_query": 18}


def _run(environments, scale):
    rows = []
    for kind in GOAL_KINDS:
        environment = environments[kind]
        size = min(scale.optimality_size, SIZE_CAP.get(kind, scale.optimality_size))
        row = {"goal": kind}
        for skew in SKEW_LEVELS:
            workloads = skewed_workloads(
                environment.templates,
                max(2, scale.workloads_per_point - 1),
                size,
                skew,
                seed=200 + int(skew * 100),
            )
            confidence = mean(
                [
                    chi_squared_confidence(
                        workload.template_counts(), environment.templates.names
                    )
                    for workload in workloads
                ]
            )
            comparisons, dropped = compare_to_optimal(
                environment, workloads, max_expansions=scale.optimal_budget
            )
            row[f"chi2={confidence:.2f} (%)"] = optimality_cell(comparisons, dropped)
        rows.append(row)
    return rows


def test_fig20_skew_sensitivity(benchmark, environments, scale):
    rows = benchmark.pedantic(_run, args=(environments, scale), rounds=1, iterations=1)
    columns = ["goal"] + [c for c in rows[0] if c != "goal"]
    print(
        "\nFigure 20 — % above optimal vs workload skew (chi-squared confidence)\n"
        + format_table(rows, columns)
    )
    assert len(rows) == len(GOAL_KINDS)
