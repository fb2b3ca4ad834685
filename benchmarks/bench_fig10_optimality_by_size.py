"""Figure 10 — percent above optimal for different workload sizes.

The paper evaluates 20-, 25-, and 30-query workloads and shows that WiSeDB's
distance from the optimal schedule does not grow with workload size (it stays
below ~8% for every goal, below 2% for the percentile goal).

Scaled-down reproduction: sizes come from the benchmark scale (12/18/24 by
default) and the percentile / per-query goals cap the largest size so the
exact optimum remains computable.  The shape to check is the *flatness* of the
curve: the gap to optimal should not blow up as workloads grow.
"""

from __future__ import annotations

from repro.evaluation.harness import (
    compare_to_optimal,
    format_table,
    optimality_cell,
    uniform_workloads,
)
from repro.sla.factory import GOAL_KINDS

SIZE_CAP = {"percentile": 12, "per_query": 24}


def _run(environments, scale):
    rows = []
    for kind in GOAL_KINDS:
        environment = environments[kind]
        row = {"goal": kind}
        for size in scale.optimality_sizes:
            capped = min(size, SIZE_CAP.get(kind, size))
            workloads = uniform_workloads(
                environment.templates,
                scale.workloads_per_point,
                capped,
                seed=100 + size,
            )
            comparisons, dropped = compare_to_optimal(
                environment, workloads, max_expansions=scale.optimal_budget
            )
            row[f"{size} queries (%)"] = optimality_cell(comparisons, dropped)
        rows.append(row)
    return rows


def test_fig10_optimality_by_workload_size(benchmark, environments, scale):
    rows = benchmark.pedantic(_run, args=(environments, scale), rounds=1, iterations=1)
    columns = ["goal"] + [f"{size} queries (%)" for size in scale.optimality_sizes]
    print(
        "\nFigure 10 — % above optimal vs workload size (per goal)\n"
        + format_table(rows, columns)
    )
    assert len(rows) == len(GOAL_KINDS)
