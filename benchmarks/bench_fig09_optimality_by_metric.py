"""Figure 9 — schedule cost of WiSeDB vs. the optimal scheduler, per metric.

The paper schedules 30-query workloads (uniform over ten TPC-H templates)
with models trained for each of the four performance goals and reports the
final cost next to the cost of an exhaustively-found optimal schedule; WiSeDB
lands within 8% of optimal for every metric.

Scaled-down reproduction: training uses the benchmark-scale configuration and
the reference optimal schedules are produced by the same A* search used for
training (exact, but with an expansion budget).  Workload sizes are reduced
for the goals whose optimal search is the most expensive in pure Python
(percentile in particular); the shape to check is that WiSeDB stays within
the paper's 8 % of optimal for *all four* metrics.

Percent above optimal per goal (per_query / average / max / percentile) on
three training seeds, the workloads drawn with seeds offset by 100 per
training seed: seed 0 (the shipped one) 0.0 / 0.41 / 0.45 / 1.77, seed 1
0.75 / 0.42 / 2.61 / 0.56, seed 2 1.21 / 1.84 / 1.23 / 1.27.
"""

from __future__ import annotations

from repro.evaluation.harness import (
    average_percent_above_optimal,
    compare_to_optimal,
    figure_number,
    format_table,
    uniform_workloads,
)
from repro.evaluation.metrics import mean
from repro.sla.factory import GOAL_KINDS

#: Workload sizes per goal; the non-monotonic goals use smaller reference
#: workloads so the exact optimum stays computable in pure Python.
SIZE_CAP = {"percentile": 12, "per_query": 24}


def _run(environments, scale):
    rows = []
    for kind in GOAL_KINDS:
        environment = environments[kind]
        size = min(scale.optimality_size, SIZE_CAP.get(kind, scale.optimality_size))
        workloads = uniform_workloads(
            environment.templates, scale.workloads_per_point, size, seed=90 + len(kind)
        )
        comparisons, dropped = compare_to_optimal(
            environment, workloads, max_expansions=scale.optimal_budget
        )
        rows.append(
            {
                "goal": kind,
                "workload size": size,
                "workloads": len(comparisons),
                "dropped": dropped,
                "WiSeDB (cents)": figure_number(mean([c.model_cost for c in comparisons])),
                "Optimal (cents)": figure_number(mean([c.reference_cost for c in comparisons])),
                "% above optimal": figure_number(average_percent_above_optimal(comparisons)),
            }
        )
    return rows


def test_fig09_optimality_by_metric(benchmark, environments, scale):
    rows = benchmark.pedantic(_run, args=(environments, scale), rounds=1, iterations=1)
    print(
        "\nFigure 9 — cost of WiSeDB schedules vs optimal, per performance goal\n"
        + format_table(
            rows,
            [
                "goal",
                "workload size",
                "workloads",
                "dropped",
                "WiSeDB (cents)",
                "Optimal (cents)",
                "% above optimal",
            ],
        )
    )
    # Paper shape: WiSeDB within ~8% of optimal for every metric.
    for row in rows:
        if row["workloads"]:
            assert row["% above optimal"] <= 8.0, row
