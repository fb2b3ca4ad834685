"""Figure 12 — schedule cost with one vs. two VM types, against the optimal.

The paper trains models with access to a single ``t2.medium``-class VM type
and with an additional cheaper ``t2.small`` type (on which memory-light
queries run at full speed), and shows that WiSeDB exploits the extra type:
costs never get worse and usually improve, staying within ~6% of the optimal
schedule that also uses both types.

Reproduction: the two-type catalogue marks the longest TPC-H templates as slow
on the small instance; everything else runs at full speed at half the price.
"""

from __future__ import annotations

from repro.cloud.vm import two_vm_type_catalog
from repro.evaluation.harness import (
    build_environment,
    compare_to_optimal,
    figure_number,
    format_table,
    optimality_cell,
    uniform_workloads,
)
from repro.evaluation.metrics import mean
from repro.sla.factory import GOAL_KINDS

#: Templates that need the larger instance to run at full speed.
MEMORY_HEAVY_TEMPLATES = ("T5", "T8", "T9")
SIZE_CAP = {"percentile": 12, "per_query": 18}


def _run(environments, scale, templates):
    two_types = two_vm_type_catalog(slow_templates=MEMORY_HEAVY_TEMPLATES)
    rows = []
    for kind in GOAL_KINDS:
        single_env = environments[kind]
        double_env = build_environment(
            kind,
            templates=templates,
            vm_types=two_types,
            config=scale.training,
            seed=7,
        )
        size = min(scale.optimality_size, SIZE_CAP.get(kind, scale.optimality_size))
        workloads = uniform_workloads(
            templates, max(2, scale.workloads_per_point - 1), size, seed=120
        )
        single_cmp, single_dropped = compare_to_optimal(
            single_env, workloads, max_expansions=scale.optimal_budget
        )
        double_cmp, double_dropped = compare_to_optimal(
            double_env, workloads, max_expansions=scale.optimal_budget
        )
        rows.append(
            {
                "goal": kind,
                "WiSeDB 1 type": figure_number(mean([c.model_cost for c in single_cmp])),
                "Optimal 1 type": figure_number(mean([c.reference_cost for c in single_cmp])),
                "dropped 1 type": single_dropped,
                "WiSeDB 2 types": figure_number(mean([c.model_cost for c in double_cmp])),
                "Optimal 2 types": figure_number(mean([c.reference_cost for c in double_cmp])),
                "% above opt (2 types)": optimality_cell(double_cmp, double_dropped),
            }
        )
    return rows


def test_fig12_multiple_vm_types(benchmark, environments, scale, templates):
    rows = benchmark.pedantic(
        _run, args=(environments, scale, templates), rounds=1, iterations=1
    )
    print(
        "\nFigure 12 — cost with one vs two VM types (cents, lower is better)\n"
        + format_table(
            rows,
            [
                "goal",
                "WiSeDB 1 type",
                "Optimal 1 type",
                "dropped 1 type",
                "WiSeDB 2 types",
                "Optimal 2 types",
                "% above opt (2 types)",
            ],
        )
    )
    assert len(rows) == len(GOAL_KINDS)
