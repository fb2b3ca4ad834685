"""Figure 15 — offline training time vs. number of VM types.

The paper fixes the workload specification at ten templates and varies the
number of available VM types (1, 5, 10).  More VM types add start-up edges to
every vertex of the scheduling graph, so training time grows, topping out
around two minutes at paper scale.

Reproduction: synthetic VM types interpolate price/speed trade-offs around the
``t2.medium`` reference; sample counts are scaled down.  The shape to check is
the growth of training time with the catalogue size.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cloud.vm import synthetic_vm_type_catalog
from repro.evaluation.harness import format_table, measure_training_time
from repro.sla.factory import GOAL_KINDS

VM_TYPE_COUNTS = (1, 5, 10)


def _run(scale):
    config = replace(
        scale.training.with_samples(max(12, scale.training.num_samples // 5)), seed=15
    )
    rows = []
    for kind in GOAL_KINDS:
        row = {"goal": kind}
        for count in VM_TYPE_COUNTS:
            elapsed, _ = measure_training_time(
                kind,
                num_templates=10,
                vm_types=synthetic_vm_type_catalog(count),
                config=config,
            )
            row[f"{count} VM types (s)"] = round(elapsed, 2)
        rows.append(row)
    return rows


def test_fig15_training_time_vs_vm_types(benchmark, scale):
    rows = benchmark.pedantic(_run, args=(scale,), rounds=1, iterations=1)
    columns = ["goal"] + [f"{count} VM types (s)" for count in VM_TYPE_COUNTS]
    print(
        "\nFigure 15 — training time vs number of VM types (10 templates)\n"
        + format_table(rows, columns)
    )
    assert len(rows) == len(GOAL_KINDS)
