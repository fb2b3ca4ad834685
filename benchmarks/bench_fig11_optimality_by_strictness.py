"""Figure 11 — percent above optimal as the performance goal is tightened/relaxed.

The paper sweeps a *strictness factor* from -0.4 (40% looser than the default
goal) to +0.4 (40% stricter) and shows that WiSeDB's distance from optimal is
insensitive to how tight the goal is (it stays below ~10% everywhere).

Reproduction: for each strictness factor a model is derived from the base
environment's training corpus via the adaptive-modeling machinery (Section 5),
then compared against the exact optimum on fresh workloads.
"""

from __future__ import annotations

from repro.adaptive.retraining import AdaptiveModeler
from repro.evaluation.harness import (
    ExperimentEnvironment,
    compare_to_optimal,
    format_table,
    optimality_cell,
    uniform_workloads,
)
from repro.learning.trainer import ModelGenerator
from repro.sla.factory import GOAL_KINDS

STRICTNESS_FACTORS = (-0.4, -0.2, 0.0, 0.2, 0.4)
#: Goals evaluated on smaller workloads to keep the exact optimum tractable.
SIZE_CAP = {"percentile": 12, "per_query": 20}


def _run(environments, scale):
    rows = []
    for kind in GOAL_KINDS:
        base = environments[kind]
        generator = ModelGenerator(
            templates=base.templates,
            vm_types=base.vm_types,
            latency_model=base.latency_model,
            config=scale.training,
        )
        modeler = AdaptiveModeler(generator, base.training)
        row = {"goal": kind}
        size = min(scale.optimality_size, SIZE_CAP.get(kind, scale.optimality_size))
        for factor in STRICTNESS_FACTORS:
            goal = base.goal.with_strictness_factor(factor)
            if abs(factor) < 1e-12:
                training = base.training
            else:
                training, _ = modeler.retrain(goal)
            environment = ExperimentEnvironment(
                templates=base.templates,
                vm_types=base.vm_types,
                latency_model=base.latency_model,
                goal=goal,
                training=training,
            )
            workloads = uniform_workloads(
                base.templates, max(2, scale.workloads_per_point - 1), size, seed=111
            )
            comparisons, dropped = compare_to_optimal(
                environment, workloads, max_expansions=scale.optimal_budget
            )
            row[f"strictness {factor:+.1f} (%)"] = optimality_cell(comparisons, dropped)
        rows.append(row)
    return rows


def test_fig11_optimality_by_strictness(benchmark, environments, scale):
    rows = benchmark.pedantic(_run, args=(environments, scale), rounds=1, iterations=1)
    columns = ["goal"] + [f"strictness {f:+.1f} (%)" for f in STRICTNESS_FACTORS]
    print(
        "\nFigure 11 — % above optimal vs goal strictness factor\n"
        + format_table(rows, columns)
    )
    assert len(rows) == len(GOAL_KINDS)
