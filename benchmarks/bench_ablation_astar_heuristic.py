"""Ablation — how much the A* guidance matters (Sections 4.3 and 5).

Three searches solve the same sample workloads optimally:

* the full priority function (Equation-3 execution bound plus the
  provisioning/penalty bounds added in this reproduction);
* the null heuristic (Dijkstra-style uniform-cost search), which is what the
  paper prescribes for non-monotonic goals;
* adaptive A* (Section 5): re-searching a *tightened* goal with the ``h'``
  bound derived from the original solution, versus re-searching it cold.

Reported numbers are node expansions (the quantity that dominates training
time), so this ablation explains where the training-time behaviour of
Figures 14-16 comes from.

A second ablation sweeps the pluggable search engine: every registered
future-cost bound (``memoized``, ``tight``) and the optimality-relaxing
strategies (weighted A*, beam) solve the same non-monotonic workloads, and
the ``bound_ablation`` series — generated nodes, wall time, and
cost-vs-optimal ratio per configuration — is merged into
``BENCH_training_throughput.json`` next to the throughput history.
"""

from __future__ import annotations

import time

from repro.adaptive.retraining import AdaptiveModeler
from repro.evaluation.harness import format_table, uniform_workloads
from repro.learning.trainer import ModelGenerator
from repro.search.astar import astar_search
from repro.search.bounds import registered_future_cost_bounds
from repro.search.problem import SchedulingProblem
from repro.search.strategy import strategy_from_spec

from conftest import merge_bench_json, print_figure

from repro.exceptions import SearchBudgetExceeded

#: Expansion cap per workload for the null heuristic, which exhausts any
#: practical budget on these 10-query workloads: a capped search counts as
#: the cap, so its row is a lower bound on the uniform-cost search's work.
_NULL_BUDGET = 10_000

#: Relaxed strategies swept by the engine ablation (the exact default rides
#: along as the reference row).
_STRATEGY_SPECS = ("astar", "weighted_astar:1.5", "beam:32")


def _expansions(workloads, environment, goal, budget=200_000):
    total = 0
    for workload in workloads:
        problem = SchedulingProblem.for_workload(
            workload, environment.vm_types, goal, environment.latency_model
        )
        result = astar_search(problem, max_expansions=budget)
        total += result.expansions
    return total


def _run(environments, scale):
    environment = environments["max"]
    workloads = uniform_workloads(environment.templates, 4, 10, seed=240)
    rows = []

    # Full priority vs null heuristic: emulate the null heuristic by flattening
    # every f-value to the node's own partial cost (``_price`` is the one
    # place the search computes them).
    full = _expansions(workloads, environment, environment.goal)
    rows.append({"search": "A* with full bounds", "total expansions": full})

    class _NullProblem(SchedulingProblem):
        def _price(self, parent, child, completion):  # noqa: D102 - ablation override
            if not child.state.remaining:
                return child.partial_cost
            return child.partial_cost if self.goal.is_monotonic else child.infra_cost

    null_total = 0
    for workload in workloads:
        problem = _NullProblem.for_workload(
            workload, environment.vm_types, environment.goal, environment.latency_model
        )
        try:
            null_total += astar_search(problem, max_expansions=_NULL_BUDGET).expansions
        except SearchBudgetExceeded:
            null_total += _NULL_BUDGET
    rows.append({"search": "A* with null heuristic", "total expansions": null_total})

    # Adaptive A*: tighten the goal by 30% and re-search with / without h'.
    generator = ModelGenerator(
        templates=environment.templates,
        vm_types=environment.vm_types,
        latency_model=environment.latency_model,
        config=scale.training,
    )
    modeler = AdaptiveModeler(generator, environment.training)
    tightened = environment.goal.tightened(0.3, environment.templates)
    _, adaptive_report = modeler.retrain(tightened)
    rows.append(
        {
            "search": "adaptive A* (30% tighter goal, h' reuse)",
            "total expansions": adaptive_report.total_expansions,
        }
    )
    cold = 0
    for workload in environment.training.workloads:
        problem = SchedulingProblem.for_workload(
            workload, environment.vm_types, tightened, environment.latency_model
        )
        cold += astar_search(problem, max_expansions=400_000).expansions
    rows.append({"search": "cold A* (30% tighter goal)", "total expansions": cold})
    return rows


def _run_engine_sweep(environments):
    """Sweep registered bounds and strategies over the non-monotonic goals."""
    rows = []
    series: dict[str, dict] = {}
    for kind in ("percentile", "average"):
        environment = environments[kind]
        workloads = uniform_workloads(environment.templates, 4, 10, seed=311)

        def solve_all(spec: str, bound: str):
            generated = expansions = 0
            achieved = lower = 0.0
            strategy = strategy_from_spec(spec)
            started = time.perf_counter()
            for workload in workloads:
                problem = SchedulingProblem.for_workload(
                    workload,
                    environment.vm_types,
                    environment.goal,
                    environment.latency_model,
                    future_bound=bound,
                )
                result = strategy.search(problem, max_expansions=400_000)
                generated += result.generated
                expansions += result.expansions
                achieved += result.cost
                lower += (
                    result.cost
                    if result.cost_lower_bound is None
                    else result.cost_lower_bound
                )
            elapsed = time.perf_counter() - started
            return generated, expansions, achieved, lower, elapsed

        optimal_cost = None
        for bound in registered_future_cost_bounds():
            generated, expansions, achieved, _, elapsed = solve_all("astar", bound)
            if optimal_cost is None:
                optimal_cost = achieved
            entry = {
                "goal": kind,
                "engine": f"astar+{bound}",
                "generated": generated,
                "expansions": expansions,
                "wall_s": round(elapsed, 4),
                "cost_ratio": round(achieved / optimal_cost, 6),
            }
            rows.append(entry)
            series[f"{kind}:astar+{bound}"] = entry
        for spec in _STRATEGY_SPECS[1:]:
            generated, expansions, achieved, lower, elapsed = solve_all(
                spec, "memoized"
            )
            entry = {
                "goal": kind,
                "engine": spec,
                "generated": generated,
                "expansions": expansions,
                "wall_s": round(elapsed, 4),
                # True achieved-over-optimal (the exact run above supplies the
                # optimum); the sound self-reported bound rides along.
                "cost_ratio": round(achieved / optimal_cost, 6),
                "reported_ratio_bound": round(achieved / lower, 6),
            }
            rows.append(entry)
            series[f"{kind}:{spec}"] = entry
    return rows, series


def test_bound_and_strategy_ablation(benchmark, environments):
    """Sweep the pluggable engine and persist the ``bound_ablation`` series."""
    rows, series = benchmark.pedantic(
        _run_engine_sweep, args=(environments,), rounds=1, iterations=1
    )
    print_figure(
        "Ablation — pluggable search engine (4 workloads x 10 queries per goal)",
        format_table(
            rows,
            [
                "goal",
                "engine",
                "generated",
                "expansions",
                "wall_s",
                "cost_ratio",
            ],
        ),
    )
    path = merge_bench_json("training_throughput", {"bound_ablation": series})
    print(f"bound_ablation series merged into {path}")
    by_engine = {(row["goal"], row["engine"]): row for row in rows}
    for kind in ("percentile", "average"):
        exact = by_engine[(kind, "astar+memoized")]
        tight = by_engine[(kind, "astar+tight")]
        # Both A* runs are exact; the tighter bound must prune, not re-cost.
        assert tight["cost_ratio"] == 1.0
        assert tight["generated"] <= exact["generated"]
        for spec in _STRATEGY_SPECS[1:]:
            relaxed = by_engine[(kind, spec)]
            # Relaxed strategies must report a sound ratio bound: at least as
            # large as the true achieved-over-optimal ratio, never below 1.
            assert relaxed["reported_ratio_bound"] >= relaxed["cost_ratio"] - 1e-9
            assert relaxed["cost_ratio"] >= 1.0 - 1e-9


def test_ablation_astar_guidance(benchmark, environments, scale):
    rows = benchmark.pedantic(_run, args=(environments, scale), rounds=1, iterations=1)
    print(
        "\nAblation — A* node expansions under different guidance\n"
        + format_table(rows, ["search", "total expansions"])
    )
    by_name = {row["search"]: row["total expansions"] for row in rows}
    assert by_name["A* with full bounds"] <= by_name["A* with null heuristic"]
    assert (
        by_name["adaptive A* (30% tighter goal, h' reuse)"]
        <= by_name["cold A* (30% tighter goal)"] * 1.2 + 10
    )
