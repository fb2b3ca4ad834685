#!/usr/bin/env python3
"""Comparing the learned strategy against hand-written heuristics.

Section 3 of the paper motivates learning: first-fit decreasing (FFD) suits
bin-packing-style max-latency goals, first-fit increasing (FFI) suits
per-query and average-latency goals, and Pack9 targets percentile goals — but
no single heuristic wins everywhere.  This example schedules the same large
workload with all three heuristics and with WiSeDB models trained for two
different goals, and prices every schedule under both goals.

Run with ``python examples/heuristic_comparison.py``.
"""

from __future__ import annotations

from repro import TrainingConfig, WiSeDBService, tpch_templates, units
from repro.baselines import (
    FirstFitDecreasingScheduler,
    FirstFitIncreasingScheduler,
    Pack9Scheduler,
)
from repro.cloud import TemplateLatencyModel
from repro.core.cost_model import CostModel
from repro.sla import AverageLatencyGoal, MaxLatencyGoal
from repro.workloads import WorkloadGenerator


def main() -> None:
    templates = tpch_templates(10)
    latency_model = TemplateLatencyModel(templates)
    cost_model = CostModel(latency_model)
    workload = WorkloadGenerator(templates, seed=17).uniform(500)

    goals = {
        "max latency": MaxLatencyGoal.from_factor(templates, factor=2.5),
        "average latency": AverageLatencyGoal.from_factor(templates, factor=2.5),
    }

    for goal_name, goal in goals.items():
        # One service per goal, so each model trains from scratch rather than
        # adapting from the other goal's samples.
        service = WiSeDBService()
        tenant = service.register(
            "app", templates, goal, config=TrainingConfig.fast(seed=19)
        )
        vm_type = tenant.spec.vm_types.default
        schedulers = {
            "FFD": FirstFitDecreasingScheduler(vm_type, goal, latency_model),
            "FFI": FirstFitIncreasingScheduler(vm_type, goal, latency_model),
            "Pack9": Pack9Scheduler(vm_type, goal, latency_model),
        }
        print(f"\nGoal: {goal_name} — scheduling {len(workload)} queries")
        for name, scheduler in schedulers.items():
            cost = cost_model.total_cost(scheduler.schedule(workload), goal)
            print(f"  {name:<8}: {units.format_dollars(cost)}")
        wisedb_cost = service.schedule_batch("app", workload).total_cost
        print(f"  {'WiSeDB':<8}: {units.format_dollars(wisedb_cost)}")

    print(
        "\nNote how the best hand-written heuristic changes with the goal, while"
        " the learned strategy adapts to whichever goal it was trained for."
    )


if __name__ == "__main__":
    main()
