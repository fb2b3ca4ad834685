#!/usr/bin/env python3
"""Online scheduling: placing queries as they arrive (Section 6.3).

The online scheduler treats every arrival as a small batch-scheduling task
over the queries that have not started executing yet.  Queries that have been
waiting are re-described as "aged" templates (their expected latency includes
the wait), and the model is adapted accordingly — cheaply, thanks to the model
reuse and linear-shifting optimizations.

Run with ``python examples/online_scheduling.py``.
"""

from __future__ import annotations

from repro import TrainingConfig, WiSeDBService, tpch_templates, units
from repro.runtime.online import OnlineOptimizations
from repro.sla import MaxLatencyGoal
from repro.workloads import WorkloadGenerator


def main() -> None:
    templates = tpch_templates(5)
    goal = MaxLatencyGoal.from_factor(templates, factor=2.5)
    service = WiSeDBService()
    service.register("app", templates, goal, config=TrainingConfig.fast(seed=5))
    service.train("app")

    # A stream of 15 queries arriving 45 seconds apart.
    generator = WorkloadGenerator(templates, seed=11)
    stream = generator.with_fixed_arrivals(generator.uniform(15), delay=45.0)

    for optimizations in (OnlineOptimizations.none(), OnlineOptimizations.all()):
        scheduler = service.online_scheduler(
            "app", optimizations, wait_resolution=30.0
        )
        # ``scheduler.run(stream)`` returns the unified SchedulingOutcome; the
        # detailed report keeps the per-arrival telemetry this example prints.
        report = scheduler.run_report(stream)
        print(f"\nOptimizations: {optimizations.describe()}")
        print(f"  VMs rented            : {report.num_vms}")
        print(f"  total cost            : {units.format_cents(report.total_cost)}")
        print(f"  models retrained      : {report.retrains}")
        print(f"  model cache hits      : {report.cache_hits}")
        print(f"  mean scheduling delay : {report.average_overhead * 1000:.1f} ms/query")

    print(
        "\nWith Shift + Reuse the scheduler almost never retrains, which is what"
        " keeps the per-query scheduling delay low (Figure 19 in the paper)."
    )


if __name__ == "__main__":
    main()
