"""Fault tolerance — scheduling cost under seeded VM-failure storms.

The paper's experiments assume VMs never die; this benchmark measures what
the online scheduler pays when they do.  For each performance goal the same
fixed-arrival workload runs once fault-free and once per crash rate, with
failures injected by a seeded :class:`~repro.faults.FaultPlan` — so every
cell is reproducible bit-for-bit and the cost deltas are attributable to the
faults alone.

Reported per (goal, crash rate): total Equation-1 cost, the wasted share
(startup fees of dead VMs plus partial work lost with them), the SLA penalty
(rescheduling delay lands here), and the failure counters.  The accounting
identity ``total == failure_free_cost + wasted_cost`` is asserted for every
run, fault-free runs included.
"""

from __future__ import annotations

import math
from dataclasses import replace

from conftest import print_figure

from repro.evaluation.harness import format_table
from repro.faults import FaultPlan
from repro.learning.trainer import ModelGenerator
from repro.runtime.online import OnlineOptimizations, OnlineScheduler
from repro.sla.factory import GOAL_KINDS
from repro.workloads.generator import WorkloadGenerator

#: Crashes per hour of VM uptime; 0.0 is the fault-free baseline.
CRASH_RATES = (0.0, 2.0, 6.0)
#: Failures only strike inside this window — a bounded outage the run then
#: recovers from, which keeps the storm cells comparable across goals (an
#: unbounded 24h hazard at 6 crashes/h kills *every* VM eventually).
STORM_HORIZON = 900.0
ARRIVAL_DELAY = 45.0
FAULT_SEED = 1806
SIZE_CAP = {"percentile": 10, "per_query": 14}


def _plan(crash_rate: float) -> FaultPlan:
    if crash_rate == 0.0:
        return FaultPlan.empty()
    return FaultPlan.from_rates(
        seed=FAULT_SEED, crash_rate=crash_rate, horizon=STORM_HORIZON
    )


def _run(environments, scale):
    rows = []
    # Queries orphaned by a failure come back with large waits, and an exact
    # shift retrain over those deeply-violated goals can burn the whole
    # per-sample expansion budget (tens of seconds per retrain epoch).  The
    # benchmark measures failure *accounting*, not retrain quality, so the
    # online scheduler's retraining path runs slimmed and on the relaxed beam
    # strategy — exactly the knob the search engine exposes for workloads
    # where exact training search is the bottleneck.
    retrain_config = replace(
        scale.training,
        num_samples=8,
        max_expansions=20_000,
        search_strategy="beam:16",
    )
    for kind in GOAL_KINDS:
        environment = environments[kind]
        generator = ModelGenerator(
            templates=environment.templates,
            vm_types=environment.vm_types,
            latency_model=environment.latency_model,
            config=retrain_config,
        )
        size = min(scale.online_queries, SIZE_CAP.get(kind, scale.online_queries))
        arrivals = WorkloadGenerator(environment.templates, seed=182)
        workload = arrivals.with_fixed_arrivals(
            arrivals.uniform(size), delay=ARRIVAL_DELAY
        )
        baseline = None
        for crash_rate in CRASH_RATES:
            scheduler = OnlineScheduler(
                base_training=environment.training,
                generator=generator,
                optimizations=OnlineOptimizations.all(),
                wait_resolution=30.0,
                fault_plan=_plan(crash_rate),
            )
            report = scheduler.run_report(workload)
            assert math.isclose(
                report.cost.total,
                report.cost.failure_free_cost + report.cost.wasted_cost,
                rel_tol=1e-9,
                abs_tol=1e-9,
            )
            if crash_rate == 0.0:
                baseline = report.total_cost
            overhead = (
                float("nan")
                if not baseline
                else (report.total_cost / baseline - 1.0) * 100.0
            )
            rows.append(
                {
                    "goal": kind,
                    "queries": size,
                    "crashes/h": crash_rate,
                    "total (c)": round(report.total_cost, 4),
                    "wasted (c)": round(report.cost.wasted_cost, 4),
                    "penalty (c)": round(report.cost.penalty_cost, 4),
                    "vs fault-free (%)": round(overhead, 2),
                    "failures": report.vm_failures,
                    "requeues": report.requeues,
                    "retries": report.retries,
                }
            )
    return rows


def test_fault_tolerance_cost_overhead(benchmark, environments, scale):
    rows = benchmark.pedantic(_run, args=(environments, scale), rounds=1, iterations=1)
    columns = [
        "goal",
        "queries",
        "crashes/h",
        "total (c)",
        "wasted (c)",
        "penalty (c)",
        "vs fault-free (%)",
        "failures",
        "requeues",
        "retries",
    ]
    print_figure(
        "Fault tolerance — online scheduling cost under seeded crash storms",
        format_table(rows, columns),
    )
    assert len(rows) == len(GOAL_KINDS) * len(CRASH_RATES)
    # At least one stormy cell must actually have seen a failure, otherwise
    # the benchmark is silently measuring nothing.
    assert any(row["failures"] > 0 for row in rows if row["crashes/h"] > 0)
