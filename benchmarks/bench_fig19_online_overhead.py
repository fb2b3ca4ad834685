"""Figure 19 — scheduling overhead of online optimizations.

The paper streams queries with normally distributed inter-arrival times (mean
0.25 s, standard deviation 0.125 s) and measures the average time a query
waits for a scheduling decision under four configurations: no optimization,
model reuse, linear shifting, and both.  Both optimizations together push the
overhead below one second for the linearly shiftable goals (max latency and
per-query deadlines), while average/percentile goals remain more expensive.

Reproduction: identical four configurations on a smaller query stream, one
test per goal kind, asserting the paper's ordering None >= Reuse >= Shift +
Reuse on the wall time (the minimum of three runs).  Each ``>=`` allows 15 %,
the spread measured between identical runs on a shared two-core Linux VM.
The two shiftable goals miss the ordering today and are marked
``xfail(strict=True)`` with their measured numbers: fixing them turns the
suite red until the marker goes.
"""

from __future__ import annotations

import gc

import pytest

from repro.evaluation.harness import format_table, uniform_workloads
from repro.learning.trainer import ModelGenerator
from repro.runtime.online import OnlineOptimizations, OnlineScheduler
from repro.sla.factory import GOAL_KINDS
from repro.workloads.generator import WorkloadGenerator

CONFIGURATIONS = (
    OnlineOptimizations.none(),
    OnlineOptimizations.reuse_only(),
    OnlineOptimizations.shift_only(),
    OnlineOptimizations.all(),
)

#: Slack on each ``>=``: the spread of wall times between identical runs.
TOLERANCE = 1.15
#: Timed runs per configuration (the minimum is reported).
REPEATS = 3

#: Cells that miss the ordering today, with None / Reuse / Shift / Shift +
#: Reuse in seconds.  A shift pushes a monotonic goal's deadline below some
#: templates' own latency, which the A* bound does not charge, so each
#: shifted retrain searches far more vertices than a fresh one.
KNOWN_MISSES = {
    "per_query": "measured 0.20 / 0.18 / 0.73 / 0.64 s: Shift + Reuse is 3.6x Reuse",
    "max": "measured 0.10 / 0.09 / 0.29 / 0.20 s: Shift + Reuse is 2.2x Reuse",
}


def _run(environment, kind, scale):
    # Retraining cost is what is being measured; a reduced corpus keeps the
    # "None" configuration affordable while preserving the relative shape.
    generator = ModelGenerator(
        templates=environment.templates,
        vm_types=environment.vm_types,
        latency_model=environment.latency_model,
        config=scale.training.with_samples(max(15, scale.training.num_samples // 4)),
    )
    size = min(scale.online_queries, 10)
    stream = WorkloadGenerator(environment.templates, seed=190)
    workload = stream.with_normal_arrivals(
        uniform_workloads(environment.templates, 1, size, seed=191)[0],
        mean_delay=20.0,
        std_delay=10.0,
    )
    # Each configuration's time is the minimum over interleaved repeats: a
    # run does the same work every time, so the minimum is the least noisy
    # estimate of it.
    times: dict[str, list[float]] = {}
    for _ in range(REPEATS):
        for optimizations in CONFIGURATIONS:
            # Start each timed run from a collected heap, so a full-GC pause
            # left over from the previous run is not billed to this one.
            gc.collect()
            scheduler = OnlineScheduler(
                base_training=environment.training,
                generator=generator,
                optimizations=optimizations,
                wait_resolution=30.0,
            )
            outcome = scheduler.run(workload)
            times.setdefault(f"{optimizations.describe()} (s)", []).append(
                outcome.overhead.wall_time_seconds
            )
    row = {"goal": kind}
    row.update((column, round(min(values), 3)) for column, values in times.items())
    return row


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(
            kind,
            marks=pytest.mark.xfail(
                strict=True,
                reason=f"{KNOWN_MISSES[kind]}; owned by ROADMAP item 3(b)",
            ),
        )
        if kind in KNOWN_MISSES
        else kind
        for kind in GOAL_KINDS
    ],
)
def test_fig19_online_scheduling_overhead(benchmark, environments, scale, kind):
    row = benchmark.pedantic(
        _run, args=(environments[kind], kind, scale), rounds=1, iterations=1
    )
    columns = ["goal"] + [f"{c.describe()} (s)" for c in CONFIGURATIONS]
    print(
        "\nFigure 19 — total time spent scheduling a query stream, per optimization\n"
        + format_table([row], columns)
    )
    none, reuse, both = row["None (s)"], row["Reuse (s)"], row["Shift + Reuse (s)"]
    assert reuse <= none * TOLERANCE, f"{kind}: Reuse {reuse} s > None {none} s"
    assert both <= reuse * TOLERANCE, f"{kind}: Shift + Reuse {both} s > Reuse {reuse} s"
