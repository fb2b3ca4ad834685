"""Figure 17 — time to generate schedules for very large batches.

Parsing the decision model costs O(h) per decision and at most 2n decisions
are needed for an n-query batch, so scheduling scales linearly: the paper
schedules 10,000 / 20,000 / 30,000 queries in under 1.5 seconds.

Reproduction: identical batch sizes (the scheduler is pure Python, so absolute
times are higher), preceded by a 1,000-query reference batch.  Two columns are
timed per batch:

* **generation** (``overhead.wall_time_seconds``) is the paper's quantity — the
  time to walk the decision model until every query is placed;
* **whole call** is what a caller of ``BatchScheduler.run`` (and therefore of
  ``service.schedule_batch``) waits for: generation, plus simulating the
  schedule, plus pricing it with Equation 1.  The paper's claim is only worth
  having if this column is linear too — it was not while pricing rescanned
  every outcome once per VM (214 µs/query at 30,000 queries against 25 at
  1,000).

The shape to check on both is linear growth with the batch size — per-query
time roughly constant — and independence from the number of VMs the schedule
ends up renting.
"""

from __future__ import annotations

import time

from repro.evaluation.harness import format_table, uniform_workloads
from repro.runtime.batch import BatchScheduler

#: Small batch the large ones are compared with (per-query whole-call time).
REFERENCE_SIZE = 1_000
#: Each batch is scheduled this many times and the fastest run reported:
#: the box's cores change speed under a run, and the claim is about shape.
REPEATS = 3


def _run(environments, scale):
    environment = environments["max"]
    scheduler = BatchScheduler(environment.model)
    rows = []
    for size in (REFERENCE_SIZE, *scale.scalability_sizes):
        workload = uniform_workloads(environment.templates, 1, size, seed=170)[0]
        generation = whole_call = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            outcome = scheduler.run(workload)
            whole_call = min(whole_call, time.perf_counter() - started)
            generation = min(generation, outcome.overhead.wall_time_seconds)
            vms_rented = outcome.num_vms()
            # A caller holds one outcome, not two: free this one before the
            # next repeat so the collector's work does not grow with REPEATS.
            del outcome
        rows.append(
            {
                "batch size": size,
                "generation (s)": round(generation, 3),
                "generation per query (us)": round(generation / size * 1e6, 2),
                "whole call (s)": round(whole_call, 3),
                "whole call per query (us)": round(whole_call / size * 1e6, 2),
                "VMs rented": vms_rented,
            }
        )
    return rows


def test_fig17_batch_scheduling_scalability(benchmark, environments, scale):
    rows = benchmark.pedantic(_run, args=(environments, scale), rounds=1, iterations=1)
    print(
        "\nFigure 17 — schedule-generation and whole-call time vs batch size "
        "(max-latency goal)\n" + format_table(rows, list(rows[0]))
    )
    # Linear-scaling shape: per-query time roughly constant across batch sizes,
    # for the paper's quantity and for the call a user actually makes.
    generation = [row["generation per query (us)"] for row in rows]
    assert max(generation) <= 5.0 * min(generation)
    whole_call = [row["whole call per query (us)"] for row in rows]
    assert max(whole_call[1:]) <= 1.5 * whole_call[0], whole_call
