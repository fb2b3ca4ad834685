"""Figure 19 — scheduling overhead of online optimizations.

The paper streams queries with normally distributed inter-arrival times (mean
0.25 s, standard deviation 0.125 s) and measures the average time a query
waits for a scheduling decision under four configurations: no optimization,
model reuse, linear shifting, and both.  Both optimizations together push the
overhead below one second for the linearly shiftable goals (max latency and
per-query deadlines), while average/percentile goals remain more expensive.

Reproduction: identical four configurations on a smaller query stream, one
test per goal kind.  Every configuration trains from corpora of one size,
``num_samples // 4`` sample workloads of the benchmark scale (15 at the
default scale): None and Reuse train each aged-template model with the
generator, and Shift adapts a base model the same generator trained.  The
paper's ordering None >= Reuse >= Shift + Reuse is asserted first on the
total A* expansions of a run's model builds (deterministic), then on wall
time (the minimum of three runs), where each ``>=`` allows 15 %, the spread
measured between identical runs on a shared two-core Linux VM.  A last test
asserts that the shiftable goals are the cheapest: Shift + Reuse on ``max``
and ``per_query`` expands no more than on ``average`` or ``percentile``.

Measured on that VM (expansions; seconds, the minimum of three runs), None /
Reuse / Shift / Shift + Reuse, at the shipped N = 15 and with the full
60-sample corpus on both sides:

| goal | N | expansions | seconds |
|---|---|---|---|
| `per_query` | 15 | 7,421 / 6,623 / 3,762 / 3,762 | 0.130 / 0.115 / 0.083 / 0.066 |
| `average` | 15 | 5,749 / 4,075 / 5,749 / 4,075 | 0.132 / 0.094 / 0.132 / 0.093 |
| `max` | 15 | 2,294 / 1,944 / 907 / 907 | 0.065 / 0.055 / 0.045 / 0.033 |
| `percentile` | 15 | 16,716 / 11,170 / 16,716 / 11,170 | 0.451 / 0.300 / 0.452 / 0.300 |
| `per_query` | 60 | 42,575 / 36,317 / 24,056 / 24,056 | 0.710 / 0.602 / 0.475 / 0.427 |
| `average` | 60 | 26,533 / 18,199 / 26,533 / 18,199 | 0.597 / 0.424 / 0.599 / 0.415 |
| `max` | 60 | 10,801 / 7,863 / 3,068 / 3,068 | 0.288 / 0.208 / 0.169 / 0.119 |
| `percentile` | 60 | 66,117 / 42,541 / 66,117 / 42,541 | 1.813 / 1.141 / 1.770 / 1.145 |

The per-kind ordering holds at both sizes.  At N = 60 ``per_query``'s
Shift + Reuse (24,056) expands more than ``average``'s (18,199), so the
cross-kind claim holds only at N = 15; N = 60 also takes the file to 35 s
against 9 s, so N = 15 is what runs.
"""

from __future__ import annotations

import gc

import pytest

from repro.adaptive.retraining import AdaptiveModeler
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

#: Slack on each wall-time ``>=``: the spread of wall times between identical runs.
TOLERANCE = 1.15
#: Timed runs per configuration (the minimum is reported).
REPEATS = 3

#: Rows measured so far, by goal kind: the cross-kind test reuses the
#: per-kind tests' rows instead of measuring them again.
_ROWS: dict[str, dict] = {}


def _expansions_counted(monkeypatch, total: list[int]) -> None:
    """Add every model build's A* expansions to ``total[0]`` from here on.

    None and Reuse build through ``ModelGenerator.generate``; Shift through
    ``AdaptiveModeler.retrain``, which does not call ``generate``.
    """
    generate, retrain = ModelGenerator.generate, AdaptiveModeler.retrain

    def counted_generate(self, *args, **kwargs):
        result = generate(self, *args, **kwargs)
        total[0] += sum(sample.expansions for sample in result.samples)
        return result

    def counted_retrain(self, *args, **kwargs):
        result, report = retrain(self, *args, **kwargs)
        total[0] += report.total_expansions
        return result, report

    monkeypatch.setattr(ModelGenerator, "generate", counted_generate)
    monkeypatch.setattr(AdaptiveModeler, "retrain", counted_retrain)


def _run(environment, kind, scale):
    # A reduced corpus keeps the "None" configuration affordable; the base
    # model Shift adapts is trained on the same corpus size.
    generator = ModelGenerator(
        templates=environment.templates,
        vm_types=environment.vm_types,
        latency_model=environment.latency_model,
        config=scale.training.with_samples(max(15, scale.training.num_samples // 4)),
    )
    base = generator.generate(environment.goal)
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
    expansions: dict[str, set[int]] = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        total = [0]
        _expansions_counted(monkeypatch, total)
        for _ in range(REPEATS):
            for optimizations in CONFIGURATIONS:
                # Start each timed run from a collected heap, so a full-GC
                # pause left over from the previous run is not billed to it.
                gc.collect()
                scheduler = OnlineScheduler(
                    base_training=base,
                    generator=generator,
                    optimizations=optimizations,
                    wait_resolution=30.0,
                )
                total[0] = 0
                outcome = scheduler.run(workload)
                name = optimizations.describe()
                times.setdefault(name, []).append(outcome.overhead.wall_time_seconds)
                expansions.setdefault(name, set()).add(total[0])
    row = {"goal": kind}
    for name, counts in expansions.items():
        (row[f"{name} (exp)"],) = counts  # the same work on every repeat
    row.update((f"{name} (s)", round(min(values), 3)) for name, values in times.items())
    return row


def _row(environments, scale, kind) -> dict:
    if kind not in _ROWS:
        _ROWS[kind] = _run(environments[kind], kind, scale)
    return _ROWS[kind]


def _print(rows) -> None:
    columns = ["goal"]
    columns += [f"{c.describe()} (exp)" for c in CONFIGURATIONS]
    columns += [f"{c.describe()} (s)" for c in CONFIGURATIONS]
    print(
        "\nFigure 19 — A* expansions and total time spent scheduling a query "
        "stream, per optimization\n" + format_table(rows, columns)
    )


@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_fig19_online_scheduling_overhead(benchmark, environments, scale, kind):
    row = benchmark.pedantic(
        _row, args=(environments, scale, kind), rounds=1, iterations=1
    )
    _print([row])
    none, reuse, both = (row[f"{name} (exp)"] for name in ("None", "Reuse", "Shift + Reuse"))
    assert reuse <= none, f"{kind}: Reuse expands {reuse} > None {none}"
    assert both <= reuse, f"{kind}: Shift + Reuse expands {both} > Reuse {reuse}"
    none, reuse, both = row["None (s)"], row["Reuse (s)"], row["Shift + Reuse (s)"]
    assert reuse <= none * TOLERANCE, f"{kind}: Reuse {reuse} s > None {none} s"
    assert both <= reuse * TOLERANCE, f"{kind}: Shift + Reuse {both} s > Reuse {reuse} s"


def test_fig19_shiftable_goals_are_cheapest(benchmark, environments, scale):
    rows = benchmark.pedantic(
        lambda: [_row(environments, scale, kind) for kind in GOAL_KINDS],
        rounds=1,
        iterations=1,
    )
    _print(rows)
    both = {row["goal"]: row["Shift + Reuse (exp)"] for row in rows}
    for shiftable in ("max", "per_query"):
        for other in ("average", "percentile"):
            assert both[shiftable] <= both[other], both
