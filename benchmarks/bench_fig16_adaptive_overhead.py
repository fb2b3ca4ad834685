"""Figure 16 — cost of adapting a model to a tightened performance goal.

Section 5's adaptive modeling re-uses the original model's sample workloads:
a sample whose optimal schedule still costs the same under the tightened goal
keeps it, the rest are re-searched with the improved heuristic ``h'``.  The
paper tightens each goal by 0-100% of its slack and shows that shifts of up
to ~40% retrain in under a second, with the cost growing as the shift gets
larger because more samples change their optimal schedules.

Reproduction: same sweep, scaled-down sample count, two series.  *From the
base*: each shift is retrained by its own modeler, so the reference is always
the original goal — the paper's figure.  *Chained*: one modeler walks
10 -> 25 -> 40 -> 60 -> 80 %, each step measured against the nearest goal
already solved, which is what the online scheduler and the strategy
recommender do.  "More samples change their optimal schedules" is the
``searched`` column.  Asserted are only the deterministic counts that are
theorems: from the base ``kept`` never grows with the shift (a path kept
under a stricter goal is kept under every looser one), the chained walk keeps
at least as many samples as the from-base retrain at every shift, and
kept + searched + skipped is the sample count.  Expansions are printed for
both series but not compared (``h'`` from a nearer reference is usually, not
provably, tighter), and wall time is reported, never asserted (15 % A/A on
this host).

A further measurement isolates the incremental old-goal accumulator: the same
retrain is timed with the O(1) incremental :class:`AdaptiveBound` (search
nodes carry the old goal's penalty copy-on-write) and with a reference bound
that re-evaluates the old goal over the node's full outcome tuple per
generated vertex, as the seed did.  Output is bit-identical either way
(asserted: equal expansions, equal trees); the per-goal timings are printed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.adaptive.retraining import AdaptiveModeler
from repro.evaluation.harness import format_table
from repro.learning.trainer import ModelGenerator
from repro.sla.base import PerformanceGoal
from repro.sla.factory import GOAL_KINDS

from conftest import print_figure

SHIFT_PERCENTS = (10, 25, 40, 60, 80)

#: Shift used for the incremental-vs-recomputed bound comparison.
BOUND_SHIFT_PERCENT = 40


@dataclass(frozen=True)
class RecomputedBound:
    """The pre-incremental adaptive bound: re-evaluates the old goal per node.

    Exposes no ``aux_goal``, so retraining problems built for it carry no
    auxiliary accumulator — this is the reference the incremental path is
    benchmarked (and property-tested) against.
    """

    old_goal: PerformanceGoal
    old_optimal_cost: float

    def __call__(self, infra_cost, penalty, aux_penalty, outcomes) -> float:
        old_partial = infra_cost + self.old_goal.penalty(outcomes)
        return infra_cost + penalty + max(0.0, self.old_optimal_cost - old_partial)


def _generator(base, scale) -> ModelGenerator:
    return ModelGenerator(
        templates=base.templates,
        vm_types=base.vm_types,
        latency_model=base.latency_model,
        config=scale.training,
    )


def _run(environments, scale):
    """One row per (goal kind, series, shift)."""
    rows = []
    for kind in GOAL_KINDS:
        base = environments[kind]
        generator = _generator(base, scale)
        chained = AdaptiveModeler(generator, base.training)
        for percent in SHIFT_PERCENTS:
            goal = base.goal.tightened(percent / 100.0, base.templates)
            for series, modeler in (
                ("from base", AdaptiveModeler(generator, base.training)),
                ("chained", chained),
            ):
                _, report = modeler.retrain(goal)
                rows.append(
                    {
                        "goal": kind,
                        "series": series,
                        "shift %": percent,
                        "full training (s)": round(base.training.training_time, 2),
                        "retrain (s)": round(report.retraining_time, 3),
                        "kept": report.samples_kept,
                        "searched": report.samples_retrained - report.samples_kept,
                        "skipped": report.samples_skipped,
                        "expansions": report.total_expansions,
                    }
                )
    return rows


def _measure_bound_variants(environments, scale):
    """Per-goal retrain wall clock: incremental aux accumulator vs recomputed."""
    rows = []
    for kind in GOAL_KINDS:
        base = environments[kind]
        generator = _generator(base, scale)
        goal = base.goal.tightened(BOUND_SHIFT_PERCENT / 100.0, base.templates)

        # Best of two interleaved repeats: the retrains are sub-second at the
        # small scale, so a single sample would be dominated by noise.  A
        # modeler per retrain: one that has solved the goal once keeps every
        # path the second time and searches nothing.
        incremental_s = recomputed_s = float("inf")
        for _ in range(2):
            modeler = AdaptiveModeler(generator, base.training)
            started = time.perf_counter()
            incremental_result, incremental_report = modeler.retrain(goal)
            incremental_s = min(incremental_s, time.perf_counter() - started)

            # Save the descriptor itself: plain getattr would unwrap the
            # staticmethod and the restore would re-bind it as an instance
            # method.
            original_bound = AdaptiveModeler.__dict__["_adaptive_bound"]
            AdaptiveModeler._adaptive_bound = staticmethod(
                lambda old_goal, old_cost: RecomputedBound(old_goal, old_cost)
            )
            modeler = AdaptiveModeler(generator, base.training)
            try:
                started = time.perf_counter()
                recomputed_result, recomputed_report = modeler.retrain(goal)
                recomputed_s = min(recomputed_s, time.perf_counter() - started)
            finally:
                AdaptiveModeler._adaptive_bound = original_bound

            assert (
                incremental_report.total_expansions
                == recomputed_report.total_expansions
            )
            assert (
                incremental_result.model.tree.to_text()
                == recomputed_result.model.tree.to_text()
            )
        rows.append(
            {
                "goal": kind,
                "expansions": incremental_report.total_expansions,
                "recomputed_s": round(recomputed_s, 3),
                "incremental_s": round(incremental_s, 3),
                "speedup": round(recomputed_s / max(incremental_s, 1e-9), 2),
            }
        )
    return rows


def test_fig16_adaptive_modeling_overhead(benchmark, environments, scale):
    rows = benchmark.pedantic(_run, args=(environments, scale), rounds=1, iterations=1)
    print_figure(
        "Figure 16 — adaptive retraining vs SLA shift: samples kept, searched, expansions",
        format_table(
            rows,
            [
                "goal", "series", "shift %", "full training (s)", "retrain (s)",
                "kept", "searched", "skipped", "expansions",
            ],
        ),
    )
    samples = scale.training.num_samples
    assert len(rows) == len(GOAL_KINDS) * len(SHIFT_PERCENTS) * 2
    for row in rows:
        assert row["kept"] + row["searched"] + row["skipped"] == samples, row
    for kind in GOAL_KINDS:
        kept = {
            series: [r["kept"] for r in rows if r["goal"] == kind and r["series"] == series]
            for series in ("from base", "chained")
        }
        assert kept["from base"] == sorted(kept["from base"], reverse=True), (kind, kept)
        assert all(
            chained >= from_base
            for chained, from_base in zip(kept["chained"], kept["from base"])
        ), (kind, kept)

    bound_rows = _measure_bound_variants(environments, scale)
    print_figure(
        f"Adaptive bound at shift {BOUND_SHIFT_PERCENT}% — incremental aux "
        "accumulator vs per-node recomputation (bit-identical output)",
        format_table(
            bound_rows,
            ["goal", "expansions", "recomputed_s", "incremental_s", "speedup"],
        ),
    )
