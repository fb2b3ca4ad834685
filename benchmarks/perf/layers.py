"""Per-layer metrics of a traced run, and the report printed with them.

Times come from the tracer's spans (means over the whole run, set-up
included, because training and the registry mostly run there); counts come
from the program's public snapshots — ``ServingMetrics``,
``DecisionModel.stats``, ``OnlineSchedulingReport``,
``AdaptiveRetrainingReport``.  A metric whose layer the workload never
enters reads 0.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import nullcontext

from repro.learning import shm

from benchmarks.perf.harness import Context
from benchmarks.perf.trace import layer, self_time_table


class Layers(dict):
    """``metric name -> value`` plus the human-readable report."""

    report = ""


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _common(ctx: Context, service, phase_slice, phase_seconds: float, overhead: float) -> Layers:
    """Everything that reads the same way on every workload."""
    tracer = ctx.tracer
    whole = tracer.times()
    phase = tracer.times(*phase_slice)

    def at(name):
        return layer(whole, name)

    models = [service.model(name) for name in service.tenant_names()]
    trainings = [service.training(name) for name in service.tenant_names()]
    # Decisions the tenants' own models made (retrained copies keep theirs).
    counted = sum(model.stats.decisions for model in models)
    fallbacks = sum(model.stats.fallbacks for model in models)
    placements = sum(model.stats.placement_decisions for model in models)
    decisions = at("learning.model.decide").calls
    detailed, run = at("runtime.batch.schedule_detailed"), at("runtime.batch.run")
    cost_row, search = at("runtime.batch.cost_row"), at("search.astar.search")
    registry = service.registry
    stored = len(registry)
    database = registry.database_path

    program_self = sum(
        entry.self_ns for name, entry in phase.items() if not name.startswith("bench.")
    )
    out = Layers(
        {
            "serving.engine.submit_us": at("serving.engine.submit").mean_us,
            "serving.engine.drain_ms": at("serving.engine.drain").mean_ms,
            "serving.sharded.submit_us": at("serving.sharded.submit").mean_us,
            "serving.sharded.warm_ms": at("serving.sharded.warm").mean_ms,
            "runtime.online.submit_us": at("runtime.online.submit").mean_us,
            "runtime.online.self_us": at("runtime.online.submit").self_mean_us,
            "runtime.online.finalize_ms": at("runtime.online.finalize").mean_ms,
            "runtime.batch.schedule_us_per_query": detailed.total_ns
            / 1e3
            / max(1, decisions * placements / max(1, counted)),
            "runtime.batch.self_us_per_decision": detailed.self_ns / 1e3 / max(1, decisions),
            "runtime.batch.decisions_per_query": counted / max(1, placements),
            "runtime.batch.cost_row_us": cost_row.mean_us,
            "runtime.batch.cost_row_calls_per_decision": cost_row.calls / max(1, decisions),
            "runtime.batch.run_overhead_ms": (
                run.total_ns - tracer.nested_ns("runtime.batch.run", "runtime.batch.schedule_detailed")
            )
            / 1e6
            / max(1, run.calls),
            "learning.model.decide_us": at("learning.model.decide").mean_us,
            "learning.model.self_us": at("learning.model.decide").self_mean_us,
            "learning.model.fallback_share": fallbacks / max(1, counted),
            "learning.features.extract_us": at("learning.features.extract").mean_us,
            "learning.features.matrix_ms": at("learning.features.matrix").mean_ms,
            "learning.decision_tree.predict_us": at("learning.decision_tree.predict").mean_us,
            "learning.decision_tree.fit_ms": at("learning.decision_tree.fit").mean_ms,
            "learning.decision_tree.nodes": _mean(model.tree.node_count() for model in models),
            "learning.decision_tree.depth": _mean(model.tree.depth() for model in models),
            "learning.trainer.generate_ms": at("learning.trainer.generate").mean_ms,
            "learning.trainer.solve_ms": at("learning.trainer.solve").mean_ms,
            "learning.trainer.examples": _mean(result.num_examples for result in trainings),
            "learning.shm.pack_ms": at("learning.shm.pack").mean_ms,
            "learning.shm.attach_ms": at("learning.shm.attach").mean_ms,
            "search.astar.search_ms": search.mean_ms,
            "search.astar.expansions": tracer.counters["search.astar.expansions"],
            "search.astar.generated": tracer.counters["search.astar.generated"],
            "search.astar.expansions_per_s": tracer.counters["search.astar.expansions"]
            / (search.total_ns / 1e9)
            if search.total_ns
            else 0.0,
            "adaptive.retraining.retrain_ms": at("adaptive.retraining.retrain").mean_ms,
            "adaptive.retraining.samples_retrained": tracer.counters["adaptive.retraining.samples_retrained"],
            "adaptive.retraining.samples_skipped": tracer.counters["adaptive.retraining.samples_skipped"],
            "adaptive.retraining.expansions": tracer.counters["adaptive.retraining.expansions"],
            "service.service.train_self_ms": at("service.service.train").self_mean_us / 1e3,
            "service.service.schedule_batch_self_ms": at("service.service.schedule_batch").self_mean_us
            / 1e3,
            "service.registry.put_ms": at("service.registry.put").mean_ms,
            "service.registry.get_ms": at("service.registry.get").mean_ms,
            "service.registry.find_base_ms": at("service.registry.find_base").mean_ms,
            # The database and its write-ahead log.
            "service.registry.bytes_per_model": sum(
                path.stat().st_size for path in database.parent.glob(database.name + "*")
            )
            / stored
            if database is not None and stored
            else 0.0,
            "core.cost_model.breakdown_ms": at("core.cost_model.breakdown").mean_ms,
            "cloud.simulator.simulate_ms": at("cloud.simulator.simulate").mean_ms,
            "host.calib_ms": ctx.meter.calib_ms(),
            "host.cpu_count": os.cpu_count() or 0,
            "trace.spans": tracer.count,
            "trace.coverage_share": program_self / 1e9 / phase_seconds if phase_seconds else 0.0,
            "trace.overhead_share": overhead,
        }
    )
    out.report = (
        f"self time per layer, traced phase ({phase_seconds:.2f} s raw wall):\n"
        f"{self_time_table(phase, int(phase_seconds * 1e9))}\n"
        f"program spans cover {out['trace.coverage_share']:.1%} of the phase wall; "
        f"tracing slows the phase by {overhead:+.1%}"
        + (f"; {tracer.dropped} spans dropped" if tracer.dropped else "")
    )
    return out


def measure_overhead(ctx: Context, repeatable) -> float:
    """Scaled time of ``repeatable()`` traced ÷ untraced − 1 (off, on, on, off)."""
    meter = ctx.meter
    taken = {False: 0.0, True: 0.0}
    for on in (False, True, True, False):
        with nullcontext() if on else ctx.untraced():
            meter.probe()
            started = time.perf_counter()
            repeatable()
            ended = time.perf_counter()
            meter.probe()
        taken[on] += meter.scaled(started, ended)
    return taken[True] / taken[False] - 1.0


def serving(ctx: Context, service, passes, paced, sharded: bool, reference=None) -> Layers:
    """Layers of a serving workload: the middle capacity pass is the traced one."""
    traced = passes[len(passes) // 2]
    others = [entry for entry in passes if entry is not traced]
    untraced = others[0] if others else traced
    overhead = (
        traced["seconds"] / statistics.fmean(entry["seconds"] for entry in others) - 1.0
        if others
        else 0.0
    )
    if sharded:
        # The worker attaches in its own process, out of the tracer's sight:
        # ship one model here as the router and a worker would.
        for name in service.tenant_names():
            bundle = shm.pack_evaluator(service.model(name).compiled_evaluator())
            try:
                _, view = shm.attach_evaluator(bundle.name)
                view.close()
            finally:
                bundle.close()
                bundle.unlink()
    out = _common(ctx, service, traced["trace_slice"], traced["raw_seconds"], overhead)
    snapshot = traced["snapshot"]
    online = ctx.tracer.times(*traced["trace_slice"]).get("runtime.online.submit")
    out.update(
        {
            "serving.engine.queue_wait_ms": _mean(
                entry.decision_p50 * 1e3 for entry in snapshot.tenants
            ),
            # Everything in the pass that is not inside OnlineSession.submit
            # (unseen, so 0, when the sessions live in a worker process).
            "serving.engine.self_share": 1.0 - online.total_ns / 1e9 / traced["raw_seconds"]
            if online
            else 0.0,
            "serving.engine.epochs": snapshot.epochs,
            "serving.engine.mean_epoch_size": snapshot.decided / max(1, snapshot.epochs),
            "serving.metrics.snapshot_ms": traced["snapshot_ms"],
            "runtime.online.retrains": snapshot.retrains + paced["snapshot"].retrains,
            "runtime.online.cache_hits": sum(
                entry.cache_hits for entry in snapshot.tenants + paced["snapshot"].tenants
            ),
            "runtime.online.base_model_uses": snapshot.epochs + paced["snapshot"].epochs,
        }
    )
    if sharded:
        out.update(
            {
                "serving.sharded.frames_sent": snapshot.batches_sent,
                "serving.sharded.mean_batch": snapshot.mean_batch_size,
                "serving.sharded.rtts_saved": snapshot.rtts_saved,
                "serving.sharded.router_cpu_s": untraced["router_cpu_s"],
                "serving.sharded.worker_cpu_s": untraced["worker_cpu_s"],
                "serving.sharded.overhead_us_per_query": 1e6
                * (1.0 / untraced["queries_per_s"] - 1.0 / reference["queries_per_s"]),
            }
        )
    return out


def offline(ctx: Context, service, phase_slice, phase_seconds, overhead, online_report=None) -> Layers:
    out = _common(ctx, service, phase_slice, phase_seconds, overhead)
    if online_report is not None:
        out.update(
            {
                "runtime.online.retrains": online_report.retrains,
                "runtime.online.cache_hits": online_report.cache_hits,
                "runtime.online.base_model_uses": online_report.base_model_uses,
            }
        )
    return out
