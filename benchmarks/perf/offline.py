"""The three workloads without an event loop: retraining inside the online
scheduler, batch scheduling, and training / adapting models."""

from __future__ import annotations

import gc

from repro import WiSeDBService, tpch_templates
from repro.runtime.batch import BatchScheduler
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.generator import WorkloadGenerator

from benchmarks.perf import harness, layers
from benchmarks.perf.checks import Checks, placed_once
from benchmarks.perf.harness import Context


def _raw_seconds(spans) -> float:
    return sum(ended - started for started, ended in spans)


# -- online_retrain -----------------------------------------------------------------

ONLINE_KIND = "max"
ONLINE_RATE = 0.1
#: Five-second wait buckets: ~50 distinct shifts, each trained once then reused.
ONLINE_RESOLUTION = 5.0
ONLINE_ARRIVALS = 1200
ONLINE_WARM_PASSES = 10
ONLINE_TAIL = 0.98
ONLINE_LIMIT_MS = 1000.0


def online_retrain(ctx: Context):
    """One tenant whose goal can be shifted, arrivals 10 s apart on average.

    A query that waited is scheduled by a model retrained for the shifted
    goal; the scheduler keeps one model per wait bucket.  The *cold* pass
    fills that cache — about one arrival in 25 retrains, so the median op is
    the reuse path and p98 the retrain path.  The *warm* passes replay the
    stream through fresh sessions of the same scheduler: no retrain, the
    cache and pull-back path alone, which is what ``queries_per_s`` counts.
    """
    checks = Checks()
    templates = tpch_templates(harness.TEMPLATES)
    config = ctx.config()
    service, directory, *setup = harness.repeated_setup(
        ctx,
        lambda path: harness.build_service(path, (ONLINE_KIND,), config),
        harness.close_service,
    )
    try:
        stream = poisson_arrivals(
            templates, ctx.scaled(ONLINE_ARRIVALS), rate=ONLINE_RATE, seed=ctx.seed, tenant=ONLINE_KIND
        )
        scheduler = service.online_scheduler(ONLINE_KIND, wait_resolution=ONLINE_RESOLUTION)

        def one_pass(span):
            session = scheduler.session()
            ops = [lambda query=query: session.submit([query]) for query in stream]
            decisions, spans = harness.timed_ops(ctx, ops, span)
            return session.finalize(), decisions, spans

        gc.collect()
        begin = ctx.tracer.mark()
        cold, decisions, cold_spans = one_pass("bench.op")
        cold_slice = (begin, ctx.tracer.mark())
        durations = harness.scaled_durations(ctx.meter, cold_spans)
        fine = [len(decision.placements) >= 1 for decision in decisions]
        summary = harness.latency_summary(durations, ONLINE_TAIL, ONLINE_LIMIT_MS, fine)
        cold_cost = cold.total_cost
        placed = sorted(record.query_id for record in cold.outcomes)
        checks.add(
            "cold.placed_once", placed == sorted(query.query_id for query in stream)
        )
        counts = (cold.retrains, cold.cache_hits, cold.base_model_uses)
        checks.add("cold.one_model_choice_per_epoch", sum(counts) == len(stream), f"{counts}")
        checks.add("cold.retrained", cold.retrains > 0, "the cold pass never retrained")

        warm_spans, warm_hits = [], []
        with ctx.untraced():
            for _ in range(1 if ctx.smoke else ONLINE_WARM_PASSES):
                gc.collect()
                warm, _, spans = one_pass("bench.capacity_op")
                warm_spans.extend(spans)
                warm_hits.append((warm.retrains, warm.cache_hits, warm.total_cost))
        checks.add(
            "warm.no_retrain_and_same_schedules",
            all(hit == (0, cold.retrains + cold.cache_hits, cold_cost) for hit in warm_hits),
            f"cold {counts} {cold_cost!r}, warm {warm_hits}",
        )
        rate, raw_rate = harness.phase_rate(ctx.meter, len(warm_spans), warm_spans)
        detail = {
            "loop": "closed loop, 1 client, op = OnlineSession.submit of one arrival",
            "tenant": ONLINE_KIND,
            "wait_resolution_s": ONLINE_RESOLUTION,
            "arrival_rate_per_s": ONLINE_RATE,
            "arrivals": len(stream),
            "cold": {
                **summary,
                "retrains": cold.retrains,
                "cache_hits": cold.cache_hits,
                "base_model_uses": cold.base_model_uses,
                "seconds": sum(durations),
                "cost_cents": cold_cost,
            },
            "warm": {
                "passes": len(warm_hits),
                "queries_per_s": rate,
                "raw_queries_per_s": raw_rate,
            },
        }
        result = harness.outcome(ctx, checks, setup, rate, summary, cold_cost, fine, detail)
        if ctx.traced:

            def prefix():
                session = service.online_scheduler(
                    ONLINE_KIND, wait_resolution=ONLINE_RESOLUTION
                ).session()
                for query in stream.queries[: len(stream) // 6]:
                    session.submit([query])

            result["layers"] = layers.offline(
                ctx, service, cold_slice, _raw_seconds(cold_spans),
                layers.measure_overhead(ctx, prefix), online_report=cold,
            )
        return result
    finally:
        harness.close_service(service)
        harness.remove_dir(directory)


# -- batch_schedule -----------------------------------------------------------------

BATCH_CAPACITY_ROUNDS = 4
BATCH_CAPACITY_QUERIES = 4000
BATCH_LATENCY_ROUNDS = 25
BATCH_LATENCY_QUERIES = 1000
BATCH_TAIL = 0.90
BATCH_LIMIT_MS = 250.0


def batch_schedule(ctx: Context):
    """``service.schedule_batch`` for every goal kind: big batches for
    capacity (thousands of VMs in one state), 1,000-query batches one by one
    for latency."""
    checks = Checks()
    templates = tpch_templates(harness.TEMPLATES)
    config = ctx.config()
    service, directory, *setup = harness.repeated_setup(
        ctx,
        lambda path: harness.build_service(path, GOAL_KINDS, config),
        harness.close_service,
    )
    try:
        generator = WorkloadGenerator(templates, seed=ctx.seed)
        big = BATCH_CAPACITY_QUERIES // 20 if ctx.smoke else BATCH_CAPACITY_QUERIES
        small = BATCH_LATENCY_QUERIES // 10 if ctx.smoke else BATCH_LATENCY_QUERIES

        def batches(rounds, size):
            return [(kind, generator.uniform(size)) for _ in range(rounds) for kind in GOAL_KINDS]

        def schedule(jobs, span):
            ops = [lambda kind=kind, work=work: service.schedule_batch(kind, work) for kind, work in jobs]
            return harness.timed_ops(ctx, ops, span)

        def verify(label, jobs, outcomes):
            fine = [
                not outcome.degraded and placed_once(outcome, work)
                for (_, work), outcome in zip(jobs, outcomes)
            ]
            checks.add(f"{label}.placed_once_not_degraded", all(fine), f"{fine.count(False)} bad")
            return fine

        capacity_jobs = batches(ctx.scaled(BATCH_CAPACITY_ROUNDS), big)
        latency_jobs = batches(ctx.scaled(BATCH_LATENCY_ROUNDS), small)

        gc.collect()
        begin = ctx.tracer.mark()
        capacity_outcomes, capacity_spans = schedule(capacity_jobs, "bench.capacity_op")
        capacity_slice = (begin, ctx.tracer.mark())
        verify("capacity", capacity_jobs, capacity_outcomes)
        queries = sum(len(work) for _, work in capacity_jobs)
        rate, raw_rate = harness.phase_rate(ctx.meter, queries, capacity_spans)

        gc.collect()
        latency_outcomes, latency_spans = schedule(latency_jobs, "bench.op")
        fine = verify("latency", latency_jobs, latency_outcomes)
        durations = harness.scaled_durations(ctx.meter, latency_spans)
        summary = harness.latency_summary(durations, BATCH_TAIL, BATCH_LIMIT_MS, fine)

        kind, work = capacity_jobs[0]
        again = service.schedule_batch(kind, work)
        checks.add(
            "same_batch_same_schedule",
            again.total_cost == capacity_outcomes[0].total_cost
            and again.schedule.signature() == capacity_outcomes[0].schedule.signature(),
        )
        cost = sum(outcome.total_cost for outcome in capacity_outcomes + latency_outcomes)
        detail = {
            "loop": "closed loop, 1 client, op = service.schedule_batch of one batch",
            "capacity": {
                "batches": len(capacity_jobs),
                "queries_per_batch": big,
                "queries_per_s": rate,
                "raw_queries_per_s": raw_rate,
                "vms": sum(outcome.num_vms() for outcome in capacity_outcomes),
            },
            "latency": {**summary, "queries_per_batch": small},
        }
        result = harness.outcome(ctx, checks, setup, rate, summary, cost, fine, detail)
        if ctx.traced:

            def one_round():
                for kind, work in capacity_jobs[: len(GOAL_KINDS)]:
                    service.schedule_batch(kind, work)

            result["layers"] = layers.offline(
                ctx, service, capacity_slice, _raw_seconds(capacity_spans),
                layers.measure_overhead(ctx, one_round),
            )
        return result
    finally:
        harness.close_service(service)
        harness.remove_dir(directory)


# -- train_adapt --------------------------------------------------------------------

TRAIN_SAMPLES = 30
TRAIN_SEEDS = 5
ADAPT_PERCENTS = tuple(range(2, 26, 2))
ADAPT_TAIL = 0.75
ADAPT_LIMIT_MS = 3000.0
PROBE_QUERIES = 1000


def train_adapt(ctx: Context):
    """Fresh training (capacity) and goal adaptation (latency) through the
    service and its SQLite registry; every model then schedules one probe."""
    checks = Checks()
    templates = tpch_templates(harness.TEMPLATES)
    config = ctx.config(TRAIN_SAMPLES)
    service, directory, *setup = harness.repeated_setup(
        ctx,
        lambda path: harness.build_service(path, GOAL_KINDS, config),
        harness.close_service,
    )
    try:
        probe = WorkloadGenerator(templates, seed=ctx.seed).uniform(
            PROBE_QUERIES // 10 if ctx.smoke else PROBE_QUERIES
        )
        models = [service.model(kind) for kind in GOAL_KINDS]

        fresh = []
        for number in range(1 if ctx.smoke else ctx.scaled(TRAIN_SEEDS)):
            for kind in GOAL_KINDS:
                name = f"{kind}-{number}"
                service.register(
                    name,
                    templates,
                    default_goal(kind, templates),
                    config=ctx.config(TRAIN_SAMPLES, seed=number + 1),
                )
                fresh.append(name)
        gc.collect()
        begin = ctx.tracer.mark()
        trained, train_spans = harness.timed_ops(
            ctx,
            [lambda name=name: service.train(name, mode="fresh") for name in fresh],
            "bench.capacity_op",
        )
        capacity_slice = (begin, ctx.tracer.mark())
        sample_queries = sum(
            result.config.num_samples * result.config.queries_per_sample for result in trained
        )
        rate, raw_rate = harness.phase_rate(ctx.meter, sample_queries, train_spans)
        checks.add(
            "capacity.trained_fresh",
            all(service.tenant(name).provenance == "fresh" for name in fresh),
        )
        models.extend(result.model for result in trained)

        percents = ADAPT_PERCENTS[:2] if ctx.smoke else ADAPT_PERCENTS[: ctx.scaled(len(ADAPT_PERCENTS))]
        jobs = [
            (kind, service.tenant(kind).spec.goal.tightened(percent / 100.0, templates))
            for percent in percents
            for kind in GOAL_KINDS
        ]
        gc.collect()
        adapted, adapt_spans = harness.timed_ops(
            ctx, [lambda kind=kind, goal=goal: service.adapt(kind, goal) for kind, goal in jobs]
        )
        fine = [
            report.samples_retrained + report.samples_skipped == config.num_samples
            for _, report in adapted
        ]
        checks.add("latency.every_sample_accounted_for", all(fine), f"{fine.count(False)} bad")
        durations = harness.scaled_durations(ctx.meter, adapt_spans)
        summary = harness.latency_summary(durations, ADAPT_TAIL, ADAPT_LIMIT_MS, fine)
        models.extend(result.model for result, _ in adapted)

        # Untimed: what the models are worth, on one probe batch.
        with ctx.untraced():
            outcomes = [BatchScheduler(model).run(probe) for model in models]
        checks.add(
            "probe.placed_once", all(placed_once(outcome, probe) for outcome in outcomes)
        )
        cost = sum(outcome.total_cost for outcome in outcomes)

        reopened = WiSeDBService(registry=directory, n_jobs=1)
        try:
            for kind in GOAL_KINDS:
                reopened.register(kind, templates, default_goal(kind, templates), config=config)
                reopened.train(kind)
            provenance = [reopened.tenant(kind).provenance for kind in GOAL_KINDS]
            same = all(
                reopened.model(kind).tree.to_text() == service.model(kind).tree.to_text()
                for kind in GOAL_KINDS
            )
        finally:
            harness.close_service(reopened)
        checks.add(
            "registry.reopened_gives_four_exact_hits",
            provenance == ["registry"] * len(GOAL_KINDS) and same,
            f"{provenance}, same trees: {same}",
        )
        detail = {
            "loop": "closed loop, 1 client, op = service.adapt of one goal",
            "capacity": {
                "trainings": len(fresh),
                "sample_queries": sample_queries,
                "queries_per_s": rate,
                "raw_queries_per_s": raw_rate,
            },
            "latency": {**summary, "percents": list(percents)},
            "models_probed": len(models),
        }
        result = harness.outcome(ctx, checks, setup, rate, summary, cost, fine, detail)
        if ctx.traced:

            def one_round():
                for kind, goal in jobs[: len(GOAL_KINDS)]:
                    service.adapt(kind, goal)

            result["layers"] = layers.offline(
                ctx, service, capacity_slice, _raw_seconds(train_spans),
                layers.measure_overhead(ctx, one_round),
            )
        return result
    finally:
        harness.close_service(service)
        harness.remove_dir(directory)
