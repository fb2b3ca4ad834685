"""The three serving workloads: one engine loop, two arrival shapes, two engines.

``serve_singleton`` and ``serve_epoch`` differ only in the arrival quantum
(every query its own epoch, or ~8 queries per epoch); ``serve_sharded`` sends
``serve_epoch``'s exact input through a router and one forked worker.

* **Capacity phase** — firehose: ``drive()`` replays the streams as fast as
  the engine takes them.  Each pass is a fresh engine fed the input in time
  order, slice by slice, with a host probe between slices; the timed part is
  the ``drive()`` calls.  Two passes over the same input must produce the
  same schedules to the cent.
* **Latency phase** — closed loop, one client: an op submits one epoch (the
  same-timestamp arrivals of one tenant) with tickets, drains, and reads the
  decisions.  It is closed-loop on purpose: an open loop's latency on this
  box is set by how late the generator's timer fires and, on the sharded
  engine, by the worker holding an epoch until the tenant's next timestamp —
  neither scales with the host probe, neither is the program's doing.
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import statistics
import time
from bisect import bisect_right
from contextlib import nullcontext

from repro import tpch_templates
from repro.learning import shm
from repro.serving import ServingEngine, ShardedServingEngine, TenantStream, loadgen
from repro.sla.factory import GOAL_KINDS
from repro.workloads.arrivals import poisson_arrivals

from benchmarks.perf import harness, layers
from benchmarks.perf.checks import Checks, placed_once
from benchmarks.perf.harness import Context

#: Waits all round to the zero bucket: base model only, no retraining.
NO_RETRAIN = 1.0e9
ARRIVAL_RATE = 40.0
PASSES = 2
#: Seconds of firehose between two probes, roughly.
SLICE_SECONDS = 0.2
TAIL = 0.95
#: Untimed epochs at the head of the latency phase (one per tenant and a spare round).
WARM_UP_EPOCHS = 8


async def _maybe(value):
    return await value if inspect.isawaitable(value) else value


def _inline(service):
    return ServingEngine(service, wait_resolution=NO_RETRAIN)


def _sharded(service):
    # Start this process's resource tracker before the engine forks, as the
    # engine's own ``isolation="auto"`` start-up does.  A worker forked
    # without one starts its own at its first attach, leaves its later
    # attachments registered there, and that tracker unlinks them when the
    # worker exits — under the router, which then fails in ``close()`` about
    # one run in four.  (The program's bug; README, "Found on the way".)
    shm.shared_memory_available()
    return ShardedServingEngine(
        service, shards=1, isolation="process", wait_resolution=NO_RETRAIN
    )


def _streams(seed: int, quantum, capacity: int, latency: int):
    """Per tenant one seeded stream, cut into the two phases' inputs."""
    templates = tpch_templates(harness.TEMPLATES)
    first, second = [], []
    for kind in GOAL_KINDS:
        stream = poisson_arrivals(
            templates,
            capacity + latency,
            rate=ARRIVAL_RATE,
            seed=seed,
            tenant=kind,
            quantum=quantum,
        )
        queries = stream.queries
        # Never cut inside a same-timestamp group.
        cut = capacity
        while 0 < cut < len(queries) and queries[cut].arrival_time == queries[cut - 1].arrival_time:
            cut += 1
        first.append(TenantStream(kind, stream.with_queries(queries[:cut])))
        second.append(TenantStream(kind, stream.with_queries(queries[cut:])))
    return first, second


def _slices(streams, parts: int):
    """*streams* cut at *parts* - 1 arrival times into consecutive slices."""
    times = sorted(q.arrival_time for s in streams for q in s.workload)
    cuts = [times[len(times) * part // parts] for part in range(1, parts)]
    buckets = [[[] for _ in streams] for _ in range(parts)]
    for position, stream in enumerate(streams):
        for query in stream.workload:
            buckets[bisect_right(cuts, query.arrival_time)][position].append(query)
    return [
        [
            TenantStream(stream.tenant, stream.workload.with_queries(queries))
            for stream, queries in zip(streams, bucket)
            if queries
        ]
        for bucket in buckets
        if any(bucket)
    ]


def _epochs(streams):
    """``(tenant, [queries])`` per same-timestamp group, in replay order."""
    groups: dict[tuple[float, str], list] = {}
    for stream in streams:
        for query in stream.workload:
            groups.setdefault((query.arrival_time, stream.tenant), []).append(query)
    return [(tenant, groups[when, tenant]) for when, tenant in sorted(groups)]


async def _capacity_pass(ctx: Context, service, make_engine, slices, number: int) -> dict:
    meter, tracer = ctx.meter, ctx.tracer
    spans = []
    own_before, children_before = harness.cpu_seconds()
    engine = make_engine(service)
    async with engine:
        await _maybe(engine.warm(*GOAL_KINDS))
        meter.probe()
        begin = tracer.mark()
        with tracer.span("bench.capacity_pass", number):
            for part in slices:
                started = time.perf_counter()
                await loadgen.drive(engine, part)
                spans.append((started, time.perf_counter()))
                meter.probe()
        end = tracer.mark()
        started = time.perf_counter()
        snapshot = await _maybe(engine.metrics())
        snapshot_ms = (time.perf_counter() - started) * 1e3
    own_after, children_after = harness.cpu_seconds()
    queries = sum(len(stream.workload) for part in slices for stream in part)
    rate, raw_rate = harness.phase_rate(meter, queries, spans)
    return {
        "queries": queries,
        "queries_per_s": rate,
        "raw_queries_per_s": raw_rate,
        "seconds": queries / rate,
        "raw_seconds": queries / raw_rate,
        "host_factor": meter.factor(spans[0][0], spans[-1][1]),
        "snapshot": snapshot,
        "snapshot_ms": snapshot_ms,
        "outcomes": {kind: engine.outcome(kind) for kind in GOAL_KINDS},
        "router_cpu_s": own_after - own_before,
        "worker_cpu_s": children_after - children_before,
        "trace_slice": (begin, end),
    }


async def _latency_phase(ctx: Context, service, make_engine, epochs) -> dict:
    meter, tracer = ctx.meter, ctx.tracer
    spans, fine = [], []
    engine = make_engine(service)
    async with engine:
        await _maybe(engine.warm(*GOAL_KINDS))
        meter.probe()
        begin = tracer.mark()
        for number, (tenant, queries) in enumerate(epochs):
            meter.probe_if_due()
            with tracer.span("bench.op", number):
                started = time.perf_counter()
                tickets = [
                    (await engine.submit(tenant, query, ticket=True)).ticket
                    for query in queries
                ]
                await engine.drain()
                decisions = [await ticket.decision() for ticket in tickets]
                ended = time.perf_counter()
            if number < WARM_UP_EPOCHS:
                continue  # each lane's first epoch pays its lazy set-up
            spans.append((started, ended))
            fine.append(
                len(decisions) == len(queries)
                and not any(decision.degraded for decision in decisions)
            )
        meter.probe()
        end = tracer.mark()
        snapshot = await _maybe(engine.metrics())
    return {
        "spans": spans,
        "fine": fine,
        "snapshot": snapshot,
        "outcomes": {kind: engine.outcome(kind) for kind in GOAL_KINDS},
        "trace_slice": (begin, end),
    }


def _check_snapshot(checks: Checks, label: str, snapshot, expected: int) -> None:
    checks.add(
        f"{label}.decided_equals_submitted",
        snapshot.decided == snapshot.submitted == expected,
        f"decided {snapshot.decided}, submitted {snapshot.submitted}, expected {expected}",
    )
    checks.add(f"{label}.no_retrains", snapshot.retrains == 0, f"{snapshot.retrains}")
    lost = snapshot.shed + snapshot.degraded + snapshot.failed
    checks.add(f"{label}.none_shed_degraded_failed", lost == 0, f"{lost}")
    try:
        for entry in snapshot.tenants:
            entry.check_identities()
        checks.add(f"{label}.identities", True)
    except AssertionError as error:
        checks.add(f"{label}.identities", False, str(error))


def run(ctx: Context, quantum, sharded: bool, capacity: int, latency: int, limit_ms: float):
    """One serving workload; *capacity* and *latency* are queries per tenant."""
    make_engine = _sharded if sharded else _inline
    checks = Checks()
    config = ctx.config()
    shm_before = harness.shm_segments()

    def build(directory):
        service = harness.build_service(directory, GOAL_KINDS, config)
        # Engine construction and warm() belong to set-up: lanes, sessions
        # and (sharded) the fork, the registration and the model shipment.
        async def warm():
            async with make_engine(service) as engine:
                await _maybe(engine.warm(*GOAL_KINDS))
        asyncio.run(warm())
        return service

    service, directory, setup_s, setup_each = harness.repeated_setup(
        ctx, build, harness.close_service
    )
    try:
        first, second = _streams(ctx.seed, quantum, ctx.scaled(capacity), ctx.scaled(latency))
        per_pass = sum(len(stream.workload) for stream in first)
        # ~5k queries/s singleton, ~8.5k/s batched: size slices by epochs.
        parts = max(2, round(ctx.seconds * 0.22 / SLICE_SECONDS))
        slices = _slices(first, 2 if ctx.smoke else parts)
        epochs = _epochs(second)

        # A traced run times the traced pass between two untraced ones.
        count = 1 if ctx.smoke else PASSES + 1 if ctx.traced else PASSES
        passes = []
        for number in range(count):
            gc.collect()
            with nullcontext() if number == count // 2 else ctx.untraced():
                passes.append(
                    asyncio.run(_capacity_pass(ctx, service, make_engine, slices, number))
                )
        for number, result in enumerate(passes):
            _check_snapshot(checks, f"capacity.pass{number}", result["snapshot"], per_pass)
            for stream in first:
                checks.add(
                    f"capacity.pass{number}.{stream.tenant}.placed_once",
                    placed_once(result["outcomes"][stream.tenant], stream.workload),
                )
        costs = [
            sum(result["outcomes"][kind].total_cost for kind in GOAL_KINDS)
            for result in passes
        ]
        checks.add("capacity.cost_identical_across_passes", len(set(costs)) == 1, f"{costs}")

        gc.collect()
        paced = asyncio.run(_latency_phase(ctx, service, make_engine, epochs))
        expected = sum(len(queries) for _, queries in epochs)
        _check_snapshot(checks, "latency", paced["snapshot"], expected)
        for stream in second:
            checks.add(
                f"latency.{stream.tenant}.placed_once",
                placed_once(paced["outcomes"][stream.tenant], stream.workload),
            )
        # The engine must agree with the scheduler it fronts, to the cent.
        reference = second[0]
        with ctx.untraced():
            direct = service.online_scheduler(
                reference.tenant, wait_resolution=NO_RETRAIN
            ).run(reference.workload)
        served = paced["outcomes"][reference.tenant].total_cost
        checks.add(
            "latency.cost_equals_direct_scheduler_run",
            served == direct.total_cost,
            f"served {served!r}, direct {direct.total_cost!r}",
        )
        latency_cost = sum(paced["outcomes"][kind].total_cost for kind in GOAL_KINDS)

        durations = harness.scaled_durations(ctx.meter, paced["spans"])
        summary = harness.latency_summary(durations, TAIL, limit_ms, paced["fine"])
        rates = [result["queries_per_s"] for result in passes]
        detail = {
            "loop": "capacity: firehose drive(); latency: closed loop, 1 client, op = one epoch",
            "tenants": list(GOAL_KINDS),
            "quantum": quantum,
            "engine": "sharded(shards=1, process)" if sharded else "inline",
            "capacity": {
                "queries_per_pass": per_pass,
                "slices": len(slices),
                "epochs": passes[0]["snapshot"].epochs,
                "passes": [
                    {
                        key: result[key]
                        for key in (
                            "queries_per_s",
                            "raw_queries_per_s",
                            "seconds",
                            "host_factor",
                            "router_cpu_s",
                            "worker_cpu_s",
                        )
                    }
                    for result in passes
                ],
                "pass_spread": (max(rates) - min(rates)) / statistics.median(rates),
                "cost_cents": costs[0],
            },
            "latency": {**summary, "epochs": len(epochs), "queries": expected, "cost_cents": latency_cost},
        }
        result = harness.outcome(
            ctx, checks, (setup_s, setup_each), _untraced_rate(ctx, passes),
            summary, costs[0] + latency_cost, paced["fine"], detail,
        )
        if ctx.traced:
            reference = None
            if sharded:
                # What the same input costs without the router, pipe and worker.
                with ctx.untraced():
                    reference = asyncio.run(_capacity_pass(ctx, service, _inline, slices, -1))
            result["layers"] = layers.serving(ctx, service, passes, paced, sharded, reference)
        return result
    finally:
        harness.close_service(service)
        harness.remove_dir(directory)
        if sharded:
            # Only this workload creates segments; /dev/shm is shared with
            # whatever else runs on the machine, so the others do not look.
            leaked = harness.shm_segments() - shm_before
            checks.add("no_shm_segment_left", not leaked, f"{sorted(leaked)}")


def _untraced_rate(ctx: Context, passes) -> float:
    """The median pass — of the untraced passes when one of them was traced."""
    rates = [result["queries_per_s"] for result in passes]
    if ctx.traced and len(rates) > 1:
        del rates[len(rates) // 2]
    return statistics.median(rates)


WORKLOADS = {
    "serve_singleton": dict(quantum=None, sharded=False, capacity=4000, latency=1500, limit_ms=10.0),
    "serve_epoch": dict(quantum=0.2, sharded=False, capacity=4500, latency=4500, limit_ms=25.0),
    "serve_sharded": dict(quantum=0.2, sharded=True, capacity=4500, latency=4500, limit_ms=50.0),
}
