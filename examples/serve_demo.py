#!/usr/bin/env python3
"""Serving demo: a multi-tenant async front end under open-loop Poisson load.

This example runs the serving layer end to end:

1. register three tenants with different SLAs and train them (the shared
   registry path — second and third retrain adaptively where possible);
2. open a :class:`~repro.serving.ServingEngine` over the service: per-tenant
   lanes, epoch batching, backpressure, degraded fallback;
3. drive it open loop with seeded Poisson arrival streams (one per tenant,
   deterministic per ``(seed, tenant)``) at a target offered rate;
4. print the metrics snapshot — per-tenant decision p50/p99, in-flight
   queries, admitted/shed/degraded counters, epochs, retrains — and the health status;
5. close the engine, price each tenant's served stream, and compare it with
   a direct ``OnlineScheduler.run`` of the same stream: the script exits
   non-zero unless every total cost is identical.

Run with ``python examples/serve_demo.py``.  Pass ``--shards N`` to serve
the same streams through the multi-process
:class:`~repro.serving.ShardedServingEngine` instead: tenants are routed to
N forked shard workers by a deterministic hash of the tenant id, each
model ships once through its worker's pipe, and the priced outcomes are
bit-identical to the single-process run (when a worker process cannot be
started the router runs the same shard workers on its own event loop and
says why).
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro import TrainingConfig, WiSeDBService, tpch_templates
from repro.serving import ServingEngine, ShardedServingEngine, TenantStream, drive
from repro.sla import AverageLatencyGoal, MaxLatencyGoal, PercentileGoal
from repro.workloads import poisson_arrivals

QUERIES_PER_TENANT = 60
TARGET_RATE = 300.0  # offered arrivals/sec across all tenants


async def serve(service: WiSeDBService, streams: list[TenantStream]) -> ServingEngine:
    engine = ServingEngine(service, queue_limit=256, backpressure="block")
    async with engine:
        print(f"\nDriving {len(streams)} tenants open loop at {TARGET_RATE:.0f}/s ...")
        report = await drive(engine, streams, target_rate=TARGET_RATE)
        print(
            f"  submitted {report.submitted} queries in {report.submit_seconds:.2f}s"
            f" (late: {report.late}); sustained {report.sustained_rate:.0f}"
            " decisions/sec end to end"
        )
        print(f"\nMetrics snapshot (health={engine.health()}):")
        print(engine.metrics().describe())
    return engine


async def serve_sharded(
    service: WiSeDBService, streams: list[TenantStream], shards: int
) -> ShardedServingEngine:
    engine = ShardedServingEngine(
        service, shards=shards, queue_limit=256, backpressure="block"
    )
    async with engine:
        # Ship every tenant's model to its shard up front so the drive
        # measures serving, not registration.
        await engine.warm(*(stream.tenant for stream in streams))
        mode = engine.effective_isolation
        detail = f" ({engine.fallback_reason})" if engine.fallback_reason else ""
        print(
            f"\nDriving {len(streams)} tenants across {shards} {mode} "
            f"shards{detail} at {TARGET_RATE:.0f}/s ..."
        )
        report = await drive(engine, streams, target_rate=TARGET_RATE)
        print(
            f"  submitted {report.submitted} queries in {report.submit_seconds:.2f}s"
            f" (late: {report.late}); sustained {report.sustained_rate:.0f}"
            " decisions/sec end to end"
        )
        if report.utilization is not None:
            print(
                f"  utilization {report.utilization:.3f} of the "
                f"{report.offered_rate:.0f}/s offered rate"
            )
        snapshot = await engine.metrics()
        print(f"\nMerged metrics snapshot (health={snapshot.status}):")
        print(snapshot.describe())
        if snapshot.batches_sent:
            print(
                f"\nPipelined admission: {snapshot.batched_queries} queries in "
                f"{snapshot.batches_sent} batch frames "
                f"(mean {snapshot.mean_batch_size:.1f}/frame, "
                f"{snapshot.rtts_saved} pipe round trips saved)"
            )
    return engine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="serve through a ShardedServingEngine with N shards "
        "(default: the single-process engine)",
    )
    arguments = parser.parse_args()

    templates = tpch_templates(8)
    service = WiSeDBService()
    config = TrainingConfig.fast(seed=3)
    goals = {
        "acme": MaxLatencyGoal.from_factor(templates, factor=2.5),
        "globex": PercentileGoal.from_factor(templates, factor=2.5),
        "initech": AverageLatencyGoal.from_factor(templates, factor=2.5),
    }
    for name, goal in goals.items():
        service.register(name, templates, goal, config=config)
    print(f"Training {len(goals)} tenants ...")
    for name in service.tenant_names():
        service.train(name)
        print(f"  {name:<8} [{service.tenant(name).provenance}]")

    # Seeded Poisson streams, one per tenant: deterministic per (seed, tenant),
    # quantized onto a 0.1 s grid so bursts coalesce into multi-query epochs.
    streams = [
        TenantStream(
            name,
            poisson_arrivals(
                templates, QUERIES_PER_TENANT, rate=4.0,
                seed=11, tenant=name, quantum=0.1,
            ),
        )
        for name in goals
    ]

    if arguments.shards > 0:
        engine = asyncio.run(serve_sharded(service, streams, arguments.shards))
    else:
        engine = asyncio.run(serve(service, streams))

    print("\nPriced outcomes, each checked against a direct OnlineScheduler run:")
    mismatched = []
    for stream in streams:
        outcome = engine.outcome(stream.tenant)
        direct = service.online_scheduler(stream.tenant).run(stream.workload)
        verdict = "identical"
        if outcome.total_cost != direct.total_cost:
            verdict = "MISMATCH"
            mismatched.append(stream.tenant)
        print(f"  {stream.tenant:<8} {outcome.describe()}  [{verdict}]")
    service.close()
    if mismatched:
        sys.exit(f"served outcomes differ from direct runs for: {', '.join(mismatched)}")


if __name__ == "__main__":
    main()
