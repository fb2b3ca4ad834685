"""The serving engine is behavior-preserving — bit-identical to direct runs.

For any seeded arrival stream, the decisions and costs produced by driving
the async engine (admission queues, epoch coalescing, worker tasks, the
open-loop driver) must be **bit-identical** to feeding the same stream
straight into ``OnlineScheduler.run``.  The grid covers all four performance
goal kinds crossed with both VM catalogues; streams are quantized Poisson
draws, so they mix multi-query epochs with singletons.  A second case drives
every tenant of a service concurrently through one engine and still demands
per-tenant identity, and a third exercises the retrain-triggering 45 s
fixed-delay stream from the golden scenarios.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import units
from repro.cloud.vm import single_vm_type_catalog, two_vm_type_catalog
from repro.config import TrainingConfig
from repro.core.scheduler import SchedulingOutcome
from repro.service import WiSeDBService
from repro.serving import ServingEngine, TenantStream, drive
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.workloads import poisson_arrivals
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.templates import QueryTemplate, TemplateSet
from oracles import bursty_arrivals, tenant_entry

CATALOGS = {
    "1vm": single_vm_type_catalog,
    "2vm": lambda: two_vm_type_catalog(slow_templates=["G3"]),
}


@pytest.fixture(scope="module")
def serving_templates() -> TemplateSet:
    return TemplateSet(
        [
            QueryTemplate(name="G1", base_latency=units.minutes(1)),
            QueryTemplate(name="G2", base_latency=units.minutes(2)),
            QueryTemplate(name="G3", base_latency=units.minutes(4)),
        ]
    )


@pytest.fixture(scope="module")
def services(serving_templates):
    """One service per catalogue, one tenant per goal kind, all pre-trained."""
    built = {}
    for catalog_name, catalog_factory in CATALOGS.items():
        service = WiSeDBService()
        for kind in GOAL_KINDS:
            service.register(
                kind,
                serving_templates,
                default_goal(kind, serving_templates),
                vm_types=catalog_factory(),
                config=TrainingConfig.tiny(seed=13),
            )
        service.train_all()
        built[catalog_name] = service
    yield built
    for service in built.values():
        service.close()


def _canonical(outcome: SchedulingOutcome) -> dict:
    """Everything deterministic about an outcome (wall-clock times excluded)."""
    return {
        "scheduler": outcome.scheduler,
        "goal": outcome.goal.kind,
        "schedule": [
            {
                "vm_type": vm.vm_type.name,
                "queries": [
                    [query.query_id, query.template_name] for query in vm.queries
                ],
            }
            for vm in outcome.schedule
        ],
        "cost": {
            "startup": outcome.cost.startup_cost,
            "execution": outcome.cost.execution_cost,
            "penalty": outcome.cost.penalty_cost,
            "total": outcome.cost.total,
        },
        "records": [
            {
                "query_id": record.query_id,
                "vm_index": record.vm_index,
                "vm_type": record.vm_type_name,
                "arrival": record.arrival_time,
                "start": record.start_time,
                "completion": record.completion_time,
                "execution": record.execution_time,
            }
            for record in outcome.query_outcomes
        ],
        "counters": {
            "decisions": outcome.overhead.decisions,
            "retrains": outcome.overhead.retrains,
            "cache_hits": outcome.overhead.cache_hits,
        },
        "degraded": [outcome.degraded, outcome.degraded_reason],
    }


def _serve(service, streams, **engine_kwargs):
    async def main():
        engine = ServingEngine(service, **engine_kwargs)
        async with engine:
            await drive(engine, streams)
        return engine

    return asyncio.run(main())


@pytest.mark.parametrize("catalog_name", sorted(CATALOGS))
@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_engine_is_bit_identical_to_direct_run(
    services, serving_templates, kind, catalog_name
):
    service = services[catalog_name]
    workload = poisson_arrivals(
        serving_templates,
        14,
        rate=1.0 / 20.0,
        seed=17,
        tenant=f"{kind}:{catalog_name}",
        quantum=30.0,
    )
    engine = _serve(service, [TenantStream(kind, workload)])
    served = engine.outcome(kind)
    direct = service.online_scheduler(kind).run(workload)
    assert _canonical(served) == _canonical(direct)
    snapshot = tenant_entry(engine.metrics(), kind)
    assert snapshot.decided == len(workload)
    assert snapshot.retrains == direct.overhead.retrains
    assert snapshot.cache_hits == direct.overhead.cache_hits


@pytest.mark.parametrize("catalog_name", sorted(CATALOGS))
def test_multiplexed_tenants_each_stay_identical(
    services, serving_templates, catalog_name
):
    """All four goal-kind tenants served concurrently through one engine."""
    service = services[catalog_name]
    streams = [
        TenantStream(
            kind,
            bursty_arrivals(
                serving_templates,
                10,
                base_rate=1.0 / 30.0,
                burst_rate=1.0,
                seed=23,
                tenant=kind,
                quantum=15.0,
            ),
        )
        for kind in GOAL_KINDS
    ]
    engine = _serve(service, streams)
    for stream in streams:
        served = engine.outcome(stream.tenant)
        direct = service.online_scheduler(stream.tenant).run(stream.workload)
        assert _canonical(served) == _canonical(direct)


def test_retrain_heavy_stream_stays_identical(services, serving_templates):
    """The golden-scenario arrival shape: 45 s fixed delays trigger wait
    retrains, and the engine must replay them identically."""
    service = services["2vm"]
    generator = WorkloadGenerator(serving_templates, seed=29)
    workload = generator.with_fixed_arrivals(generator.uniform(10), delay=45.0)
    engine = _serve(service, [TenantStream("max", workload)], wait_resolution=60.0)
    served = engine.outcome("max")
    direct = service.online_scheduler("max", wait_resolution=60.0).run(workload)
    assert _canonical(served) == _canonical(direct)
    assert direct.overhead.retrains > 0  # the case actually exercises retraining


def test_paced_drive_is_still_identical(services, serving_templates):
    """Pacing sleeps (real open-loop replay) must not change decisions."""
    service = services["1vm"]
    workload = poisson_arrivals(
        serving_templates, 12, rate=0.05, seed=31, tenant="paced", quantum=30.0
    )
    engine = _serve(
        service, [TenantStream("average", workload)], queue_limit=4
    )
    paced = ServingEngine(service, queue_limit=4)

    async def paced_run():
        async with paced:
            # ~600 arrivals/sec offered: fast wall-clock, real sleeps between
            # epochs, bounded queue forcing blocking admission inside epochs.
            await drive(paced, [TenantStream("average", workload)], target_rate=600.0)
        return paced.outcome("average")

    paced_outcome = asyncio.run(paced_run())
    assert _canonical(engine.outcome("average")) == _canonical(paced_outcome)
