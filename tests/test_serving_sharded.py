"""The sharded serving engine is behavior-preserving for any shard count.

The router partitions tenants across per-shard ``ServingEngine`` workers
(forked processes, or the same worker loop on the router's event loop, each
model shipped once through the worker's pipe).  Whatever the shard count and
isolation mode, every tenant's priced outcome must be **bit-identical** to
the single-process engine — and therefore to ``OnlineScheduler.run`` — which
is what these tests lock for ``shards ∈ {1, 2, 4}`` across all four goal
kinds and both VM catalogues.  The rest of the file pins the routing
function, the fallback discipline, failure/degradation parity, merged
metrics (counter identities mid-drain while a shard is blocked admitting),
deterministic history logging, and the worker protocol itself.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing

import pytest

from repro import units
from repro.cloud.vm import single_vm_type_catalog, two_vm_type_catalog
from repro.config import TrainingConfig
from repro.core.scheduler import SchedulingOutcome
from repro.exceptions import SpecificationError, TrainingError
from repro.learning import model as model_module
from repro.learning import shm
from repro.service import WiSeDBService
from repro.serving import (
    ServingEngine,
    ShardedServingEngine,
    TenantStream,
    drive,
    merge_metrics,
    shard_of,
)
from repro.serving.channel import _Channel, _pickle_error
from repro.serving.metrics import ServingMetrics, TenantMetrics
from repro.serving.worker import (
    _register_shipment,
    _ShardConfig,
    _ShardService,
    _shard_worker_loop,
)
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.workloads import poisson_arrivals
from repro.workloads.query import Query
from repro.workloads.templates import QueryTemplate, TemplateSet
from repro.workloads.workload import Workload
from oracles import tenant_entry

CATALOGS = {
    "1vm": single_vm_type_catalog,
    "2vm": lambda: two_vm_type_catalog(slow_templates=["G3"]),
}


@pytest.fixture(scope="module")
def sharded_templates() -> TemplateSet:
    return TemplateSet(
        [
            QueryTemplate(name="G1", base_latency=units.minutes(1)),
            QueryTemplate(name="G2", base_latency=units.minutes(2)),
            QueryTemplate(name="G3", base_latency=units.minutes(4)),
        ]
    )


@pytest.fixture(scope="module")
def services(sharded_templates):
    """One service per catalogue, one tenant per goal kind, all pre-trained."""
    built = {}
    for catalog_name, catalog_factory in CATALOGS.items():
        service = WiSeDBService()
        for kind in GOAL_KINDS:
            service.register(
                kind,
                sharded_templates,
                default_goal(kind, sharded_templates),
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
                "arrival": record.arrival_time,
                "start": record.start_time,
                "completion": record.completion_time,
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


def _streams(templates, catalog_name: str):
    return [
        TenantStream(
            kind,
            poisson_arrivals(
                templates,
                10,
                rate=1.0 / 20.0,
                seed=17,
                tenant=f"{kind}:{catalog_name}",
                quantum=30.0,
            ),
        )
        for kind in GOAL_KINDS
    ]


def _serve_sharded(service, streams, **engine_kwargs):
    async def main():
        engine = ShardedServingEngine(service, **engine_kwargs)
        async with engine:
            await drive(engine, streams)
            await engine.drain()
            snapshot = await engine.metrics()
        return engine, snapshot

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# Deterministic routing
# ---------------------------------------------------------------------------


class TestShardOf:
    def test_routing_is_deterministic_and_in_range(self):
        for shards in (1, 2, 3, 4, 16):
            for tenant in ("acme", "globex", "initech", "a", ""):
                index = shard_of(tenant, shards)
                assert 0 <= index < shards
                assert index == shard_of(tenant, shards)  # stable within a run

    def test_routing_is_pinned_across_releases(self):
        # sha256-derived, so these values are stable across processes,
        # platforms, and library versions — a change here breaks every
        # deployed shard layout and must be deliberate.
        assert shard_of("acme", 4) == int.from_bytes(
            hashlib.sha256(b"acme").digest()[:8], "big"
        ) % 4

    def test_single_shard_routes_everything_to_zero(self):
        assert shard_of("anything", 1) == 0

    def test_invalid_shard_count_is_refused(self):
        with pytest.raises(SpecificationError, match="at least 1"):
            shard_of("acme", 0)


# ---------------------------------------------------------------------------
# Bit-identity for any shard count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("catalog_name", sorted(CATALOGS))
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_outcomes_are_bit_identical_to_direct_runs(
    services, sharded_templates, catalog_name, shards
):
    service = services[catalog_name]
    streams = _streams(sharded_templates, catalog_name)
    engine, snapshot = _serve_sharded(service, streams, shards=shards)
    assert len(engine._shards) == shards
    for stream in streams:
        served = engine.outcome(stream.tenant)
        direct = service.online_scheduler(stream.tenant).run(stream.workload)
        assert _canonical(served) == _canonical(direct)
        entry = tenant_entry(snapshot, stream.tenant)
        entry.check_identities()
        assert entry.decided == len(stream.workload)
        assert entry.retrains == direct.overhead.retrains
    assert snapshot.status == "ok"


@pytest.fixture(scope="module")
def direct_runs(services, sharded_templates):
    """Per catalogue: the streams and each tenant's direct-run outcome."""
    runs = {}
    for catalog_name, service in services.items():
        streams = _streams(sharded_templates, catalog_name)
        runs[catalog_name] = streams, {
            stream.tenant: _canonical(
                service.online_scheduler(stream.tenant).run(stream.workload)
            )
            for stream in streams
        }
    return runs


@pytest.mark.parametrize("catalog_name", sorted(CATALOGS))
@pytest.mark.parametrize("shards", [2, 4])
def test_in_process_shards_are_bit_identical_to_direct_runs(
    services, direct_runs, catalog_name, shards
):
    streams, direct = direct_runs[catalog_name]
    engine, snapshot = _serve_sharded(
        services[catalog_name], streams, shards=shards, isolation="inline"
    )
    assert engine.effective_isolation == "inline"
    assert engine.fallback_reason is None
    for stream in streams:
        assert _canonical(engine.outcome(stream.tenant)) == direct[stream.tenant]
        assert tenant_entry(snapshot, stream.tenant).decided == len(stream.workload)
    assert snapshot.status == "ok"


def test_auto_isolation_picks_inline_for_one_shard_and_process_beyond(
    services, sharded_templates
):
    service = services["1vm"]
    streams = _streams(sharded_templates, "1vm")[:1]
    single, _ = _serve_sharded(service, streams, shards=1)
    assert single.effective_isolation == "inline"
    assert single.fallback_reason is None
    multi, _ = _serve_sharded(service, streams, shards=2)
    assert multi.effective_isolation == "process"
    assert multi.fallback_reason is None


def test_auto_isolation_forks_without_shared_memory(
    services, sharded_templates, monkeypatch
):
    """Models reach a worker through its pipe alone, so a host without
    shared memory still gets process shards and the same outcomes."""
    service = services["1vm"]
    streams = _streams(sharded_templates, "1vm")
    monkeypatch.setattr(shm, "shared_memory_available", lambda: False)
    engine, _ = _serve_sharded(service, streams, shards=2)
    assert engine.effective_isolation == "process"
    assert engine.fallback_reason is None
    for stream in streams:
        direct = service.online_scheduler(stream.tenant).run(stream.workload)
        assert _canonical(engine.outcome(stream.tenant)) == _canonical(direct)


# ---------------------------------------------------------------------------
# Engine surface and guard rails
# ---------------------------------------------------------------------------


class TestEngineSurface:
    def test_tickets_resolve_across_process_shards(self, services):
        async def main():
            async with ShardedServingEngine(
                services["1vm"], shards=2, isolation="process"
            ) as engine:
                first = await engine.submit(
                    "max", Query("G1", arrival_time=0.0), ticket=True
                )
                assert first.admitted and first.ticket is not None
                # A later timestamp closes the first epoch, so the first
                # ticket must stream back while the engine is still serving —
                # not only at drain/close time.
                second = await engine.submit(
                    "max", Query("G1", arrival_time=1.0), ticket=True
                )
                early = await first.ticket.decision()
                await engine.drain()
                late = await second.ticket.decision()
                assert engine.effective_isolation == "process"
                return early, late

        early, late = asyncio.run(main())
        assert early.tenant == "max" and late.tenant == "max"
        assert early.template_name == "G1"
        assert early.vm_index is not None and not early.degraded
        assert late.epoch_time >= early.epoch_time

    def test_closed_engine_refuses_submissions(self, services):
        async def main():
            engine = ShardedServingEngine(services["1vm"], shards=1)
            await engine.close()
            with pytest.raises(SpecificationError, match="closed"):
                await engine.submit("max", Query("G1", arrival_time=0.0))

        asyncio.run(main())

    def test_outcome_requires_close_and_a_served_tenant(self, services):
        async def main():
            engine = ShardedServingEngine(services["1vm"], shards=1)
            with pytest.raises(SpecificationError, match="close"):
                engine.outcome("max")
            await engine.close()
            with pytest.raises(SpecificationError, match="never served"):
                engine.outcome("nobody")

        asyncio.run(main())

    def test_invalid_parameters_are_refused(self, services):
        service = services["1vm"]
        with pytest.raises(SpecificationError, match="backpressure"):
            ShardedServingEngine(service, backpressure="drop")
        with pytest.raises(SpecificationError, match="queue_limit"):
            ShardedServingEngine(service, queue_limit=0)
        with pytest.raises(SpecificationError, match="isolation"):
            ShardedServingEngine(service, isolation="thread")
        with pytest.raises(SpecificationError, match="shards"):
            ShardedServingEngine(service, shards=0)

    def test_history_rows_are_logged_in_sorted_tenant_order(
        self, services, sharded_templates
    ):
        service = services["2vm"]
        # Submit in REVERSE sorted order; the router must still log sorted.
        streams = list(reversed(_streams(sharded_templates, "2vm")))
        before = len(service.history(source="serving"))
        _serve_sharded(service, streams, shards=2)
        rows = service.history(source="serving")[before:]
        assert [row.tenant for row in rows] == sorted(
            stream.tenant for stream in streams
        )


# ---------------------------------------------------------------------------
# Failure and degradation parity
# ---------------------------------------------------------------------------


class _BrokenTrainingService(WiSeDBService):
    """A service whose learned path always fails (simulates a corrupt model)."""

    def train(self, name, mode="auto"):
        raise TrainingError("simulated: model artifact corrupt")


@pytest.fixture()
def broken_service(small_templates, max_goal, tiny_config):
    service = _BrokenTrainingService()
    service.register("acme", small_templates, max_goal, config=tiny_config)
    yield service
    service.close()


@pytest.fixture()
def broken_failclosed_service(small_templates, max_goal, tiny_config):
    service = _BrokenTrainingService(degraded_fallback=False)
    service.register("acme", small_templates, max_goal, config=tiny_config)
    yield service
    service.close()


class TestFailureParity:
    def test_degraded_lane_matches_the_single_engine(self, broken_service):
        """Shipping the pickled training *error* reproduces the identical
        sticky degraded reason in the worker process."""

        async def single():
            async with ServingEngine(broken_service) as engine:
                await engine.submit("acme", Query("T1", arrival_time=0.0))
                await engine.drain()
                return tenant_entry(engine.metrics(), "acme")

        async def sharded():
            async with ShardedServingEngine(
                broken_service, shards=2, isolation="process"
            ) as engine:
                await engine.submit("acme", Query("T1", arrival_time=0.0))
                await engine.drain()
                snapshot = await engine.metrics()
                return engine, tenant_entry(snapshot, "acme")

        reference = asyncio.run(single())
        engine, entry = asyncio.run(sharded())
        if engine.effective_isolation != "process":
            pytest.skip(f"process shards unavailable: {engine.fallback_reason}")
        assert entry.degraded == reference.degraded == 1
        assert entry.degraded_reason == reference.degraded_reason
        assert "TrainingError" in entry.degraded_reason
        entry.check_identities()
        with pytest.raises(SpecificationError, match="degraded"):
            engine.outcome("acme")

    def test_fallback_disabled_fails_submissions_closed(
        self, broken_failclosed_service
    ):
        async def main():
            async with ShardedServingEngine(
                broken_failclosed_service, shards=2
            ) as engine:
                with pytest.raises(TrainingError, match="corrupt"):
                    await engine.submit("acme", Query("T1", arrival_time=0.0))
                # Registration failures stay retryable, like lazy lanes.
                with pytest.raises(TrainingError, match="corrupt"):
                    await engine.submit("acme", Query("T1", arrival_time=0.0))

        asyncio.run(main())


# ---------------------------------------------------------------------------
# Merged metrics: counter identities mid-drain (the shard-blocked regression)
# ---------------------------------------------------------------------------


def _two_tenants_on_distinct_shards(shards: int = 2) -> tuple[str, str]:
    candidates = ["acme", "globex", "initech", "umbrella", "stark", "wayne"]
    first = candidates[0]
    for other in candidates[1:]:
        if shard_of(other, shards) != shard_of(first, shards):
            return first, other
    raise AssertionError("no shard-distinct tenant pair found")


@pytest.fixture()
def pair_service(small_templates, max_goal, tiny_config, trained_max):
    service = WiSeDBService()
    for name in _two_tenants_on_distinct_shards():
        service.register(name, small_templates, max_goal, config=tiny_config)
        tenant = service.tenant(name)
        tenant.training = trained_max
        tenant.provenance = "fresh"
    yield service
    service.close()


class TestMergedMetricsMidDrain:
    def test_snapshot_while_one_shard_is_blocked_admitting(
        self, pair_service, monkeypatch
    ):
        """Regression: merged snapshots must keep every per-tenant counter
        identity valid while one shard's credits are spent and a submitter
        is suspended on the router's credit gate — the other shard keeps
        serving."""
        blocked_tenant, healthy_tenant = _two_tenants_on_distinct_shards()
        gate = asyncio.Event()
        real_submit = ServingEngine.submit

        async def gated_submit(self, tenant, query, ticket=False):
            if tenant == blocked_tenant:
                await gate.wait()
            return await real_submit(self, tenant, query, ticket=ticket)

        # The blocked tenant's worker cannot admit, so no ack returns its
        # one credit and the overflow submit waits at the router.
        monkeypatch.setattr(ServingEngine, "submit", gated_submit)

        async def main():
            engine = ShardedServingEngine(
                pair_service, shards=2, queue_limit=1, isolation="inline"
            )
            async with engine:
                await engine.warm(blocked_tenant, healthy_tenant)
                await engine.submit(blocked_tenant, Query("T1", arrival_time=0.0))
                overflow = asyncio.ensure_future(
                    engine.submit(blocked_tenant, Query("T1", arrival_time=0.0))
                )
                for _ in range(10):  # let the overflow submit suspend
                    await asyncio.sleep(0)
                assert not overflow.done()

                await engine.submit(healthy_tenant, Query("T1", arrival_time=0.0))
                snapshot = await engine.metrics()
                for entry in snapshot.tenants:
                    entry.check_identities()
                mid = tenant_entry(snapshot, blocked_tenant)
                assert mid.submitted == 1  # the suspended one is not counted yet
                assert mid.decided == 0 and mid.in_flight == 1

                gate.set()
                await overflow
                await engine.drain()
                final = await engine.metrics()
                for entry in final.tenants:
                    entry.check_identities()
                assert tenant_entry(final, blocked_tenant).decided == 2
                assert tenant_entry(final, healthy_tenant).decided == 1

        asyncio.run(main())

    def test_snapshot_mid_epoch_over_process_shards(self, pair_service):
        """Metrics are answered from the worker's receive loop even while
        admitted queries sit in an undecided epoch (the pump's hold keeps
        the epoch open between pipe round-trips)."""
        tenant_a, tenant_b = _two_tenants_on_distinct_shards()

        async def main():
            engine = ShardedServingEngine(pair_service, shards=2)
            async with engine:
                for _ in range(3):
                    await engine.submit(tenant_a, Query("T1", arrival_time=0.0))
                await engine.submit(tenant_b, Query("T1", arrival_time=0.0))
                if engine.effective_isolation != "process":
                    pytest.skip(
                        f"process shards unavailable: {engine.fallback_reason}"
                    )
                snapshot = await engine.metrics()
                for entry in snapshot.tenants:
                    entry.check_identities()
                entry = tenant_entry(snapshot, tenant_a)
                # All three same-timestamp queries are admitted but pending:
                # the epoch stays open until a later arrival, drain, or close.
                assert entry.submitted == entry.admitted == 3
                assert entry.decided == 0 and entry.in_flight == 3
                await engine.drain()
                drained = await engine.metrics()
                assert tenant_entry(drained, tenant_a).decided == 3
                tenant_entry(drained, tenant_a).check_identities()

        asyncio.run(main())


class TestStatusParity:
    """Both transports answer status calls as the single engine does."""

    @pytest.mark.parametrize("isolation", ["inline", "process"])
    def test_calls_after_close_answer_at_once(self, pair_service, isolation):
        tenant = _two_tenants_on_distinct_shards()[0]

        async def main():
            engine = ShardedServingEngine(pair_service, shards=1, isolation=isolation)
            await engine.submit(tenant, Query("T1", arrival_time=0.0))
            await engine.close()
            snapshot = await asyncio.wait_for(engine.metrics(), timeout=5.0)
            await asyncio.wait_for(engine.drain(), timeout=5.0)
            return snapshot

        snapshot = asyncio.run(main())
        assert snapshot.status == "closed"
        tenant_entry(snapshot, tenant).check_identities()
        assert tenant_entry(snapshot, tenant).decided == 1

    @pytest.mark.parametrize("engine_kind", ["single", "inline", "process"])
    def test_a_warmed_tenant_that_admitted_nothing_has_no_outcome(
        self, pair_service, engine_kind
    ):
        """Regression: the single engine re-priced an empty lane into a
        0-cent outcome while both shard transports refused it."""
        tenant = _two_tenants_on_distinct_shards()[0]

        async def main():
            if engine_kind == "single":
                engine = ServingEngine(pair_service)
                engine.warm(tenant)
            else:
                engine = ShardedServingEngine(
                    pair_service, shards=1, isolation=engine_kind
                )
                await engine.warm(tenant)
            await engine.close()
            return engine

        engine = asyncio.run(main())
        with pytest.raises(SpecificationError, match="has no priceable outcome"):
            engine.outcome(tenant)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_mid_stream_health_matches_the_single_engine(self, pair_service, shards):
        """A held epoch is not overload: after arrivals at t=0 and t=5 and a
        pause, every engine reads the same status."""
        tenants = _two_tenants_on_distinct_shards()

        async def probe(engine):
            for arrival in (0.0, 5.0):
                for tenant in tenants:
                    await engine.submit(tenant, Query("T1", arrival_time=arrival))
            await asyncio.sleep(0.2)
            if isinstance(engine, ServingEngine):
                return engine.health()
            return (await engine.metrics()).status

        async def single():
            async with ServingEngine(pair_service) as engine:
                return await probe(engine)

        async def sharded(isolation):
            async with ShardedServingEngine(
                pair_service, shards=shards, isolation=isolation
            ) as engine:
                return await probe(engine)

        reference = asyncio.run(single())
        assert reference == "ok"
        for isolation in ("auto", "process", "inline"):
            assert asyncio.run(sharded(isolation)) == reference, isolation


class TestMergeMetricsFunction:
    def _entry(self, tenant: str, **overrides) -> TenantMetrics:
        values = dict(
            tenant=tenant,
            submitted=2,
            admitted=2,
            shed=0,
            decided=1,
            degraded=0,
            failed=0,
            queue_depth=1,
            in_flight=1,
            epochs=1,
            retrains=0,
            cache_hits=0,
            decision_p50=0.5,
            decision_p99=0.9,
        )
        values.update(overrides)
        return TenantMetrics(**values)

    def test_merge_concatenates_disjoint_tenants_verbatim(self):
        left = ServingMetrics(status="ok", tenants=(self._entry("a"),))
        right = ServingMetrics(status="degraded", tenants=(self._entry("b"),))
        merged = merge_metrics([left, right])
        assert merged.status == "degraded"
        assert [entry.tenant for entry in merged.tenants] == ["a", "b"]
        for entry in merged.tenants:
            entry.check_identities()
        assert merged.submitted == 4 and merged.decided == 2

    def test_duplicate_tenants_are_refused(self):
        snapshot = ServingMetrics(status="ok", tenants=(self._entry("a"),))
        with pytest.raises(SpecificationError, match="more than one shard"):
            merge_metrics([snapshot, snapshot])

    def test_unknown_status_is_refused(self):
        with pytest.raises(SpecificationError, match="unknown engine statuses"):
            merge_metrics([ServingMetrics(status="on-fire")])

    def test_closed_override_in_both_directions(self):
        open_snapshot = ServingMetrics(status="ok")
        closed_snapshot = ServingMetrics(status="closed")
        assert merge_metrics([open_snapshot], closed=True).status == "closed"
        assert merge_metrics([closed_snapshot], closed=False).status == "ok"
        assert merge_metrics([], closed=True).status == "closed"
        assert merge_metrics([]).status == "ok"

    def test_status_precedence_takes_the_worst(self):
        snapshots = [
            ServingMetrics(status="ok"),
            ServingMetrics(status="overloaded"),
            ServingMetrics(status="degraded"),
        ]
        assert merge_metrics(snapshots).status == "overloaded"
        snapshots.append(ServingMetrics(status="failed"))
        assert merge_metrics(snapshots).status == "failed"


# ---------------------------------------------------------------------------
# The worker protocol, driven in-process (covers the shard worker loop)
# ---------------------------------------------------------------------------


class TestWorkerProtocol:
    def test_full_session_over_a_local_pipe(self, pair_service, small_templates):
        """Register → submit_batch (multi-query epoch, one aggregated ack with
        credits) → metrics → drain → close → shutdown, with the worker loop
        running as a local task so the whole batched protocol is exercised
        without fork."""
        name = "acme"
        spec = pair_service.tenant(name).spec
        result = pair_service.train(name)
        queries = [Query("T1", arrival_time=0.0), Query("T2", arrival_time=0.0)]

        async def main():
            loop = asyncio.get_running_loop()
            parent, child = multiprocessing.Pipe()
            config = _ShardConfig(
                index=0,
                queue_limit=8,
                backpressure="block",
                wait_resolution=30.0,
                degraded_fallback=True,
            )
            worker = asyncio.ensure_future(_shard_worker_loop(child, config))

            async def recv():
                return await asyncio.wait_for(
                    loop.run_in_executor(None, parent.recv), timeout=30.0
                )

            async def request(request_id, command, payload=None):
                await loop.run_in_executor(
                    None, parent.send, (request_id, command, payload)
                )
                frame, (got_id, kind, body) = await recv()
                assert frame == "reply"
                assert got_id == request_id
                return kind, body

            try:
                kind, _ = await request(
                    1,
                    "register",
                    {
                        "name": name,
                        "spec": spec.to_dict(),
                        "training": ("result", result.to_dict()),
                    },
                )
                assert kind == "ok"
                # One fire-and-forget batch frame carrying the whole epoch,
                # with a ticket on the second query.
                groups = [(name, [(queries[0], None), (queries[1], 7)])]
                await loop.run_in_executor(
                    None, parent.send, (2, "submit_batch", groups)
                )
                frame, (seq, acks, failures) = await recv()
                assert frame == "batch_ack"
                assert seq == 2
                assert acks == [(name, 2)]  # credits for every entry, in one ack
                assert failures == []
                kind, snapshot = await request(3, "metrics")
                assert kind == "metrics"
                entry = tenant_entry(snapshot, name)
                entry.check_identities()
                assert entry.submitted == 2 and entry.decided == 0
                # Draining closes the held epoch, so the ticketed decision
                # streams back in one tickets frame around the drain reply
                # (relative order between the two frames is not part of the
                # protocol).
                await loop.run_in_executor(None, parent.send, (4, "drain", None))
                frames = dict([await recv(), await recv()])
                assert set(frames) == {"reply", "tickets"}
                got_id, kind, _body = frames["reply"]
                assert got_id == 4 and kind == "ok"
                [(ticket_id, status, decision)] = frames["tickets"]
                assert ticket_id == 7 and status == "ok"
                assert decision.tenant == name
                assert decision.template_name == "T2"
                kind, (outcomes, states, final) = await request(5, "close")
                assert kind == "closed"
                assert states[name][0] == "ok"
                await loop.run_in_executor(None, parent.send, (0, "shutdown", None))
                await asyncio.wait_for(worker, timeout=30.0)
            finally:
                parent.close()
                child.close()
            return outcomes[name]

        served = asyncio.run(main())
        direct = pair_service.online_scheduler(name).run(
            Workload(small_templates, queries)
        )
        assert _canonical(served) == _canonical(direct)

    def test_a_shipped_model_generates_its_walk_at_registration(
        self, pair_service, small_templates, monkeypatch
    ):
        """The worker compiles the shipped tree when it registers the tenant,
        so no decision of the served stream pays for walk generation."""
        generated = []
        real = model_module._generate_walk
        monkeypatch.setattr(
            model_module,
            "_generate_walk",
            lambda evaluator, *rest: generated.append(evaluator) or real(evaluator, *rest),
        )
        name = "acme"
        payload = {
            "spec": pair_service.tenant(name).spec.to_dict(),
            "training": ("result", pair_service.train(name).to_dict()),
        }
        stream = poisson_arrivals(small_templates, 12, rate=0.05, seed=3, tenant=name)
        service = _ShardService(degraded_fallback=True)
        try:
            _register_shipment(service, payload)
            assert len(generated) == 1
            assert generated == [service.train(name).model.compiled_evaluator()]
            served = service.online_scheduler(name, wait_resolution=1e9).run(stream)
            assert len(generated) == 1 and served.overhead.decisions > 0
        finally:
            service.close()
        direct = pair_service.online_scheduler(name, wait_resolution=1e9).run(stream)
        assert _canonical(served) == _canonical(direct)


# ---------------------------------------------------------------------------
# Frames per ticketed epoch: what the worker sends back, counted
# ---------------------------------------------------------------------------


class TestFramesPerEpoch:
    """A closed-loop epoch costs the worker three frames, whatever its size:
    the batch ack, one ``tickets`` frame and the drain reply."""

    @pytest.mark.parametrize("size", [1, 8, 32])
    def test_a_ticketed_epoch_comes_back_in_three_frames(
        self, pair_service, size, monkeypatch
    ):
        name = _two_tenants_on_distinct_shards()[0]
        received = []
        recv = _Channel.recv

        async def counting_recv(channel):
            frame = await recv(channel)
            received.append((channel, frame))
            return frame

        monkeypatch.setattr(_Channel, "recv", counting_recv)

        async def main():
            async with ShardedServingEngine(
                pair_service, shards=1, isolation="inline"
            ) as engine:
                await engine.warm(name)
                router_end = engine._shards[0]._channel
                per_epoch = []
                for epoch in range(3):
                    received.clear()
                    queries = [
                        Query(("T1", "T2", "T3")[index % 3], arrival_time=float(epoch))
                        for index in range(size)
                    ]
                    tickets = [
                        (await engine.submit(name, query, ticket=True)).ticket
                        for query in queries
                    ]
                    await engine.drain()
                    decisions = [await ticket.decision() for ticket in tickets]
                    assert [decision.query_id for decision in decisions] == [
                        query.query_id for query in queries
                    ]
                    per_epoch.append(
                        [frame for channel, frame in received if channel is router_end]
                    )
                return per_epoch

        for frames in asyncio.run(main()):
            assert sorted(kind for kind, _ in frames) == ["batch_ack", "reply", "tickets"]
            [entries] = [body for kind, body in frames if kind == "tickets"]
            assert len(entries) == size

    def test_a_failed_lane_fails_every_ticket_in_one_frame(self, small_templates):
        """A lane that cannot open fails the batch's tickets together, and the
        frame leaves ahead of the batch ack."""
        service = WiSeDBService()
        try:
            service.register(
                "acme",
                small_templates,
                default_goal("max", small_templates),
                config=TrainingConfig.tiny(seed=1),
            )
            spec_dict = service.tenant("acme").spec.to_dict()
        finally:
            service.close()
        queries = [Query("T1", arrival_time=0.0) for _ in range(5)]

        async def main():
            parent, child = multiprocessing.Pipe()
            config = _ShardConfig(
                index=0,
                queue_limit=8,
                backpressure="block",
                wait_resolution=30.0,
                degraded_fallback=False,
            )
            worker = asyncio.ensure_future(_shard_worker_loop(child, config))
            channel = _Channel(parent)

            async def recv():
                return await asyncio.wait_for(channel.recv(), timeout=30.0)

            try:
                error = _pickle_error(TrainingError("corrupt artifact"))
                channel.send(
                    (
                        1,
                        "register",
                        {
                            "name": "acme",
                            "spec": spec_dict,
                            "training": ("error", error),
                        },
                    )
                )
                assert await recv() == ("reply", (1, "ok", None))
                entries = [(queries[0], None)] + [
                    (query, 10 + index) for index, query in enumerate(queries[1:])
                ]
                channel.send((2, "submit_batch", [("acme", entries)]))
                first, second = await recv(), await recv()
                channel.send((0, "shutdown", None))
                await asyncio.wait_for(worker, timeout=30.0)
            finally:
                channel.close()
                parent.close()
                child.close()
            return first, second

        (kind, tickets), (ack_kind, (seq, acks, failures)) = asyncio.run(main())
        assert kind == "tickets"
        assert [ticket_id for ticket_id, _, _ in tickets] == [10, 11, 12, 13]
        assert {status for _, status, _ in tickets} == {"error"}
        assert ack_kind == "batch_ack" and seq == 2
        assert acks == [("acme", 5)]
        assert [tenant for tenant, _ in failures] == ["acme"]
