"""Behavior of the async serving engine: admission, backpressure, health.

Tests drive the engine inside ``asyncio.run`` from synchronous test
functions.  The service fixture injects the session-scoped trained model
directly into its tenant, so no test here pays for training.
"""

from __future__ import annotations

import asyncio
import random
from contextlib import contextmanager

import pytest

from repro.adaptive.retraining import AdaptiveModeler
from repro.exceptions import (
    ConcurrencyError,
    SpecificationError,
    TrainingError,
    UnknownTemplateError,
)
from repro.runtime.online import OnlineSession
from repro.serving import Admission, ServingEngine, ShardedServingEngine
from repro.service import WiSeDBService
from repro.sla.factory import GOAL_KINDS
from repro.workloads.query import Query
from oracles import tenant_entry


@pytest.fixture()
def service(small_templates, max_goal, tiny_config, trained_max):
    service = WiSeDBService()
    for name in ("acme", "globex"):
        service.register(name, small_templates, max_goal, config=tiny_config)
        tenant = service.tenant(name)
        tenant.training = trained_max
        tenant.provenance = "fresh"
    yield service
    service.close()


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


def _queries(count: int, arrival_time: float = 0.0, template: str = "T1"):
    return [Query(template, arrival_time=arrival_time) for _ in range(count)]


class TestAdmission:
    def test_fast_path_returns_shared_admission(self, service):
        async def main():
            async with ServingEngine(service) as engine:
                first = await engine.submit("acme", Query("T1", arrival_time=0.0))
                second = await engine.submit("acme", Query("T2", arrival_time=0.0))
                assert first is second  # the allocation-free fast path
                assert first.admitted and first.ticket is None
                await engine.drain()

        asyncio.run(main())

    def test_ticket_resolves_with_the_placement(self, service):
        async def main():
            async with ServingEngine(service) as engine:
                admission = await engine.submit(
                    "acme", Query("T3", arrival_time=0.0), ticket=True
                )
                assert isinstance(admission, Admission)
                decision = await admission.ticket.decision()
                await engine.drain()
                return decision, engine

        decision, engine = asyncio.run(main())
        assert decision.tenant == "acme"
        assert decision.template_name == "T3"
        assert decision.vm_index == 0
        assert decision.completion_time > decision.start_time
        assert not decision.degraded
        record = engine.outcome("acme").query_outcomes[0]
        assert record.vm_type_name == decision.vm_type_name
        assert record.start_time == decision.start_time

    def test_arrival_times_must_not_decrease(self, service):
        async def main():
            async with ServingEngine(service) as engine:
                await engine.submit("acme", Query("T1", arrival_time=10.0))
                with pytest.raises(SpecificationError):
                    await engine.submit("acme", Query("T1", arrival_time=5.0))
                await engine.drain()

        asyncio.run(main())

    def test_unknown_tenant_raises(self, service):
        async def main():
            async with ServingEngine(service) as engine:
                with pytest.raises(SpecificationError):
                    await engine.submit("nobody", Query("T1"))

        asyncio.run(main())

    def test_submit_after_close_raises(self, service):
        async def main():
            engine = ServingEngine(service)
            async with engine:
                await engine.submit("acme", Query("T1", arrival_time=0.0))
            with pytest.raises(SpecificationError):
                await engine.submit("acme", Query("T1", arrival_time=1.0))

        asyncio.run(main())

    def test_invalid_construction_rejected(self, service):
        with pytest.raises(SpecificationError):
            ServingEngine(service, backpressure="drop-silently")
        with pytest.raises(SpecificationError):
            ServingEngine(service, queue_limit=0)


class TestBackpressure:
    def test_shed_refuses_with_reason_when_queue_full(self, service):
        async def main():
            async with ServingEngine(
                service, queue_limit=2, backpressure="shed"
            ) as engine:
                results = [
                    await engine.submit("acme", query)
                    for query in _queries(5, arrival_time=0.0)
                ]
                shed = [r for r in results if not r.admitted]
                assert len(shed) == 3  # queue of 2 filled without yielding
                assert all("queue full" in r.shed_reason for r in shed)
                await engine.drain()
                snapshot = tenant_entry(engine.metrics(), "acme")
                assert snapshot.shed == 3
                assert snapshot.decided == 2
                snapshot.check_identities()

        asyncio.run(main())

    def test_block_preserves_the_epoch_across_queue_overflow(self, service):
        async def main():
            async with ServingEngine(
                service, queue_limit=2, backpressure="block"
            ) as engine:
                for query in _queries(7, arrival_time=0.0):
                    await engine.submit("acme", query)
                await engine.drain()
                snapshot = tenant_entry(engine.metrics(), "acme")
                assert snapshot.decided == 7
                assert snapshot.shed == 0
                # All seven shared one arrival time, so despite the queue
                # overflowing (and the submitter blocking) they form ONE epoch.
                assert snapshot.epochs == 1
                snapshot.check_identities()

        asyncio.run(main())

    def test_counter_identities_under_load(self, service):
        async def main():
            async with ServingEngine(
                service, queue_limit=3, backpressure="shed"
            ) as engine:
                for when in range(6):
                    for query in _queries(3, arrival_time=float(when)):
                        await engine.submit("acme", query)
                    for entry in engine.metrics().tenants:
                        entry.check_identities()
                await engine.drain()
                total = engine.metrics()
                assert total.submitted == 18
                admitted = sum(entry.admitted for entry in total.tenants)
                assert total.submitted == admitted + total.shed
                assert admitted == total.decided
                for entry in total.tenants:
                    entry.check_identities()

        asyncio.run(main())


class TestHealth:
    def test_ok_then_overloaded_then_closed(self, service):
        async def main():
            engine = ServingEngine(service, queue_limit=2, backpressure="shed")
            async with engine:
                assert engine.health() == "ok"
                for query in _queries(2, arrival_time=0.0):
                    await engine.submit("acme", query)
                assert engine.health() == "overloaded"  # queue at limit
                await engine.drain()
                assert engine.health() == "ok"
            assert engine.health() == "closed"
            assert engine.metrics().status == "closed"

        asyncio.run(main())

    def test_degraded_lane_is_reported(self, broken_service):
        async def main():
            async with ServingEngine(broken_service) as engine:
                await engine.submit("acme", Query("T1", arrival_time=0.0))
                await engine.drain()
                assert engine.health() == "degraded"

        asyncio.run(main())


class TestDegradedServing:
    def test_decisions_are_stamped_with_the_reason(self, broken_service):
        async def main():
            async with ServingEngine(broken_service) as engine:
                admission = await engine.submit(
                    "acme", Query("T2", arrival_time=0.0), ticket=True
                )
                decision = await admission.ticket.decision()
                await engine.submit("acme", Query("T1", arrival_time=1.0))
                await engine.drain()
                snapshot = tenant_entry(engine.metrics(), "acme")
                return decision, snapshot, engine

        decision, snapshot, engine = asyncio.run(main())
        assert decision.degraded
        assert "TrainingError" in decision.degraded_reason
        assert decision.vm_index is None  # heuristic placement, not learned
        assert snapshot.degraded == 2
        assert snapshot.decided == 2
        assert "TrainingError" in snapshot.degraded_reason
        snapshot.check_identities()
        with pytest.raises(SpecificationError):
            engine.outcome("acme")

    def test_lane_degraded_mid_stream_keeps_its_learned_placements(
        self, service, monkeypatch
    ):
        # The second epoch's retrain fails after the first epoch's queries are
        # already placed and waiting: the lane goes degraded, and the learned
        # outcome must still hold every query the learned path decided.
        def failing_retrain(self, goal):
            raise TrainingError("simulated: retrain failed")

        monkeypatch.setattr(AdaptiveModeler, "retrain", failing_retrain)
        learned = _queries(12, arrival_time=0.0, template="T3")
        fallback = _queries(2, arrival_time=45.0)

        async def main():
            async with ServingEngine(service) as engine:
                for query in learned + fallback:
                    await engine.submit("acme", query)
                await engine.drain()
                return tenant_entry(engine.metrics(), "acme"), engine

        snapshot, engine = asyncio.run(main())
        assert snapshot.decided == 14
        assert snapshot.degraded == 2
        outcome = engine.outcome("acme")
        assert outcome.degraded
        assert sorted(o.query_id for o in outcome.query_outcomes) == sorted(
            query.query_id for query in learned
        )

    def test_fallback_disabled_fails_the_lane_closed(
        self, small_templates, max_goal, tiny_config
    ):
        service = _BrokenTrainingService(degraded_fallback=False)
        service.register("acme", small_templates, max_goal, config=tiny_config)

        async def main():
            async with ServingEngine(service) as engine:
                with pytest.raises(TrainingError):
                    await engine.submit("acme", Query("T1", arrival_time=0.0))

        asyncio.run(main())
        service.close()

    def test_unservable_query_fails_the_lane(self, service):
        # The learned path rejects the unknown template and even the FFD
        # fallback cannot place it: the lane fails closed, loudly.
        async def main():
            async with ServingEngine(service) as engine:
                await engine.submit("acme", Query("NOPE", arrival_time=0.0))
                await engine.drain()
                assert engine.health() == "failed"
                snapshot = tenant_entry(engine.metrics(), "acme")
                assert snapshot.failed == 1
                assert snapshot.decided == 0
                snapshot.check_identities()
                with pytest.raises(UnknownTemplateError):
                    await engine.submit("acme", Query("T1", arrival_time=1.0))
                return engine

        engine = asyncio.run(main())
        with pytest.raises(UnknownTemplateError):
            engine.outcome("acme")


class TestMultiplexingAndGuard:
    def test_tenants_are_isolated(self, service):
        async def main():
            async with ServingEngine(service) as engine:
                for when in range(3):
                    await engine.submit("acme", Query("T1", arrival_time=float(when)))
                    await engine.submit("globex", Query("T3", arrival_time=float(when)))
                await engine.drain()
                return engine

        engine = asyncio.run(main())
        acme = engine.outcome("acme")
        globex = engine.outcome("globex")
        assert len(acme.query_outcomes) == 3
        assert len(globex.query_outcomes) == 3
        assert {r.template_name for r in acme.query_outcomes} == {"T1"}
        assert {r.template_name for r in globex.query_outcomes} == {"T3"}

    def test_served_tenant_refuses_direct_scheduling(self, service, small_workload):
        async def main():
            async with ServingEngine(service) as engine:
                await engine.submit("acme", Query("T1", arrival_time=0.0))
                await engine.drain()
                # The lane holds acme's single-writer guard: a concurrent
                # direct run is refused, not silently interleaved — and the
                # refusal is NOT absorbed by the degraded fallback.
                with pytest.raises(ConcurrencyError):
                    service.run_online("acme", small_workload)
                # Other tenants are unaffected.
                outcome = service.run_online("globex", small_workload)
                assert not outcome.degraded

        asyncio.run(main())
        # After close the guard is released and direct scheduling works again.
        outcome = service.run_online("acme", small_workload)
        assert not outcome.degraded

    def test_outcome_requires_close(self, service):
        async def main():
            async with ServingEngine(service) as engine:
                await engine.submit("acme", Query("T1", arrival_time=0.0))
                await engine.drain()
                with pytest.raises(SpecificationError):
                    engine.outcome("acme")

        asyncio.run(main())

    def test_outcome_for_unserved_tenant_raises(self, service):
        async def main():
            async with ServingEngine(service) as engine:
                await engine.submit("acme", Query("T1", arrival_time=0.0))

        asyncio.run(main())

        async def ask():
            engine = ServingEngine(service)
            await engine.close()
            with pytest.raises(SpecificationError):
                engine.outcome("globex")

        asyncio.run(ask())

    def test_warm_trains_lanes_up_front(self, service):
        async def main():
            async with ServingEngine(service) as engine:
                engine.warm("acme", "globex")
                assert len(engine.metrics().tenants) == 2
                assert tenant_entry(engine.metrics(), "globex").submitted == 0

        asyncio.run(main())


@contextmanager
def _counting(loop):
    """Count the loop's turns (``_run_once``) and ``create_task`` calls;
    counters nest, each seeing every turn and task inside it."""
    counts = {"turns": 0, "tasks": 0}
    run_once, create_task = loop._run_once, loop.create_task

    def counting_run_once():
        counts["turns"] += 1
        run_once()

    def counting_create_task(*args, **kwargs):
        counts["tasks"] += 1
        return create_task(*args, **kwargs)

    loop._run_once = counting_run_once
    loop.create_task = counting_create_task
    try:
        yield counts
    finally:
        loop._run_once, loop.create_task = run_once, create_task


async def _closed_loop_op(engine, tenant: str, queries) -> tuple[int, int, bool]:
    """Submit *queries* with tickets, drain, read the decisions; return the
    loop turns and tasks that took, and whether drain resolved every ticket."""
    with _counting(asyncio.get_running_loop()) as counts:
        tickets = [
            (await engine.submit(tenant, query, ticket=True)).ticket
            for query in queries
        ]
        await engine.drain()
        done = all(ticket._future.done() for ticket in tickets)
        decisions = [await ticket.decision() for ticket in tickets]
    assert [d.query_id for d in decisions] == [query.query_id for query in queries]
    return counts["turns"], counts["tasks"], done


class TestWorkPerOp:
    """A warm lane's closed-loop ticketed op is decided on the submitter's
    turn: it takes no loop turn and creates no task."""

    @pytest.mark.parametrize("size", [1, 8])
    def test_a_closed_loop_op_takes_no_turn_and_creates_no_task(
        self, service, size
    ):
        async def main():
            async with ServingEngine(service) as engine:
                engine.warm("acme", "globex")
                per_op = [
                    await _closed_loop_op(
                        engine, "acme", _queries(size, arrival_time=float(epoch))
                    )
                    for epoch in range(3)
                ]
                snapshot = tenant_entry(engine.metrics(), "acme")
            return per_op, snapshot

        per_op, snapshot = asyncio.run(main())
        assert per_op == [(0, 0, True)] * 3
        assert snapshot.epochs == 3 and snapshot.decided == 3 * size


class TestShardedWorkPerOp:
    """The same op through a one-shard router creates no task: the router
    sends the batch and the drain request on the submitter's turn, and the
    worker handles each frame on the turn it reads it.  The turns left are
    the pipe's: the router's write, its read and its reader's wake-up, plus
    on an inline shard the worker's read, handling and write."""

    @pytest.mark.parametrize("isolation,turns", [("process", 4), ("inline", 7)])
    @pytest.mark.parametrize("size", [1, 8])
    def test_a_sharded_closed_loop_op_creates_no_task(
        self, service, isolation, turns, size
    ):
        async def main():
            engine = ShardedServingEngine(service, shards=1, isolation=isolation)
            try:
                await engine.warm("acme")
                if engine.effective_isolation != isolation:
                    pytest.skip(f"process shards unavailable: {engine.fallback_reason}")
                with _counting(asyncio.get_running_loop()) as session:
                    per_op = [
                        await _closed_loop_op(
                            engine, "acme", _queries(size, arrival_time=float(epoch))
                        )
                        for epoch in range(3)
                    ]
                    snapshot = tenant_entry(await engine.metrics(), "acme")
            finally:
                await engine.close()
            return per_op, snapshot, session["tasks"]

        per_op, snapshot, session_tasks = asyncio.run(main())
        assert per_op == [(turns, 0, True)] * 3
        # An inline worker shares the router's loop: after start-up neither
        # creates a task, whatever frames arrive.
        assert session_tasks == 0
        assert snapshot.epochs == 3 and snapshot.decided == 3 * size


def _epoch_script(seed: int, templates, tenants=("acme", "globex"), steps: int = 40):
    """A seeded run of submits, yields and drains over *tenants*.

    A tenant's clock stays put or moves forward on each of its submits, so
    same-timestamp runs are cut by the watermark, by a yield (the idle
    flush) and by a drain in every combination.
    """
    rng = random.Random(seed)
    clocks = dict.fromkeys(tenants, 0.0)
    ops = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.15:
            ops.append(("yield",))
        elif roll < 0.22:
            ops.append(("drain",))
        else:
            tenant = rng.choice(tenants)
            if rng.random() < 0.4:
                clocks[tenant] += rng.choice((0.5, 30.0, 90.0))
            ops.append(("submit", tenant, Query(rng.choice(templates), arrival_time=clocks[tenant])))
    return ops


def _implied_epochs(ops, hold_epochs: bool) -> dict[str, list[list[Query]]]:
    """The epochs the four closing rules cut *ops* into, per tenant."""
    pending: dict[str, list[Query]] = {}
    epochs: dict[str, list[list[Query]]] = {}

    def close(tenant):
        if pending.get(tenant):
            epochs.setdefault(tenant, []).append(pending.pop(tenant))

    for op in ops:
        if op[0] == "submit":
            _, tenant, query = op
            group = pending.get(tenant)
            if group and group[-1].arrival_time != query.arrival_time:
                close(tenant)
            pending.setdefault(tenant, []).append(query)
        elif op[0] == "drain" or not hold_epochs:
            for tenant in list(pending):
                close(tenant)
    for tenant in list(pending):
        close(tenant)
    return epochs


def _fingerprint(outcome) -> tuple:
    cost = outcome.cost
    return (
        (cost.startup_cost, cost.execution_cost, cost.penalty_cost),
        [(vm.vm_type.name, [query.query_id for query in vm.queries]) for vm in outcome.schedule],
        [
            (r.query_id, r.vm_index, r.arrival_time, r.start_time, r.completion_time)
            for r in outcome.query_outcomes
        ],
        outcome.overhead.decisions,
    )


class TestEpochRule:
    @pytest.mark.parametrize("hold_epochs", [False, True])
    @pytest.mark.parametrize("seed", [5, 29])
    @pytest.mark.parametrize("kind", GOAL_KINDS)
    def test_outcomes_equal_the_scheduler_on_the_implied_epochs(
        self, small_templates, all_goals, all_trained, tiny_config, kind, seed, hold_epochs
    ):
        service = WiSeDBService()
        for name in ("acme", "globex"):
            service.register(name, small_templates, all_goals[kind], config=tiny_config)
            service.tenant(name).training = all_trained[kind]
            service.tenant(name).provenance = "fresh"
        ops = _epoch_script(seed, ("T1", "T2", "T3"))
        no_retrain = 1.0e9

        async def main():
            engine = ServingEngine(
                service, wait_resolution=no_retrain, hold_epochs=hold_epochs
            )
            async with engine:
                for op in ops:
                    if op[0] == "submit":
                        assert (await engine.submit(op[1], op[2])).admitted
                    elif op[0] == "yield":
                        await asyncio.sleep(0)
                    else:
                        await engine.drain()
                await engine.drain()
                snapshot = engine.metrics()
            return engine, snapshot

        try:
            engine, snapshot = asyncio.run(main())
            for tenant, epochs in _implied_epochs(ops, hold_epochs).items():
                session = service.online_scheduler(
                    tenant, wait_resolution=no_retrain
                ).session()
                for epoch in epochs:
                    session.submit(epoch)
                assert _fingerprint(engine.outcome(tenant)) == _fingerprint(
                    session.outcome()
                ), tenant
                entry = tenant_entry(snapshot, tenant)
                entry.check_identities()
                assert entry.epochs == len(epochs)
                assert entry.decided == sum(len(epoch) for epoch in epochs)
        finally:
            service.close()


class TestLaneFailure:
    def test_a_failed_watermark_decision_raises_from_that_submit(
        self, small_templates, max_goal, tiny_config, trained_max
    ):
        service = WiSeDBService(degraded_fallback=False)
        service.register("acme", small_templates, max_goal, config=tiny_config)
        service.tenant("acme").training = trained_max
        service.tenant("acme").provenance = "fresh"

        async def main():
            async with ServingEngine(service) as engine:
                unservable = await engine.submit(
                    "acme", Query("NOPE", arrival_time=0.0), ticket=True
                )
                with pytest.raises(UnknownTemplateError):
                    await engine.submit("acme", Query("T1", arrival_time=1.0))
                with pytest.raises(UnknownTemplateError):
                    await unservable.ticket.decision()
                assert engine.health() == "failed"
                return tenant_entry(engine.metrics(), "acme")

        try:
            entry = asyncio.run(main())
        finally:
            service.close()
        # The t=1 query was refused, not admitted: only the epoch it closed
        # counts, as failed.
        assert (entry.submitted, entry.admitted, entry.failed) == (1, 1, 1)
        assert entry.decided == entry.in_flight == 0
        entry.check_identities()

    def test_an_error_in_the_idle_flush_fails_the_lane_not_the_loop(
        self, service, monkeypatch
    ):
        def broken_submit(self, arrivals):
            raise RuntimeError("simulated: decision bug")

        monkeypatch.setattr(OnlineSession, "submit", broken_submit)
        handled = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, context: handled.append(context))
            async with ServingEngine(service) as engine:
                admissions = [
                    await engine.submit("acme", query, ticket=True)
                    for query in _queries(3, arrival_time=0.0)
                ]
                await asyncio.sleep(0)  # the idle flush runs here
                assert all(a.ticket._future.done() for a in admissions)
                for admission in admissions:
                    with pytest.raises(RuntimeError, match="decision bug"):
                        await admission.ticket.decision()
                assert engine.health() == "failed"
                with pytest.raises(RuntimeError, match="decision bug"):
                    await engine.submit("acme", Query("T1", arrival_time=1.0))
                return tenant_entry(engine.metrics(), "acme")

        entry = asyncio.run(main())
        assert handled == []
        assert (entry.submitted, entry.failed, entry.decided) == (3, 3, 0)
        entry.check_identities()
