"""The pipelined, batched shard-admission protocol.

The sharded router no longer pays a pipe round trip per submission: queries
are credit-checked, appended to a per-shard outbox, and shipped as one
``submit_batch`` frame per loop turn.  These tests pin the parts the
equivalence grid cannot see:

* the submissions of one turn ship as one frame, a yield ends that frame,
  and a control request ships the outbox ahead of itself on the caller's
  turn;
* batch-level credits enforce ``queue_limit`` with the ``shed`` policy
  router-side and return with acks — driven against a far end the test
  answers by hand, so an ack is provably withheld — and lane failures come
  back sticky (and resolve in-flight tickets);
* a seeded interleaving of submit groups, drains, and snapshots across two
  tenants on two shards stays bit-identical to the unbatched single-process
  engine: per-tenant FIFO outcomes, counter identities at every snapshot,
  and epoch-count parity;
* the transport under all of it: ``Connection``-framed bytes split at every
  boundary or packed several to a read, EOF inside a frame, a frame larger
  than the socket buffers, and a serving cycle that makes no executor hop.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import random
import threading

import pytest

from repro.exceptions import SpecificationError, TrainingError, WiSeDBError
from repro.service import WiSeDBService
from repro.serving import ServingEngine, ShardedServingEngine, shard_of
from repro.serving.channel import _Channel, _pickle_error
from repro.serving.metrics import ServingMetrics
from repro.serving.sharded import _Shard
from repro.serving.worker import _ShardConfig
from repro.workloads.query import Query
from oracles import tenant_entry


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


def _config(**overrides) -> _ShardConfig:
    base = dict(
        queue_limit=8,
        backpressure="block",
        wait_resolution=30.0,
        degraded_fallback=True,
    )
    base.update(overrides)
    return _ShardConfig(**base)


async def _shutdown(shard):
    """Run the close protocol against the shard's in-process worker."""
    return await asyncio.wait_for(shard.close(), timeout=30.0)


async def _drain(shard) -> None:
    await asyncio.wait_for(shard.request("drain"), timeout=30.0)


def _registration(name, pair_service) -> dict:
    spec = pair_service.tenant(name).spec
    result = pair_service.train(name)
    return {
        "name": name,
        "spec": spec.to_dict(),
        "training": ("result", result.to_dict()),
    }


# ---------------------------------------------------------------------------
# Frame coalescing
# ---------------------------------------------------------------------------


class TestFrameCoalescing:
    def test_unbounded_batch_ships_the_whole_backlog_in_one_frame(
        self, pair_service
    ):
        """Submits that never suspend all land in the outbox on one turn, and
        the drain request ships that backlog as one frame ahead of itself,
        before the caller yields."""
        name = _two_tenants_on_distinct_shards()[0]

        async def main():
            shard = _Shard.start(0, _config())
            await shard.register(_registration(name, pair_service))
            for index in range(5):
                await shard.submit(
                    name, Query("T1", arrival_time=float(index)), False
                )
            assert shard.batches_sent == 0
            draining = shard.request("drain")
            assert shard.batches_sent == 1
            assert shard.batched_queries == 5
            await asyncio.wait_for(draining, timeout=30.0)
            snapshot = await asyncio.wait_for(shard.metrics(), timeout=10.0)
            assert tenant_entry(snapshot, name).decided == 5
            await _shutdown(shard)

        asyncio.run(main())

    def test_a_yield_ends_the_frame_and_later_submits_start_a_new_one(
        self, pair_service
    ):
        name = _two_tenants_on_distinct_shards()[0]

        async def main():
            shard = _Shard.start(0, _config())
            await shard.register(_registration(name, pair_service))
            for burst, size in enumerate((3, 2)):
                for index in range(size):
                    await shard.submit(
                        name,
                        Query("T1", arrival_time=float(10 * burst + index)),
                        False,
                    )
                await asyncio.sleep(0)  # the turn's one _ship runs here
            assert shard.batches_sent == 2
            assert shard.batched_queries == 5
            await _drain(shard)
            snapshot = await asyncio.wait_for(shard.metrics(), timeout=10.0)
            tenant_entry(snapshot, name).check_identities()
            assert tenant_entry(snapshot, name).decided == 5
            await _shutdown(shard)

        asyncio.run(main())


# ---------------------------------------------------------------------------
# Credits: shed router-side, return with acks, failures come back sticky
# ---------------------------------------------------------------------------


class TestBatchCredits:
    def test_shed_policy_refuses_router_side_and_recovers_on_ack(self):
        """The far end is answered by hand and withholds its batch ack, so the
        router's credits stay spent and the overflow is shed router-side
        until the ack returns them."""
        name = "acme"

        async def main():
            parent, child = multiprocessing.Pipe()
            shard = _Shard(0, _config(queue_limit=2, backpressure="shed"), parent)
            far = _Channel(child)

            async def recv(command):
                request_id, got, payload = await asyncio.wait_for(
                    far.recv(), timeout=10.0
                )
                assert got == command
                return request_id, payload

            def reply(request_id, kind="ok", body=None):
                far.send(("reply", (request_id, kind, body)))

            try:
                registering = asyncio.ensure_future(shard.register({"name": name}))
                reply((await recv("register"))[0])
                await asyncio.wait_for(registering, timeout=10.0)
                for _ in range(2):
                    admission = await asyncio.wait_for(
                        shard.submit(name, Query("T1", arrival_time=0.0), False),
                        timeout=10.0,
                    )
                    assert admission.admitted
                # Credits exhausted and no ack sent: shed, with the same
                # reason string the single-process engine produces.
                refused = await asyncio.wait_for(
                    shard.submit(name, Query("T1", arrival_time=0.0), False),
                    timeout=10.0,
                )
                assert not refused.admitted
                assert "admission queue full (limit=2)" in refused.shed_reason
                assert shard.shed_counts == {name: 1}
                # Both queries reach the far end, in one frame or one per
                # turn, and it withholds the acks.
                acks, received = [], 0
                while received < 2:
                    seq, groups = await recv("submit_batch")
                    counts = [(tenant, len(entries)) for tenant, entries in groups]
                    acks.append((seq, counts))
                    received += sum(count for _, count in counts)
                refused = await asyncio.wait_for(
                    shard.submit(name, Query("T1", arrival_time=0.0), False),
                    timeout=10.0,
                )
                assert not refused.admitted
                assert shard.shed_counts == {name: 2}
                # The acks return the credits ahead of the drain reply.
                for seq, counts in acks:
                    far.send(("batch_ack", (seq, counts, [])))
                draining = shard.request("drain")
                reply((await recv("drain"))[0])
                await asyncio.wait_for(draining, timeout=10.0)
                admission = await asyncio.wait_for(
                    shard.submit(name, Query("T1", arrival_time=1.0), False),
                    timeout=10.0,
                )
                assert admission.admitted
                assert shard.shed_counts == {name: 2}
                closing = asyncio.ensure_future(shard.close())
                _, groups = await recv("submit_batch")  # shipped ahead of close
                assert [(tenant, len(entries)) for tenant, entries in groups] == [
                    (name, 1)
                ]
                request_id, _ = await recv("close")
                reply(request_id, "closed", ({}, {}, ServingMetrics(status="closed")))
                await asyncio.wait_for(closing, timeout=10.0)
            finally:
                far.close()
                parent.close()
                child.close()

        asyncio.run(main())

    def test_close_writes_shutdown_before_the_channel_closes(self):
        """A handle with no runner of its own (``worker=None``) joins without
        yielding, so only an explicit write puts ``shutdown`` on the pipe
        before its channel closes: the far end, answered by hand, must read
        the frame and only then the end of the pipe."""

        async def main():
            parent, child = multiprocessing.Pipe()
            shard = _Shard(0, _config(), parent)
            far = _Channel(child)
            try:
                closing = asyncio.ensure_future(shard.close())
                request_id, command, _ = await asyncio.wait_for(far.recv(), timeout=10.0)
                assert command == "close"
                far.send(
                    ("reply", (request_id, "closed", ({}, {}, ServingMetrics(status="closed"))))
                )
                assert await asyncio.wait_for(closing, timeout=10.0) == ({}, {})
                frame = await asyncio.wait_for(far.recv(), timeout=10.0)
                assert frame == (0, "shutdown", None)
                with pytest.raises(EOFError):
                    await asyncio.wait_for(far.recv(), timeout=10.0)
            finally:
                far.close()
                parent.close()
                child.close()

        asyncio.run(main())

    def test_block_policy_suspends_until_the_ack_returns_credits(
        self, pair_service
    ):
        name = _two_tenants_on_distinct_shards()[0]

        async def main():
            shard = _Shard.start(0, _config(queue_limit=1))
            await shard.register(_registration(name, pair_service))
            await shard.submit(name, Query("T1", arrival_time=0.0), False)
            # One credit exists, so the second submit must wait for the
            # worker's ack — but the worker is live, so it completes.
            second = await asyncio.wait_for(
                shard.submit(name, Query("T1", arrival_time=30.0), False),
                timeout=30.0,
            )
            assert second.admitted
            await _drain(shard)
            snapshot = await shard.metrics()
            entry = tenant_entry(snapshot, name)
            entry.check_identities()
            assert entry.decided == 2 and entry.shed == 0
            await _shutdown(shard)

        asyncio.run(main())

    def test_lane_failure_comes_back_sticky_and_fails_tickets(
        self, pair_service
    ):
        name = _two_tenants_on_distinct_shards()[0]
        spec = pair_service.tenant(name).spec

        async def main():
            shard = _Shard.start(0, _config(degraded_fallback=False))
            await shard.register(
                {
                    "name": name,
                    "spec": spec.to_dict(),
                    "training": (
                        "error",
                        _pickle_error(TrainingError("model artifact corrupt")),
                    ),
                            }
            )
            admission = await shard.submit(
                name, Query("T1", arrival_time=0.0), True
            )
            assert admission.admitted  # the failure is only known post-ack
            with pytest.raises(TrainingError, match="artifact corrupt"):
                await asyncio.wait_for(
                    admission.ticket.decision(), timeout=30.0
                )
            # The batch ack carried the failure, and frames arrive in order:
            # once a metrics reply is in, so is the ack, and it is sticky.
            await asyncio.wait_for(shard.request("metrics"), timeout=30.0)
            with pytest.raises(TrainingError, match="artifact corrupt"):
                await shard.submit(name, Query("T1", arrival_time=1.0), False)
            await _shutdown(shard)

        asyncio.run(main())

    def test_arrival_regression_raises_synchronously(self, pair_service):
        """Arrival-time monotonicity is validated router-side, before the
        query is outboxed — the error surfaces at the submit call, exactly
        like the single-process engine, not in a later ack."""
        name = _two_tenants_on_distinct_shards()[0]

        async def main():
            shard = _Shard.start(0, _config())
            await shard.register(_registration(name, pair_service))
            await shard.submit(name, Query("T1", arrival_time=10.0), False)
            with pytest.raises(SpecificationError, match="non-decreasing"):
                await shard.submit(name, Query("T1", arrival_time=5.0), False)
            await _drain(shard)
            await _shutdown(shard)

        asyncio.run(main())


# ---------------------------------------------------------------------------
# Seeded interleaving: batched path == unbatched path (satellite property)
# ---------------------------------------------------------------------------


def _script(seed: int, tenants, templates, groups: int = 24):
    """A seeded interleaving of submit groups, drains, and snapshots.

    Same-timestamp groups are emitted contiguously per tenant and every
    group strictly advances that tenant's clock — the same discipline the
    open-loop driver guarantees, and the precondition for epoch grouping to
    be deterministic on *both* engines.
    """
    rng = random.Random(seed)
    clocks = {tenant: 0.0 for tenant in tenants}
    ops = []
    for _ in range(groups):
        roll = rng.random()
        if roll < 0.10:
            ops.append(("drain",))
        elif roll < 0.22:
            ops.append(("metrics",))
        else:
            tenant = rng.choice(tenants)
            clocks[tenant] += rng.choice((30.0, 60.0, 90.0))
            # Build the Query objects once: ids come from a global counter,
            # and both engines must see the *same* queries to produce
            # bit-identical outcomes (exactly how the equivalence grid
            # replays one workload into both paths).
            batch = [
                Query(rng.choice(templates), arrival_time=clocks[tenant])
                for _ in range(rng.randint(1, 3))
            ]
            ops.append(("group", tenant, batch))
    return ops


async def _apply(engine, ops, metrics_async: bool):
    async def snapshot():
        result = (await engine.metrics()) if metrics_async else engine.metrics()
        for entry in result.tenants:
            entry.check_identities()
        return result

    for op in ops:
        if op[0] == "group":
            _, tenant, batch = op
            for query in batch:
                admission = await engine.submit(tenant, query)
                assert admission.admitted
        elif op[0] == "drain":
            await engine.drain()
        else:
            await snapshot()
    await engine.drain()
    final = await snapshot()
    await engine.close()
    return final


def _outcome_fingerprint(outcome) -> dict:
    return {
        "cost": (
            outcome.cost.startup_cost,
            outcome.cost.execution_cost,
            outcome.cost.penalty_cost,
            outcome.cost.total,
        ),
        "schedule": [
            (vm.vm_type.name, tuple(query.query_id for query in vm.queries))
            for vm in outcome.schedule
        ],
        "records": [
            (
                record.query_id,
                record.vm_index,
                record.arrival_time,
                record.start_time,
                record.completion_time,
            )
            for record in outcome.query_outcomes
        ],
        "decisions": outcome.overhead.decisions,
    }


class TestInterleavedEquivalence:
    @pytest.mark.parametrize(
        "seed,queue_limit", [(11, 1024), (23, 2), (47, 1024)]
    )
    def test_batched_path_matches_the_unbatched_engine(
        self, pair_service, seed, queue_limit
    ):
        tenants = _two_tenants_on_distinct_shards()
        ops = _script(seed, tenants, ("T1", "T2", "T3"))

        async def sharded():
            engine = ShardedServingEngine(
                pair_service,
                shards=2,
                isolation="process",
                queue_limit=queue_limit,
            )
            async with engine:
                final = await _apply(engine, ops, metrics_async=True)
                if engine.effective_isolation != "process":
                    pytest.skip(
                        f"process shards unavailable: {engine.fallback_reason}"
                    )
            return final, {
                name: _outcome_fingerprint(engine.outcome(name))
                for name in tenants
            }

        async def single():
            engine = ServingEngine(pair_service, queue_limit=queue_limit)
            final = await _apply(engine, ops, metrics_async=False)
            return final, {
                name: _outcome_fingerprint(engine.outcome(name))
                for name in tenants
            }

        batched_final, batched_outcomes = asyncio.run(sharded())
        plain_final, plain_outcomes = asyncio.run(single())

        # Per-tenant FIFO and decisions: the priced outcomes (query order,
        # placements, costs, decision counts) are bit-identical.
        assert batched_outcomes == plain_outcomes
        for name in tenants:
            batched_entry = tenant_entry(batched_final, name)
            plain_entry = tenant_entry(plain_final, name)
            assert batched_entry.submitted == plain_entry.submitted
            assert batched_entry.decided == plain_entry.decided
            assert batched_entry.shed == plain_entry.shed == 0
            # Epoch parity: batching frames must not merge or split epochs.
            assert batched_entry.epochs == plain_entry.epochs


# ---------------------------------------------------------------------------
# The transport: one thread-free channel per pipe end
# ---------------------------------------------------------------------------

MESSAGES = (
    ("reply", (1, "ok", None)),
    ("tickets", [(7, "ok", "x" * 300)]),
    ("batch_ack", (2, [("acme", 2)], [])),
)


def _wire(*messages) -> bytes:
    """*messages* exactly as a blocking ``Connection`` frames them."""
    writer, reader = multiprocessing.Pipe()
    try:
        for message in messages:
            writer.send(message)
        return os.read(reader.fileno(), 1 << 20)
    finally:
        writer.close()
        reader.close()


class TestChannel:
    def test_frames_split_at_every_byte_boundary(self):
        wire = _wire(*MESSAGES)

        async def main():
            near, far = multiprocessing.Pipe()
            channel = _Channel(near)
            try:
                for cut in range(1, len(wire)):
                    os.write(far.fileno(), wire[:cut])
                    channel._on_readable()  # reads exactly the first part
                    os.write(far.fileno(), wire[cut:])
                    got = [
                        await asyncio.wait_for(channel.recv(), timeout=10.0)
                        for _ in MESSAGES
                    ]
                    assert got == list(MESSAGES), f"split at byte {cut}"
            finally:
                channel.close()
                near.close()
                far.close()

        asyncio.run(main())

    def test_several_frames_in_one_read_and_back_to_a_blocking_end(self):
        async def main():
            near, far = multiprocessing.Pipe()
            channel = _Channel(near)
            try:
                for message in MESSAGES:
                    far.send(message)
                channel._on_readable()  # one read holds all three
                assert len(channel._frames) == len(MESSAGES)
                assert [await channel.recv() for _ in MESSAGES] == list(MESSAGES)
                # Frames sent in one loop turn reach a plain Connection intact.
                for message in MESSAGES:
                    channel.send(message)
                await asyncio.wait_for(channel.aclose(), timeout=10.0)
                assert [far.recv() for _ in MESSAGES] == list(MESSAGES)
            finally:
                channel.close()
                near.close()
                far.close()

        asyncio.run(main())

    def test_eof_mid_frame_fails_pending_futures_and_tickets(self):
        """A worker that dies halfway through a frame is a dead shard: the
        pending request and the in-flight ticket both fail with the router's
        "exited unexpectedly" error, and the partial frame is never parsed."""
        name = "acme"

        async def main():
            parent, child = multiprocessing.Pipe()
            shard = _Shard(0, _config(), parent)
            registering = asyncio.ensure_future(shard.register({"name": name}))
            request_id, command, _ = await asyncio.wait_for(
                asyncio.to_thread(child.recv), timeout=10.0
            )
            assert command == "register"
            child.send(("reply", (request_id, "ok", None)))
            await asyncio.wait_for(registering, timeout=10.0)
            admission = await shard.submit(name, Query("T1", arrival_time=0.0), True)
            pending = asyncio.ensure_future(shard.request("metrics"))
            frame = _wire(("reply", (99, "ok", None)))
            os.write(child.fileno(), frame[: len(frame) // 2])
            child.close()
            with pytest.raises(WiSeDBError, match="exited unexpectedly"):
                await asyncio.wait_for(pending, timeout=10.0)
            with pytest.raises(WiSeDBError, match="exited unexpectedly"):
                await asyncio.wait_for(admission.ticket.decision(), timeout=10.0)
            with pytest.warns(RuntimeWarning, match="lost before close"):
                await asyncio.wait_for(shard.close(), timeout=10.0)

        asyncio.run(main())

    def test_a_frame_larger_than_the_socket_buffers_round_trips(
        self, pair_service, small_templates, max_goal, tiny_config, trained_max
    ):
        """Router and worker share one loop, so a write that blocked on a
        full socket would deadlock.  A 4 MiB tenant name rides in every frame
        that names the tenant — registration, ``submit_batch``, ``batch_ack``,
        the ticket, the close reply — so both directions move frames many
        times larger than the socketpair's buffers."""
        name = "t" * (4 << 20)
        pair_service.register(name, small_templates, max_goal, config=tiny_config)
        tenant = pair_service.tenant(name)
        tenant.training = trained_max
        tenant.provenance = "fresh"

        async def main():
            shard = _Shard.start(0, _config())
            await shard.register(_registration(name, pair_service))
            admission = await shard.submit(name, Query("T1", arrival_time=0.0), True)
            await _drain(shard)
            decision = await admission.ticket.decision()
            assert decision.tenant == name
            assert shard.batches_sent == 1 and shard.batched_queries == 1
            outcomes, states = await _shutdown(shard)
            assert states[name][0] == "ok"
            assert len(outcomes[name].query_outcomes) == 1

        asyncio.run(asyncio.wait_for(main(), timeout=30.0))

    def test_a_serving_cycle_makes_no_executor_hop_and_starts_no_thread(
        self, pair_service, monkeypatch
    ):
        """Count the hops, don't time them: submit with tickets, drain and
        read the decisions through a forked process shard, and the router's
        loop never hands work to a thread."""
        name = _two_tenants_on_distinct_shards()[0]
        hops = []
        real = asyncio.BaseEventLoop.run_in_executor

        def counting(self, executor, func, *args):
            hops.append(getattr(func, "__qualname__", repr(func)))
            return real(self, executor, func, *args)

        monkeypatch.setattr(asyncio.BaseEventLoop, "run_in_executor", counting)

        async def main():
            threads = threading.active_count()
            engine = ShardedServingEngine(pair_service, shards=1, isolation="process")
            try:
                await engine.warm(name)
                if engine.effective_isolation != "process":
                    pytest.skip(f"process shards unavailable: {engine.fallback_reason}")
                for epoch in range(4):
                    tickets = [
                        (
                            await engine.submit(
                                name, Query(template, arrival_time=30.0 * epoch), ticket=True
                            )
                        ).ticket
                        for template in ("T1", "T2", "T3")
                    ]
                    await engine.drain()
                    for ticket in tickets:
                        await asyncio.wait_for(ticket.decision(), timeout=30.0)
                await engine.metrics()
                served = list(hops)
                assert threading.active_count() <= threads
            finally:
                await engine.close()
            return served

        assert asyncio.run(main()) == []
