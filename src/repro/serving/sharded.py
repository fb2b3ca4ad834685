"""Sharded serving: a router in front of N shard workers.

:class:`ShardedServingEngine` partitions tenants across N *shards* by a
deterministic hash of the tenant id (:func:`shard_of` — stable across
processes and runs, unlike salted ``hash()``).  Every shard is the same
thing: a router-side :class:`_Shard` handle talking over a pipe to one
:func:`~repro.serving.worker._shard_worker_loop`, which runs a full
:class:`~repro.serving.engine.ServingEngine`.  Isolation only picks the
transport: the worker loop runs in a forked process, or (``inline``) as a
task on the router's own event loop at the far end of an in-process
socketpair.  Both speak the same frames (:mod:`repro.serving.channel`), so
they train, ship, shed and close epochs identically.

**Models ship once, through the pipe.**  The router trains each tenant once
and sends the registry's pinned ``to_dict`` round trip, tree and samples
included, in the ``register`` frame; the worker rebuilds the training result
(wait-triggered retraining reads its samples) and compiles its own decision
walk from the tree before it acknowledges.

**Admission is pipelined and batched.**  The router never pays a pipe round
trip per query: a shard's *outbox* accumulates one loop turn's submissions
and ships them as one ``submit_batch`` frame once the submitter yields
(same-tenant order preserved).  The worker answers with one ``batch_ack``
and ships the ticket resolutions its lanes made ahead of each frame it
sends, in one ``tickets`` frame, so a closed-loop epoch comes back in three
frames whatever its size.
Backpressure flows through *credits*: the router spends one per in-flight
query against the worker's ``queue_limit`` and gets them back with each ack.
``shed`` refuses at the router once a tenant's credits are spent; ``block``
suspends the submitter there until an ack returns some.

**Bit-identical for any shard count.**  Tenant lanes share no state, shipping
restores bit-identical schedulers, and each outbox is FIFO, so partitioning
cannot change any tenant's decision stream.  The equivalence suite locks
``shards ∈ {1, 2, 4}`` against ``OnlineScheduler.run`` for every goal kind
and catalogue, over both transports.

**Fallback discipline.**  Mirroring
:class:`~repro.parallel.backend.ProcessPoolBackend`, the router prefers a
``fork`` context, falls back to the platform default, and — when a worker
process cannot be started — serves over the in-process transport instead,
with the reason in :attr:`ShardedServingEngine.fallback_reason`.
``shards=1`` in auto mode uses the in-process transport too.

**Every frame leaves on the turn that sends it.**  There is no sender task:
a control request (``register``, ``metrics``, ``drain``, ``close``) ships the
outbox ahead of itself on the caller's turn, so a drain's batch and its
request leave in one write and a snapshot counts every query submitted
before it.  ``drain()`` and ``metrics()`` send every shard's request before
awaiting any reply.

**Observability and history.**  ``metrics()`` merges per-shard snapshots with
:func:`~repro.serving.metrics.merge_metrics` and stamps the router's batch
counters; after ``close()`` it answers from each worker's final snapshot.
At ``close()`` every shard prices its lanes, and the router writes all
run-history rows itself, ordered by tenant name.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import math
import multiprocessing
import warnings
from collections import deque
from contextlib import ExitStack
from dataclasses import replace

from repro.core.scheduler import SchedulingOutcome
from repro.exceptions import SpecificationError, WiSeDBError
from repro.parallel.backend import available_cpus
from repro.service.service import WiSeDBService
from repro.serving.channel import _Channel, _pickle_error, _unpickle_error
from repro.serving.engine import (
    _ADMITTED,
    Admission,
    BACKPRESSURE_POLICIES,
    ServingTicket,
)
from repro.serving.metrics import ServingMetrics, TenantMetrics, merge_metrics
from repro.serving.worker import _shard_worker_loop, _shard_worker_main, _ShardConfig
from repro.workloads.query import Query

#: How shards are hosted: ``process`` (forked workers), ``inline`` (worker
#: loops on the router's event loop), or ``auto`` (process when the platform
#: supports it and more than one shard was asked for).
ISOLATION_MODES = ("auto", "process", "inline")

#: Seconds to wait for a worker to exit after ``shutdown``.
_JOIN_TIMEOUT = 10.0


def shard_of(tenant: str, shards: int) -> int:
    """Deterministic tenant-id routing, stable across processes and runs.

    ``hash()`` is salted per process, so the router hashes the UTF-8 tenant
    name through sha256 instead — the same tenant always lands on the same
    shard, which is what keeps per-tenant arrival order (and therefore the
    decision stream) independent of the shard count.
    """
    if shards < 1:
        raise SpecificationError("shard count must be at least 1")
    digest = hashlib.sha256(tenant.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class _Shard:
    """Router-side handle on one worker: pipe, reader, outbox, and credits.

    The data path is pipelined: :meth:`submit` spends a credit, appends to
    the outbox, and returns — no pipe round trip.  The first submit of a
    turn schedules one :meth:`_ship`, which sends everything outboxed as one
    ``submit_batch`` frame under monotonically increasing sequence numbers.
    :meth:`request` ships the outbox too, then sends its control frame on
    the same turn, so no request overtakes a query submitted before it.
    The read loop matches the worker's ``batch_ack`` frames (returning
    credits, surfacing pickled lane failures as sticky per-tenant errors),
    each ``tickets`` frame's resolutions and each reply against their
    futures.

    Both directions go through one :class:`_Channel` on the router's event
    loop, so no frame costs a thread hop.  *worker* is the far end's
    runner: a process, a task on this loop (:meth:`start` makes either),
    or ``None`` when the caller drives the far end itself.
    """

    def __init__(self, index: int, config: _ShardConfig, connection, worker=None) -> None:
        self.index = index
        self.kind = "inline" if isinstance(worker, asyncio.Task) else "process"
        self._config = config
        self._connection = connection
        self._channel = _Channel(connection)
        self._worker = worker
        self._pending: dict[int, asyncio.Future] = {}
        self._tickets: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._closing = False
        self._dead: WiSeDBError | None = None
        #: The worker's last snapshot, answered by :meth:`metrics` after close.
        self._final = ServingMetrics(status="closed")
        #: tenant -> admission credits left (starts at ``queue_limit``; one
        #: spent per outboxed query, returned by the worker's batch acks).
        self._credits: dict[str, int] = {}
        self._credit_waiters: dict[str, deque] = {}
        #: tenant -> sticky lane failure reported by a batch ack.
        self._failures: dict[str, BaseException] = {}
        self._last_times: dict[str, float] = {}
        self._outbox: list[tuple[str, Query, int | None]] = []
        self._ship_due = False
        #: tenant -> queries refused by the credit gate (the worker never
        #: saw them; the router folds these into merged snapshots).
        self.shed_counts: dict[str, int] = {}
        self.batches_sent = 0
        self.batched_queries = 0
        self._loop = asyncio.get_running_loop()
        self._reader = self._loop.create_task(
            self._read_loop(), name=f"wisedb-shard-{index}-reader"
        )

    @classmethod
    def start(cls, index: int, config: _ShardConfig, context=None) -> "_Shard":
        """A shard whose worker is forked from *context*, or with
        ``context=None`` runs as a task on the running loop."""
        if context is None:
            parent_end, child_end = multiprocessing.Pipe()
            worker = asyncio.get_running_loop().create_task(
                _shard_worker_loop(child_end, config), name=f"wisedb-shard-{index}"
            )
            return cls(index, config, parent_end, worker)
        parent_end, child_end = context.Pipe()
        try:
            worker = context.Process(
                target=_shard_worker_main,
                args=(child_end, config),
                daemon=True,
                name=f"wisedb-shard-{index}",
            )
            worker.start()
        except BaseException:
            parent_end.close()
            child_end.close()
            raise
        child_end.close()
        return cls(index, config, parent_end, worker)

    # -- the read loop: replies, batch acks, tickets -------------------------------

    async def _read_loop(self) -> None:
        while True:
            try:
                kind, body = await self._channel.recv()
            except EOFError:
                break
            if kind == "reply":
                request_id, reply_kind, payload = body
                future = self._pending.pop(request_id, None)
                if future is not None and not future.done():
                    if reply_kind == "error":
                        future.set_exception(_unpickle_error(payload))
                    else:
                        future.set_result(payload)
            elif kind == "batch_ack":
                self._handle_ack(*body)
            elif kind == "tickets":
                tickets = self._tickets
                for ticket_id, status, payload in body:
                    future = tickets.pop(ticket_id, None)
                    if future is not None and not future.done():
                        if status == "ok":
                            future.set_result(payload)
                        else:
                            future.set_exception(_unpickle_error(payload))
        if not self._closing:
            self._abandon(
                WiSeDBError(f"serving shard {self.index} exited unexpectedly")
            )

    def _handle_ack(self, seq: int, acks, failures) -> None:
        for tenant, blob in failures:
            self._failures.setdefault(tenant, _unpickle_error(blob))
        for tenant, count in acks:
            credit = self._credits.get(tenant, 0) + count
            waiters = self._credit_waiters.get(tenant)
            # Wake blocked submitters FIFO; a woken waiter owns its credit.
            while waiters and credit > 0:
                waiter = waiters.popleft()
                if not waiter.done():
                    credit -= 1
                    waiter.set_result(None)
            self._credits[tenant] = credit

    def _abandon(self, error: WiSeDBError) -> None:
        self._dead = error
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        for future in self._tickets.values():
            if not future.done():
                future.set_exception(error)
        self._tickets.clear()
        for waiters in self._credit_waiters.values():
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_exception(error)
        self._credit_waiters.clear()

    def _abort(self) -> None:
        """Best-effort teardown for startup failures (no protocol)."""
        self._closing = True
        self._channel.close()
        self._connection.close()
        if self.kind == "process" and self._worker is not None:
            self._worker.terminate()  # an in-process worker exits on the EOF

    # -- sending: the outbox and control requests --------------------------------

    def _ship(self) -> None:
        """Send everything outboxed as one ``submit_batch`` frame."""
        self._ship_due = False
        outbox, self._outbox = self._outbox, []
        if not outbox:
            return
        groups: list[tuple[str, list]] = []
        for tenant, query, ticket_id in outbox:
            if groups and groups[-1][0] == tenant:
                groups[-1][1].append((query, ticket_id))
            else:
                groups.append((tenant, [(query, ticket_id)]))
        self.batches_sent += 1
        self.batched_queries += len(outbox)
        self._channel.send((next(self._ids), "submit_batch", groups))

    def request(self, command: str, payload=None) -> asyncio.Future:
        """Send one control request after the outbox, on the caller's turn.

        Returns the future of the reply's body, which fails with the
        worker's error instead if the request failed there.
        """
        if self._dead is not None:
            raise self._dead
        if self._closing:
            raise WiSeDBError(f"serving shard {self.index} is closed")
        self._ship()
        request_id = next(self._ids)
        # The future is registered only once the frame was accepted (it may
        # not pickle); no reply can arrive before the caller yields.
        self._channel.send((request_id, command, payload))
        future = self._loop.create_future()
        self._pending[request_id] = future
        return future

    def metrics(self) -> asyncio.Future:
        """The future of the worker's snapshot; its final one after close."""
        if not self._closing:
            return self.request("metrics")
        final = self._loop.create_future()
        final.set_result(self._final)
        return final

    async def register(self, payload: dict) -> None:
        await self.request("register", payload)
        self._credits.setdefault(payload["name"], self._config.queue_limit)

    # -- the data path -------------------------------------------------------------

    async def submit(
        self, tenant: str, query: Query, want_ticket: bool
    ) -> Admission:
        if self._dead is not None:
            raise self._dead
        failure = self._failures.get(tenant)
        if failure is not None:
            raise failure
        last = self._last_times.get(tenant, -math.inf)
        if query.arrival_time < last:
            raise SpecificationError(
                f"tenant {tenant!r}: arrival times must be non-decreasing "
                f"(got {query.arrival_time} after {last})"
            )
        credits = self._credits
        if credits.get(tenant, 0) <= 0:
            if self._config.backpressure == "shed":
                self.shed_counts[tenant] = self.shed_counts.get(tenant, 0) + 1
                return Admission(
                    False,
                    shed_reason=(
                        f"admission queue full "
                        f"(limit={self._config.queue_limit}) for tenant {tenant!r}"
                    ),
                )
            waiter = self._loop.create_future()
            self._credit_waiters.setdefault(tenant, deque()).append(waiter)
            await waiter  # FIFO per tenant; raises if the shard dies
        else:
            credits[tenant] -= 1
        self._last_times[tenant] = query.arrival_time
        ticket_id = None
        ticket_future = None
        if want_ticket:
            ticket_id = next(self._ids)
            ticket_future = self._loop.create_future()
            self._tickets[ticket_id] = ticket_future
        self._outbox.append((tenant, query, ticket_id))
        if not self._ship_due:
            self._ship_due = True
            self._loop.call_soon(self._ship)
        if ticket_future is not None:
            return Admission(True, ticket=ServingTicket(ticket_future))
        return _ADMITTED

    async def close(self):
        outcomes: dict[str, SchedulingOutcome] = {}
        states: dict[str, tuple[str, object]] = {}
        try:
            outcomes, states, self._final = await self.request("close")
        except WiSeDBError as error:
            warnings.warn(
                f"serving shard {self.index} lost before close: {error}",
                RuntimeWarning,
            )
        self._closing = True
        self._channel.send((0, "shutdown", None))
        # The frame is written out before the channel closes, whether or not
        # the join yields first.  Nothing the worker sends after its close
        # reply matters, so the reader stops here rather than waiting for an
        # EOF that a process forked meanwhile (holding a copy of the far end)
        # could delay.
        await self._channel.aclose()
        await self._join()
        await self._reader
        leftover = WiSeDBError(
            f"serving shard {self.index} closed before the ticket resolved"
        )
        for future in self._tickets.values():
            if not future.done():
                future.set_exception(leftover)
        self._tickets.clear()
        self._connection.close()
        return outcomes, states

    async def _join(self) -> None:
        """Wait for the worker to exit after ``shutdown``."""
        worker = self._worker
        if isinstance(worker, asyncio.Task):
            done, _ = await asyncio.wait((worker,), timeout=_JOIN_TIMEOUT)
            if not done:  # pragma: no cover - join-timeout safety
                worker.cancel()
            elif worker.exception() is not None:
                warnings.warn(
                    f"serving shard {self.index} failed: {worker.exception()!r}",
                    RuntimeWarning,
                )
        elif worker is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, worker.join, _JOIN_TIMEOUT
            )
            if worker.is_alive():  # pragma: no cover - join-timeout safety
                worker.terminate()
                worker.join(1.0)


class ShardedServingEngine:
    """A sharded serving front end with deterministic tenant routing.

    Use like the single-process engine, with one difference: ``metrics()``
    and ``health()`` are coroutines (they round-trip worker pipes).
    Per-query tickets work across shards — the worker streams decision
    frames back and the router resolves the awaited future::

        async with ShardedServingEngine(service, shards=4) as engine:
            admission = await engine.submit("acme", query, ticket=True)
            ...
            decision = await admission.ticket
            await engine.drain()
            print((await engine.metrics()).describe())
        outcome = engine.outcome("acme")   # after close: priced, unified

    Admission is pipelined and batched (see the module docstring): a frame
    carries what one loop turn submitted to its shard.

    Outcomes are bit-identical to :class:`~repro.serving.engine.ServingEngine`
    (and therefore to ``OnlineScheduler.run``) for any shard count.
    """

    def __init__(
        self,
        service: WiSeDBService,
        shards: int | None = None,
        queue_limit: int = 1024,
        backpressure: str = "block",
        wait_resolution: float = 30.0,
        isolation: str = "auto",
    ) -> None:
        if backpressure not in BACKPRESSURE_POLICIES:
            raise SpecificationError(
                f"unknown backpressure policy {backpressure!r}; "
                f"choose from {BACKPRESSURE_POLICIES}"
            )
        if queue_limit < 1:
            raise SpecificationError("queue_limit must be at least 1")
        if isolation not in ISOLATION_MODES:
            raise SpecificationError(
                f"unknown isolation mode {isolation!r}; "
                f"choose from {ISOLATION_MODES}"
            )
        if shards is None:
            shards = available_cpus()
        if shards < 1:
            raise SpecificationError("shards must be at least 1")
        self._service = service
        self._num_shards = shards
        self._queue_limit = queue_limit
        self._backpressure = backpressure
        self._wait_resolution = wait_resolution
        self._isolation = isolation
        #: Why the router degraded from process isolation (``None`` if it
        #: did not).
        self.fallback_reason: str | None = None
        self._shards: list[_Shard] = []
        self._started = False
        self._closed = False
        #: tenant -> shard index, in first-submit order (snapshot ordering).
        #: Filled once per tenant at registration, so the sha256 behind
        #: :func:`shard_of` runs exactly once per tenant lifetime.
        self._tenants: dict[str, int] = {}
        #: tenant -> shard object: the submit fast path (no list indexing).
        self._routes: dict[str, _Shard] = {}
        self._registrations: dict[str, asyncio.Task] = {}
        self._guards: dict[str, ExitStack] = {}
        self._outcomes: dict[str, SchedulingOutcome] = {}
        self._lane_states: dict[str, tuple[str, object]] = {}

    async def __aenter__(self) -> "ShardedServingEngine":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @property
    def effective_isolation(self) -> str | None:
        """``"process"`` or ``"inline"`` once started, ``None`` before."""
        if not self._started or not self._shards:
            return None
        return self._shards[0].kind

    # -- startup and fallback ------------------------------------------------------

    def _start_shards(self, context) -> list[_Shard]:
        config = _ShardConfig(
            queue_limit=self._queue_limit,
            backpressure=self._backpressure,
            wait_resolution=self._wait_resolution,
            degraded_fallback=self._service.degraded_fallback,
        )
        shards: list[_Shard] = []
        try:
            for index in range(self._num_shards):
                shards.append(_Shard.start(index, config, context))
        except BaseException:
            for shard in shards:
                shard._abort()
            raise
        return shards

    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        mode = self._isolation
        if mode == "auto":
            mode = "inline" if self._num_shards == 1 else "process"
        if mode == "process":
            try:
                try:
                    context = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - platform without fork
                    context = multiprocessing.get_context()
                self._shards = self._start_shards(context)
            except (OSError, ValueError) as error:
                # Same discipline as ProcessPoolBackend: degrade loudly to
                # the in-process transport instead of refusing to serve.
                self.fallback_reason = (
                    f"process shards unavailable ({type(error).__name__}: {error})"
                )
        if not self._shards:
            self._shards = self._start_shards(None)

    # -- registration --------------------------------------------------------------

    def _shipment(self, name: str) -> dict:
        """Train (or fail) the tenant in the router and package the shipment."""
        spec = self._service.tenant(name).spec
        try:
            result = self._service.train(name)
        except WiSeDBError as error:
            if not self._service.degraded_fallback:
                raise
            # Ship the error itself: the worker lane re-raises it at session
            # creation, producing the identical sticky degraded reason.
            return {"spec": spec.to_dict(), "training": ("error", _pickle_error(error))}
        return {"spec": spec.to_dict(), "training": ("result", result.to_dict())}

    async def _register(self, name: str) -> int:
        # The one shard_of call (one sha256) this tenant will ever pay;
        # afterwards submits hit the _routes dict directly.
        index = shard_of(name, self._num_shards)
        shard = self._shards[index]
        tenant = self._service.tenant(name)
        guard = ExitStack()
        guard.enter_context(tenant.exclusive("serving"))
        try:
            payload = {"name": name, **self._shipment(name)}
            await shard.register(payload)
        except BaseException:
            guard.close()
            raise
        self._guards[name] = guard
        self._tenants[name] = index
        self._routes[name] = shard
        return index

    async def _shard_for(self, name: str) -> _Shard:
        shard = self._routes.get(name)
        if shard is not None:
            return shard
        task = self._registrations.get(name)
        if task is None:
            task = asyncio.get_running_loop().create_task(self._register(name))
            self._registrations[name] = task
        try:
            index = await task
        except BaseException:
            # Leave failed registrations retryable, like lazy lane creation.
            if self._registrations.get(name) is task:
                del self._registrations[name]
            raise
        return self._shards[index]

    # -- serving -------------------------------------------------------------------

    async def warm(self, *tenants: str) -> None:
        """Create (and train/ship) the given tenants' lanes up front."""
        if self._closed:
            raise SpecificationError("the sharded serving engine is closed")
        self._ensure_started()
        for name in tenants:
            await self._shard_for(name)

    async def submit(self, tenant: str, query: Query, ticket: bool = False) -> Admission:
        """Offer one query to *tenant*'s shard (see :meth:`ServingEngine.submit`).

        This is pipelined: the query is credit-checked, appended to the
        shard's outbox, and the call returns without waiting for a pipe
        round trip.  With ``ticket=True`` the admission carries a
        :class:`ServingTicket` resolved by the worker's streamed decision
        frame.
        """
        if self._closed:
            raise SpecificationError("the sharded serving engine is closed")
        self._ensure_started()
        shard = self._routes.get(tenant)
        if shard is None:
            shard = await self._shard_for(tenant)
        return await shard.submit(tenant, query, ticket)

    async def drain(self) -> None:
        """Wait until every admitted query on every shard has been decided."""
        if not self._started or self._closed:
            return
        for reply in [shard.request("drain") for shard in self._shards]:
            await reply

    async def close(self) -> None:
        """Close every shard, merge outcomes, and log run history once.

        History rows are written by the router in sorted tenant order —
        deterministic regardless of shard count or per-shard close timing.
        """
        if self._closed:
            return
        self._closed = True
        outcomes: dict[str, SchedulingOutcome] = {}
        states: dict[str, tuple[str, object]] = {}
        try:
            for shard in self._shards:
                shard_outcomes, shard_states = await shard.close()
                outcomes.update(shard_outcomes)
                states.update(shard_states)
        finally:
            for guard in self._guards.values():
                guard.close()
            self._guards.clear()
        self._outcomes = outcomes
        self._lane_states = states
        for name in sorted(outcomes):
            self._service._record_history(name, outcomes[name], "serving")

    # -- observability -------------------------------------------------------------

    async def metrics(self) -> ServingMetrics:
        """Per-shard snapshots merged into one engine-wide view.

        Entries are ordered by first submission, like the single-process
        engine's lane order; every per-tenant entry is a shard lane's counters
        verbatim, so ``check_identities`` holds on each even mid-drain.
        After :meth:`close` this is each worker's final snapshot.
        """
        if not self._started:
            return ServingMetrics(status="closed" if self._closed else "ok")
        replies = [shard.metrics() for shard in self._shards]
        snapshots = [await reply for reply in replies]
        merged = merge_metrics(snapshots, closed=self._closed)
        entries = {entry.tenant: entry for entry in merged.tenants}
        # Queries the router's credit gate refused never reached a worker,
        # so fold the router-side shed counts into the per-tenant entries
        # to keep submitted == admitted + shed engine-wide.
        for shard in self._shards:
            for name, count in shard.shed_counts.items():
                entry = entries.get(name)
                if entry is None:
                    entries[name] = TenantMetrics(
                        tenant=name,
                        submitted=count,
                        admitted=0,
                        shed=count,
                        decided=0,
                        degraded=0,
                        failed=0,
                        in_flight=0,
                        epochs=0,
                        retrains=0,
                        cache_hits=0,
                        decision_p50=math.nan,
                        decision_p99=math.nan,
                    )
                else:
                    entries[name] = replace(
                        entry,
                        submitted=entry.submitted + count,
                        shed=entry.shed + count,
                    )
        order = {name: position for position, name in enumerate(self._tenants)}
        ordered = sorted(
            entries.values(),
            key=lambda entry: order.get(entry.tenant, len(order)),
        )
        return ServingMetrics(
            status=merged.status,
            tenants=tuple(ordered),
            batches_sent=sum(shard.batches_sent for shard in self._shards),
            batched_queries=sum(shard.batched_queries for shard in self._shards),
        )

    def outcome(self, tenant: str) -> SchedulingOutcome:
        """The tenant's priced outcome (after :meth:`close`); see
        :meth:`ServingEngine.outcome` for the exact semantics mirrored here."""
        if not self._closed:
            raise SpecificationError(
                "close() the engine before asking for priced outcomes"
            )
        if tenant not in self._tenants:
            raise SpecificationError(f"tenant {tenant!r} was never served")
        state, detail = self._lane_states.get(tenant, ("ok", None))
        if state == "failed":
            raise _unpickle_error(detail)
        if state == "degraded":
            raise SpecificationError(
                f"tenant {tenant!r} was served entirely degraded "
                f"({detail}); no learned outcome exists"
            )
        outcome = self._outcomes.get(tenant)
        if outcome is None:
            raise SpecificationError(
                f"tenant {tenant!r} has no priceable outcome "
                "(no queries were admitted, or its shard was lost)"
            )
        return outcome
