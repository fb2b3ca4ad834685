"""Shared-memory sharded serving: one :class:`ServingEngine` per core.

:class:`ShardedServingEngine` is a router in front of N *shards*.  Tenants
are partitioned across shards by a deterministic hash of the tenant id
(:func:`shard_of` — stable across processes and runs, unlike salted
``hash()``), and each shard runs a full single-process
:class:`~repro.serving.engine.ServingEngine` — its own event loop, lanes,
epoch batching, backpressure, and degraded fallback — in a forked worker
process speaking a small request/reply protocol over a ``multiprocessing``
pipe.

**Models ship zero-copy.**  A tenant's trained model is serialized once at
registration (the registry's pinned ``to_dict``/``from_dict`` round trip,
which restores bit-identical schedulers), but the inference hot path does not
run on the round-tripped tree: the parent packs its
:class:`~repro.learning.decision_tree.CompiledTreeEvaluator` — five flat
parallel arrays — into a ``multiprocessing.shared_memory`` segment
(:mod:`repro.learning.shm`) and every worker attaches read-only views, so N
shards cost one copy of the arrays plus O(1) heap per attachment instead of
N unpickled trees.

**Admission is pipelined and batched.**  The router never pays a pipe round
trip per query: each process shard has an *outbox* that accumulates
submissions while the pipe is busy and ships them as one framed
``submit_batch`` message (same-tenant order preserved), fire-and-forget
under monotonically increasing sequence numbers.  The worker unpacks a batch
into its per-lane queues in one pass, answers with a single aggregated
``batch_ack`` frame, and streams per-query ticket resolutions as its lanes
decide them — so a sequential submitter's throughput is bounded by batch
frames, not round trips.  Backpressure flows through batch-level *credits*:
the router spends one credit per in-flight query against the worker's
``queue_limit`` and gets them back with each ack, so ``shed`` refusals and
``block`` suspensions behave exactly like the single-process engine's
full-queue admission.  A frame carries everything that queued while the
previous one was on the pipe, so batching adds no latency.

**Bit-identical for any shard count.**  Tenant lanes are fully independent
in the single-process engine — no cross-tenant state — so partitioning them
across processes cannot change any tenant's decision stream.  Shipping is
bit-identity-preserving (round-trip tests pin it; the shared evaluator *is*
the parent's arrays), and per-tenant arrival order is preserved because each
outbox is FIFO and the worker pump admits batches in sequence order.  The
equivalence suite locks ``shards ∈ {1, 2, 4}`` against
``OnlineScheduler.run`` for every goal kind and catalog.

**Fallback discipline.**  Mirroring
:class:`~repro.parallel.backend.ProcessPoolBackend`, the router prefers a
``fork`` multiprocessing context, falls back to the platform default, and —
when process spawn or shared memory is unavailable (``isolation="auto"``) —
degrades to *inline* shards: the same routing over in-process
``ServingEngine`` partitions, with the reason recorded in
:attr:`ShardedServingEngine.fallback_reason`.  ``shards=1`` in auto mode is
exactly the existing single-process engine.  This is also what makes the
whole surface testable on a 1-core CI container.

**Observability and history.**  Control frames (``metrics``, ``register``,
``drain``, ``close``) bypass the data outbox entirely, so snapshots stay
available mid-burst even when a worker is wedged deciding; the worker
answers ``metrics`` from its receive loop, folding received-but-not-yet-
admitted batch queries into the counters so the identities hold at any
point of the pipeline.  ``metrics()`` merges per-shard snapshots with
:func:`~repro.serving.metrics.merge_metrics` and stamps the router's batch
counters (frames sent, queries carried, round trips saved).  At ``close()``
every shard prices its lanes locally (with per-shard history logging
disabled) and the router writes all run-history rows itself, ordered
deterministically by tenant name.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import io
import itertools
import math
import multiprocessing
import pickle
import warnings
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker

from repro.core.scheduler import SchedulingOutcome
from repro.exceptions import SpecificationError, TrainingError, WiSeDBError
from repro.learning import shm
from repro.learning.trainer import TrainingResult
from repro.parallel.backend import available_cpus
from repro.runtime.online import OnlineOptimizations
from repro.service.service import Tenant, TenantSpec, WiSeDBService
from repro.serving.engine import (
    _ADMITTED,
    Admission,
    BACKPRESSURE_POLICIES,
    ServingEngine,
    ServingTicket,
)
from repro.serving.metrics import ServingMetrics, TenantMetrics, merge_metrics
from repro.workloads.query import Query

#: How shards are hosted: ``process`` (forked workers), ``inline``
#: (in-process engine partitions), or ``auto`` (process when the platform
#: supports it and more than one shard was asked for).
ISOLATION_MODES = ("auto", "process", "inline")

#: Seconds to wait for a worker process to exit after its pipe closes.
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


def _pickle_error(error: BaseException):
    """An exception as pipe-safe bytes (falls back to its rendering)."""
    try:
        blob = pickle.dumps(error)
        pickle.loads(blob)  # some exceptions pickle but refuse to unpickle
    except Exception:
        return f"{type(error).__name__}: {error}"
    return blob


def _unpickle_error(blob) -> BaseException:
    if isinstance(blob, bytes):
        try:
            error = pickle.loads(blob)
        except Exception:
            return WiSeDBError("shard worker failed with an unpicklable error")
        if isinstance(error, BaseException):
            return error
    if isinstance(blob, str):
        return WiSeDBError(blob)
    return WiSeDBError(f"shard worker failed: {blob!r}")


def _lane_states(engine: ServingEngine) -> dict[str, tuple[str, object]]:
    """Each lane's terminal state, for the router's ``outcome()`` semantics."""
    states: dict[str, tuple[str, object]] = {}
    for name, lane in engine._lanes.items():
        if lane.failure is not None:
            states[name] = ("failed", lane.failure)
        elif lane.session is None:
            states[name] = ("degraded", lane.degraded_reason)
        else:
            states[name] = ("ok", None)
    return states


# -- the worker side ---------------------------------------------------------------


@dataclass(frozen=True)
class _ShardConfig:
    """Engine parameters a worker needs to mirror the router's settings."""

    index: int
    queue_limit: int
    backpressure: str
    wait_resolution: float
    optimizations: OnlineOptimizations | None
    degraded_fallback: bool


class _ShardService(WiSeDBService):
    """Worker-side service: models are shipped in, never trained locally.

    The parent trains (or fails to train) each tenant once and ships the
    result — or the pickled training error, so a degraded lane's sticky
    reason string is bit-identical to the single-process engine's.  Wait-
    triggered *retraining* inside a lane still runs locally through the
    tenant's generator, exactly as it does in-process.
    """

    def __init__(self, degraded_fallback: bool) -> None:
        super().__init__(degraded_fallback=degraded_fallback)
        self._shipped: dict[str, object] = {}

    def adopt(self, spec: TenantSpec, shipped: object) -> None:
        self._tenants[spec.name] = Tenant(spec, backend_factory=lambda: self.backend)
        self._shipped[spec.name] = shipped

    def train(self, name: str, mode: str = "auto") -> TrainingResult:
        tenant = self.tenant(name)
        if tenant.training is not None:
            return tenant.training
        shipped = self._shipped.get(name)
        if isinstance(shipped, BaseException):
            raise shipped
        if not isinstance(shipped, TrainingResult):
            raise TrainingError(
                f"no training result was shipped for tenant {name!r}"
            )
        tenant.training = shipped
        tenant.provenance = "shipped"
        return shipped


def _register_shipment(
    service: _ShardService, payload: dict, attachments: list
) -> None:
    """Adopt one tenant from the router's registration payload."""
    spec = TenantSpec.from_dict(payload["spec"], n_jobs=1)
    kind, blob = payload["training"]
    if kind == "error":
        service.adopt(spec, _unpickle_error(blob))
        return
    result = TrainingResult.from_dict(blob, n_jobs=1)
    segment = payload["evaluator"]
    if segment is not None:
        evaluator, view = shm.attach_evaluator(segment)
        attachments.append(view)
        result.model.use_evaluator(evaluator)
    service.adopt(spec, result)


def _ship_ticket(connection, ticket_id: int, future) -> None:
    """Stream one resolved decision back over the pipe (future callback)."""
    if future.cancelled():
        frame = ("ticket", (ticket_id, "error", "ticket cancelled"))
    else:
        error = future.exception()
        if error is not None:
            frame = ("ticket", (ticket_id, "error", _pickle_error(error)))
        else:
            frame = ("ticket", (ticket_id, "ok", future.result()))
    try:
        connection.send(frame)
    except (OSError, ValueError):  # pragma: no cover - router gone
        pass


def _ship_ticket_error(connection, ticket_id: int, error: BaseException) -> None:
    """Resolve a router-side ticket whose query never got a lane future."""
    try:
        connection.send(("ticket", (ticket_id, "error", _pickle_error(error))))
    except (OSError, ValueError):  # pragma: no cover - router gone
        pass


def _pending_snapshot(
    engine: ServingEngine, pending_admission: dict[str, int]
) -> ServingMetrics:
    """The engine's snapshot with received-but-unadmitted batches folded in.

    ``metrics`` is answered from the receive loop so it can never starve
    behind the pump, but that means a burst the pump has not yet admitted
    would be invisible.  Queries counted here were already accepted by the
    router (credits spent, frame received), so they are *submitted*,
    *admitted*, and *in flight* — which keeps both counter identities true
    at every stage of the pipeline.
    """
    snapshot = engine.metrics()
    extra = {name: n for name, n in pending_admission.items() if n > 0}
    if not extra:
        return snapshot
    entries = []
    for entry in snapshot.tenants:
        count = extra.pop(entry.tenant, 0)
        if count:
            entry = replace(
                entry,
                submitted=entry.submitted + count,
                admitted=entry.admitted + count,
                in_flight=entry.in_flight + count,
            )
        entries.append(entry)
    for tenant, count in extra.items():
        entries.append(
            TenantMetrics(
                tenant=tenant,
                submitted=count,
                admitted=count,
                shed=0,
                decided=0,
                degraded=0,
                failed=0,
                queue_depth=0,
                in_flight=count,
                epochs=0,
                retrains=0,
                cache_hits=0,
                decision_p50=math.nan,
                decision_p99=math.nan,
            )
        )
    return ServingMetrics(status=snapshot.status, tenants=tuple(entries))


async def _shard_worker_loop(connection, config: _ShardConfig) -> None:
    """One worker: a full ServingEngine driven by pipelined pipe frames.

    Frame ordering matters: ``submit_batch``/``drain``/``close`` are funneled
    through a single pump task so same-tenant arrivals keep their order even
    when a full queue blocks admission.  ``register`` and ``metrics`` are
    answered directly from the receive loop — which is what keeps snapshots
    (and their counter identities) available while the pump is busy, with
    received-but-unadmitted batch queries folded in by
    :func:`_pending_snapshot`.  A batch is answered with ONE aggregated
    ``batch_ack`` frame (per-tenant admitted counts plus any pickled lane
    failures) that returns the router's credits; ticket resolutions stream
    back as their decisions land, via future callbacks — never a blocking
    wait in the pump.
    """
    loop = asyncio.get_running_loop()
    service = _ShardService(degraded_fallback=config.degraded_fallback)
    engine = ServingEngine(
        service,
        queue_limit=config.queue_limit,
        # Always block: the router's credit gate enforces the configured
        # policy (shed refusals happen router-side before a frame is built),
        # and credits never exceed queue_limit, so this cannot actually
        # suspend for long — but a silent worker-side shed would desync the
        # router's accounting, and block turns that impossibility into a
        # stall instead of corruption.
        backpressure="block",
        wait_resolution=config.wait_resolution,
        optimizations=config.optimizations,
        log_outcomes=False,
    )
    attachments: list = []
    requests: asyncio.Queue = asyncio.Queue()
    #: Lanes whose epoch is held open between batch frames (see pump()).
    holds: dict[str, object] = {}
    #: Per-tenant queries received in batch frames but not yet admitted by
    #: the pump (maintained by the receive loop / pump pair; single thread).
    pending_admission: dict[str, int] = {}

    def reply(request_id: int, kind: str, body) -> None:
        connection.send(("reply", (request_id, kind, body)))

    def release_holds() -> None:
        for lane in holds.values():
            lane.blocked_putters -= 1
        holds.clear()

    async def admit_batch(seq: int, groups) -> None:
        acks: list[tuple[str, int]] = []
        failures: list[tuple[str, object]] = []
        for tenant, entries in groups:
            acks.append((tenant, len(entries)))
            try:
                # Hold the lane's epoch open across batch frames.  Without a
                # blocked producer the lane worker would treat an idle queue
                # as end-of-burst and close the epoch early — splitting what
                # an in-process burst (and ``OnlineScheduler.run``) parses as
                # ONE epoch.  Pinning ``blocked_putters`` (the same signal an
                # in-process submitter blocked on a full queue emits) disables
                # only that idle flush: epochs are decided purely by the
                # timestamp watermark until drain or close, which is exactly
                # the direct run's grouping.
                lane = engine._lane(tenant)
                if tenant not in holds:
                    holds[tenant] = lane
                    lane.blocked_putters += 1
            except BaseException as error:
                pending_admission[tenant] -= len(entries)
                failures.append((tenant, _pickle_error(error)))
                for _query, ticket_id in entries:
                    if ticket_id is not None:
                        _ship_ticket_error(connection, ticket_id, error)
                if not isinstance(error, Exception):
                    raise
                continue
            for query, ticket_id in entries:
                try:
                    admission = await engine.submit(
                        tenant, query, ticket=ticket_id is not None
                    )
                except BaseException as error:
                    failures.append((tenant, _pickle_error(error)))
                    if ticket_id is not None:
                        _ship_ticket_error(connection, ticket_id, error)
                    if not isinstance(error, Exception):
                        raise
                    continue
                finally:
                    pending_admission[tenant] -= 1
                if ticket_id is not None and admission.ticket is not None:
                    admission.ticket.add_done_callback(
                        functools.partial(_ship_ticket, connection, ticket_id)
                    )
        connection.send(("batch_ack", (seq, acks, failures)))

    async def pump() -> None:
        while True:
            item = await requests.get()
            if item is None:
                return
            request_id, command, payload = item
            try:
                if command == "submit_batch":
                    await admit_batch(request_id, payload)
                elif command == "drain":
                    # Flush the epochs the holds kept open (the lane worker's
                    # own idle flush, run from here because the workers are
                    # parked on empty queues); queued leftovers are decided by
                    # the workers themselves once the join below runs them.
                    release_holds()
                    for lane in engine._lanes.values():
                        if (
                            lane.pending
                            and lane.queue.empty()
                            and lane.blocked_putters == 0
                        ):
                            engine._decide(lane)
                    await engine.drain()
                    reply(request_id, "ok", None)
                elif command == "close":
                    release_holds()
                    await engine.close()
                    outcomes = engine.collect_outcomes()
                    states = _lane_states(engine)
                    try:
                        reply(request_id, "closed", (outcomes, states))
                    except Exception as error:
                        reply(
                            request_id,
                            "closed",
                            ({}, {}, f"unshippable close payload: {error}"),
                        )
            except BaseException as error:
                reply(request_id, "error", _pickle_error(error))
                if not isinstance(error, Exception):
                    raise

    pump_task = loop.create_task(pump(), name=f"wisedb-shard-{config.index}-pump")
    try:
        while True:
            try:
                message = await loop.run_in_executor(None, connection.recv)
            except (EOFError, OSError):
                break
            request_id, command, payload = message
            if command == "shutdown":
                # Explicit, because EOF cannot be relied on: shards forked
                # later inherit duplicates of this pipe's parent end, so the
                # router closing its copy does not close the channel.
                break
            if command == "register":
                try:
                    _register_shipment(service, payload, attachments)
                except BaseException as error:
                    reply(request_id, "error", _pickle_error(error))
                else:
                    reply(request_id, "ok", None)
            elif command == "metrics":
                reply(
                    request_id,
                    "metrics",
                    _pending_snapshot(engine, pending_admission),
                )
            else:
                if command == "submit_batch":
                    # Count arrivals at receipt, before the pump runs, so a
                    # metrics answer mid-burst reflects every query the
                    # router has already spent a credit on.
                    for tenant, entries in payload:
                        pending_admission[tenant] = (
                            pending_admission.get(tenant, 0) + len(entries)
                        )
                requests.put_nowait((request_id, command, payload))
    finally:
        requests.put_nowait(None)
        await pump_task
        if not engine.closed:
            await engine.close()
        for view in attachments:
            view.close()


def _shard_worker_main(connection, config: _ShardConfig) -> None:
    try:
        asyncio.run(_shard_worker_loop(connection, config))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover - parent gone
        pass
    finally:
        try:
            connection.close()
        except OSError:  # pragma: no cover
            pass


# -- the router's shard handles ----------------------------------------------------


class _ProcessShard:
    """Router-side handle on one worker: pipe, reader, outbox, and credits.

    The data path is pipelined: :meth:`submit` spends a credit, appends to
    the outbox, and returns — no pipe round trip.  A sender task coalesces
    everything that accumulated while the pipe was busy into one framed
    ``submit_batch`` (same-tenant order preserved) under monotonically
    increasing sequence numbers; the read loop matches the worker's
    aggregated ``batch_ack`` frames (returning credits, surfacing pickled
    lane failures as sticky per-tenant errors) and streamed ``ticket``
    frames against their futures.  Control requests — ``register``,
    ``metrics``, ``drain``, ``close`` — keep the request/reply path and
    bypass the outbox, so snapshots stay available mid-burst.

    Pass ``process=None`` (with a pre-wired connection) to drive an
    in-process :func:`_shard_worker_loop` — the protocol tests do.
    """

    kind = "process"

    def __init__(
        self,
        index: int,
        config: _ShardConfig,
        connection,
        process=None,
    ) -> None:
        self.index = index
        self._config = config
        self._connection = connection
        self._process = process
        self._pending: dict[int, asyncio.Future] = {}
        self._tickets: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._send_lock = asyncio.Lock()
        #: Reused frame buffer: every outgoing frame pickles into the same
        #: preallocated ``BytesIO`` (guarded by the send lock), so the hot
        #: path never reallocates the header + payload staging area.
        self._send_buffer = io.BytesIO()
        self._closing = False
        self._dead: WiSeDBError | None = None
        #: tenant -> admission credits left (starts at ``queue_limit``; one
        #: spent per outboxed query, returned by the worker's batch acks).
        self._credits: dict[str, int] = {}
        self._credit_waiters: dict[str, deque] = {}
        #: tenant -> sticky lane failure reported by a batch ack.
        self._failures: dict[str, BaseException] = {}
        self._last_times: dict[str, float] = {}
        self._outbox: deque = deque()
        self._unacked: dict[int, int] = {}
        #: tenant -> queries refused by the credit gate (the worker never
        #: saw them; the router folds these into merged snapshots).
        self.shed_counts: dict[str, int] = {}
        self.batches_sent = 0
        self.batched_queries = 0
        loop = asyncio.get_running_loop()
        self._outbox_event = asyncio.Event()
        self._flushed = asyncio.Event()
        self._flushed.set()
        self._sender_stopping = False
        self._reader = loop.create_task(
            self._read_loop(), name=f"wisedb-shard-{index}-reader"
        )
        self._sender = loop.create_task(
            self._send_loop(), name=f"wisedb-shard-{index}-sender"
        )

    @classmethod
    def spawn(cls, index: int, context, config: _ShardConfig) -> "_ProcessShard":
        parent_end, child_end = context.Pipe()
        try:
            process = context.Process(
                target=_shard_worker_main,
                args=(child_end, config),
                daemon=True,
                name=f"wisedb-shard-{index}",
            )
            process.start()
        except BaseException:
            parent_end.close()
            child_end.close()
            raise
        child_end.close()
        return cls(index, config, parent_end, process=process)

    # -- framing -------------------------------------------------------------------

    def _encode(self, message) -> memoryview:
        buffer = self._send_buffer
        buffer.seek(0)
        buffer.truncate()
        pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(message)
        return buffer.getbuffer()

    async def _post(self, message) -> None:
        loop = asyncio.get_running_loop()
        async with self._send_lock:
            data = self._encode(message)
            try:
                await loop.run_in_executor(
                    None, self._connection.send_bytes, data
                )
            finally:
                data.release()

    # -- the read loop: replies, batch acks, ticket streams ------------------------

    async def _read_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                message = await loop.run_in_executor(None, self._connection.recv)
            except (EOFError, OSError):
                break
            kind, body = message
            if kind == "reply":
                request_id, reply_kind, payload = body
                future = self._pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result((reply_kind, payload))
            elif kind == "batch_ack":
                self._handle_ack(*body)
            elif kind == "ticket":
                ticket_id, status, payload = body
                future = self._tickets.pop(ticket_id, None)
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
        self._unacked.pop(seq, None)
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
        self._flushed.set()
        self._outbox_event.set()

    def _abort(self) -> None:
        """Best-effort teardown for startup failures (no protocol)."""
        self._closing = True
        self._sender_stopping = True
        self._outbox_event.set()
        try:
            self._connection.close()
        except OSError:  # pragma: no cover
            pass
        if self._process is not None:
            self._process.terminate()

    # -- the sender: outbox -> coalesced submit_batch frames -----------------------

    async def _send_loop(self) -> None:
        outbox = self._outbox
        while True:
            if not outbox:
                self._flushed.set()
                if self._sender_stopping:
                    return
                self._outbox_event.clear()
                await self._outbox_event.wait()
                continue
            # Everything that queued while the previous frame was on the pipe.
            count = len(outbox)
            groups: list[tuple[str, list]] = []
            for _ in range(count):
                tenant, query, ticket_id = outbox.popleft()
                if groups and groups[-1][0] == tenant:
                    groups[-1][1].append((query, ticket_id))
                else:
                    groups.append((tenant, [(query, ticket_id)]))
            seq = next(self._ids)
            self._unacked[seq] = count
            self.batches_sent += 1
            self.batched_queries += count
            try:
                await self._post((seq, "submit_batch", groups))
            except (OSError, ValueError):
                # The read loop notices the dead pipe and fails the waiters.
                self._flushed.set()
                return

    async def flush(self) -> None:
        """Wait until everything outboxed has been handed to the pipe.

        Outbox entries are already credit-approved, so this waits only on
        pipe writes — never on the worker's pump — and therefore cannot
        starve behind a wedged or slow worker (acks are not awaited).
        """
        if self._dead is not None:
            raise self._dead
        await self._flushed.wait()
        if self._dead is not None:
            raise self._dead

    # -- the control path (bypasses the outbox) ------------------------------------

    async def request(self, command: str, payload=None):
        if self._dead is not None:
            raise self._dead
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            await self._post((request_id, command, payload))
        except BaseException:
            self._pending.pop(request_id, None)
            raise
        kind, body = await future
        if kind == "error":
            raise _unpickle_error(body)
        return body

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
            waiter = asyncio.get_running_loop().create_future()
            self._credit_waiters.setdefault(tenant, deque()).append(waiter)
            await waiter  # FIFO per tenant; raises if the shard dies
        else:
            credits[tenant] -= 1
        self._last_times[tenant] = query.arrival_time
        ticket_id = None
        ticket_future = None
        if want_ticket:
            ticket_id = next(self._ids)
            ticket_future = asyncio.get_running_loop().create_future()
            self._tickets[ticket_id] = ticket_future
        self._outbox.append((tenant, query, ticket_id))
        self._flushed.clear()
        self._outbox_event.set()
        if ticket_future is not None:
            return Admission(True, ticket=ServingTicket(ticket_future))
        return _ADMITTED

    async def drain(self) -> None:
        await self.flush()
        await self.request("drain")

    async def metrics(self) -> ServingMetrics:
        # Flush first so a quiesced engine's snapshot includes everything
        # already submitted (entries are credit-approved, so this cannot
        # block on a busy worker); the metrics frame itself bypasses the
        # outbox and is answered from the worker's receive loop.
        await self.flush()
        return await self.request("metrics")

    async def close(self):
        outcomes: dict[str, SchedulingOutcome] = {}
        states: dict[str, tuple[str, object]] = {}
        try:
            await self.flush()
        except WiSeDBError:
            pass
        self._sender_stopping = True
        self._outbox_event.set()
        await self._sender
        try:
            body = await self.request("close")
            outcomes, states = body[0], body[1]
            if len(body) > 2:  # close payload could not be pickled
                warnings.warn(
                    f"serving shard {self.index}: {body[2]}", RuntimeWarning
                )
        except WiSeDBError as error:
            warnings.warn(
                f"serving shard {self.index} lost before close: {error}",
                RuntimeWarning,
            )
        self._closing = True
        loop = asyncio.get_running_loop()
        try:
            await self._post((0, "shutdown", None))
        except (OSError, ValueError):  # worker already gone
            pass
        await self._reader
        if self._process is not None:
            await loop.run_in_executor(None, self._process.join, _JOIN_TIMEOUT)
            if self._process.is_alive():  # pragma: no cover - join-timeout safety
                self._process.terminate()
                self._process.join(1.0)
        leftover = WiSeDBError(
            f"serving shard {self.index} closed before the ticket resolved"
        )
        for future in self._tickets.values():
            if not future.done():
                future.set_exception(leftover)
        self._tickets.clear()
        try:
            self._connection.close()
        except OSError:  # pragma: no cover
            pass
        return outcomes, states


class _InlineShard:
    """One in-process engine partition (the fork/shm-free fallback)."""

    kind = "inline"

    def __init__(self, index: int, engine: ServingEngine) -> None:
        self.index = index
        self.engine = engine
        # Uniform shard surface: inline shards have no pipe, so no batching
        # counters and no router-side sheds (the engine counts its own).
        self.shed_counts: dict[str, int] = {}
        self.batches_sent = 0
        self.batched_queries = 0

    async def register(self, payload: dict) -> None:
        # Inline shards share the router's service: lanes train lazily on
        # first submit through the normal single-process path.
        pass

    async def submit(
        self, tenant: str, query: Query, want_ticket: bool
    ) -> Admission:
        return await self.engine.submit(tenant, query, ticket=want_ticket)

    async def drain(self) -> None:
        await self.engine.drain()

    async def metrics(self) -> ServingMetrics:
        return self.engine.metrics()

    async def close(self):
        await self.engine.close()
        return self.engine.collect_outcomes(), _lane_states(self.engine)


# -- the router --------------------------------------------------------------------


class ShardedServingEngine:
    """A multi-process serving front end with deterministic tenant routing.

    Use like the single-process engine, with one difference: ``metrics()``
    and ``health()`` are coroutines (they round-trip worker pipes).
    Per-query tickets work across processes — the worker streams decision
    frames back and the router resolves the awaited future::

        async with ShardedServingEngine(service, shards=4) as engine:
            admission = await engine.submit("acme", query, ticket=True)
            ...
            decision = await admission.ticket
            await engine.drain()
            print((await engine.metrics()).describe())
        outcome = engine.outcome("acme")   # after close: priced, unified

    Admission to process shards is pipelined and batched (see the module
    docstring): a frame carries only what queued while the pipe was busy.

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
        optimizations: OnlineOptimizations | None = None,
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
        self._optimizations = optimizations
        self._isolation = isolation
        #: Why the router degraded from process isolation (``None`` if it
        #: did not).
        self.fallback_reason: str | None = None
        self._shards: list = []
        self._started = False
        self._closed = False
        #: tenant -> shard index, in first-submit order (snapshot ordering).
        #: Filled once per tenant at registration, so the sha256 behind
        #: :func:`shard_of` runs exactly once per tenant lifetime.
        self._tenants: dict[str, int] = {}
        #: tenant -> shard object: the submit fast path (no list indexing).
        self._routes: dict[str, object] = {}
        self._registrations: dict[str, asyncio.Task] = {}
        self._guards: dict[str, ExitStack] = {}
        self._bundles: dict[int, shm.SharedArrayBundle] = {}
        self._outcomes: dict[str, SchedulingOutcome] = {}
        self._lane_states: dict[str, tuple[str, object]] = {}

    async def __aenter__(self) -> "ShardedServingEngine":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed admission shutdown."""
        return self._closed

    @property
    def effective_isolation(self) -> str | None:
        """``"process"`` or ``"inline"`` once started, ``None`` before."""
        if not self._started or not self._shards:
            return None
        return self._shards[0].kind

    # -- startup and fallback ------------------------------------------------------

    def _engine_config(self, index: int) -> _ShardConfig:
        return _ShardConfig(
            index=index,
            queue_limit=self._queue_limit,
            backpressure=self._backpressure,
            wait_resolution=self._wait_resolution,
            optimizations=self._optimizations,
            degraded_fallback=self._service.degraded_fallback,
        )

    def _inline_shards(self) -> list:
        return [
            _InlineShard(
                index,
                ServingEngine(
                    self._service,
                    queue_limit=self._queue_limit,
                    backpressure=self._backpressure,
                    wait_resolution=self._wait_resolution,
                    optimizations=self._optimizations,
                    log_outcomes=False,
                ),
            )
            for index in range(self._num_shards)
        ]

    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        mode = self._isolation
        if mode == "auto":
            if self._num_shards == 1:
                # One shard needs no processes: this *is* the single-process
                # engine, and auto mode keeps it that way.
                mode = "inline"
            elif not shm.shared_memory_available():
                mode = "inline"
                self.fallback_reason = "shared memory unavailable"
            else:
                mode = "process"
        if mode == "process":
            try:
                try:
                    context = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - platform without fork
                    context = multiprocessing.get_context()
                # Start the tracker before forking so the workers inherit it:
                # a worker that starts its own keeps its attachments
                # registered there and reports them at exit, after the router
                # has already unlinked the segments.
                resource_tracker.ensure_running()
                shards = []
                try:
                    for index in range(self._num_shards):
                        shards.append(
                            _ProcessShard.spawn(
                                index, context, self._engine_config(index)
                            )
                        )
                except BaseException:
                    for shard in shards:
                        shard._abort()
                    raise
            except (OSError, ValueError) as error:
                # Same discipline as ProcessPoolBackend: degrade loudly to
                # the in-process path instead of refusing to serve.
                self.fallback_reason = (
                    f"process shards unavailable ({type(error).__name__}: {error})"
                )
                self._shards = self._inline_shards()
            else:
                self._shards = shards
        else:
            self._shards = self._inline_shards()

    # -- registration (process shards only) ---------------------------------------

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
            return {"spec": spec.to_dict(), "training": ("error", _pickle_error(error)), "evaluator": None}
        segment = None
        if shm.shared_memory_available():
            evaluator = result.model.compiled_evaluator()
            bundle = self._bundles.get(id(evaluator))
            if bundle is None:
                bundle = shm.pack_evaluator(evaluator)
                self._bundles[id(evaluator)] = bundle
            segment = bundle.name
        return {
            "spec": spec.to_dict(),
            "training": ("result", result.to_dict()),
            "evaluator": segment,
        }

    async def _register(self, name: str) -> int:
        # The one shard_of call (one sha256) this tenant will ever pay;
        # afterwards submits hit the _routes dict directly.
        index = shard_of(name, self._num_shards)
        shard = self._shards[index]
        if shard.kind == "inline":
            self._tenants[name] = index
            self._routes[name] = shard
            return index
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

    async def _shard_for(self, name: str):
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

        On process shards this is pipelined: the query is credit-checked,
        appended to the shard's outbox, and the call returns without waiting
        for a pipe round trip.  With ``ticket=True`` the admission carries a
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
        if not self._started:
            return
        await asyncio.gather(*(shard.drain() for shard in self._shards))

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
            for bundle in self._bundles.values():
                bundle.close()
                bundle.unlink()
            self._bundles.clear()
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
        """
        if not self._started:
            return ServingMetrics(status="closed" if self._closed else "ok")
        snapshots = await asyncio.gather(
            *(shard.metrics() for shard in self._shards)
        )
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
                        queue_depth=0,
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

    async def health(self) -> str:
        """Worst per-shard status (same precedence as the single engine)."""
        return (await self.metrics()).status

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
            error = detail if isinstance(detail, BaseException) else _unpickle_error(detail)
            raise error
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
