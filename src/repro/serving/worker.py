"""The shard worker: one :class:`ServingEngine` driven by pipe frames.

Every shard of a :class:`~repro.serving.sharded.ShardedServingEngine` runs
:func:`_shard_worker_loop` at the far end of a pipe.  The loop neither knows
nor cares where it runs: in a forked process (:func:`_shard_worker_main`) or
as a task on the router's own event loop.  Either way it owns a private
:class:`_ShardService` and a full engine with its own lanes, epoch batching
and degraded fallback.

**Models are shipped, never trained here.**  The router trains each tenant
once and sends the registry's pinned ``to_dict`` round trip (which restores
bit-identical schedulers), or the pickled training error, so a degraded
lane's sticky reason matches the single-process engine's.  The pipe is the
only way a model arrives: the worker keeps the whole training result, since
wait-triggered retraining reads its samples, and compiles the tree and
generates the decision walk at registration, so no decision pays for them.

**Frames keep their order and their epochs.**  ``submit_batch``, ``drain``
and ``close`` go through one pump task, so same-tenant arrivals keep their
order even while a full queue blocks admission.  The engine holds its epochs
(``hold_epochs=True``): a frame boundary is not the end of a burst, so an
epoch closes only at the timestamp watermark, a drain or the close, exactly
as ``OnlineScheduler.run`` groups it.  A batch is answered with one
``batch_ack`` frame that returns the router's credits.  Tickets go back as
their decisions land, through future callbacks, in one ``tickets`` frame per
loop turn (:class:`_TicketShipper`): a closed-loop epoch of any size costs
the worker three frames — the ack, its tickets and the drain reply — and a
lane that cannot open fails a batch's tickets in one frame too.
``register`` and ``metrics`` are answered straight from the receive loop, so
snapshots stay available while the pump is busy, with
received-but-unadmitted queries folded in by :func:`_pending_snapshot`.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import math
from dataclasses import dataclass, replace

from repro.exceptions import TrainingError
from repro.learning.trainer import TrainingResult
from repro.service.service import Tenant, TenantSpec, WiSeDBService
from repro.serving.channel import _Channel, _pickle_error, _unpickle_error
from repro.serving.engine import ServingEngine
from repro.serving.metrics import ServingMetrics, TenantMetrics


@dataclass(frozen=True)
class _ShardConfig:
    """Engine parameters a worker needs to mirror the router's settings."""

    index: int
    queue_limit: int
    backpressure: str
    wait_resolution: float
    degraded_fallback: bool


class _ShardService(WiSeDBService):
    """Worker-side service: models are shipped in, never trained locally.

    Wait-triggered *retraining* inside a lane still runs locally through the
    tenant's generator, exactly as it does in the single-process engine.
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


def _register_shipment(service: _ShardService, payload: dict) -> None:
    """Adopt one tenant from the router's registration payload."""
    spec = TenantSpec.from_dict(payload["spec"], n_jobs=1)
    kind, blob = payload["training"]
    if kind == "error":
        service.adopt(spec, _unpickle_error(blob))
        return
    result = TrainingResult.from_dict(blob, n_jobs=1)
    result.model.compiled_evaluator()
    service.adopt(spec, result)


class _TicketShipper:
    """Ticket resolutions, shipped as one ``tickets`` frame per loop turn.

    The first resolution of a loop turn schedules :meth:`flush` for the end
    of that turn; every other resolution the turn makes joins its frame, so
    an epoch's tickets travel together whatever its size.  Every frame the
    worker sends after a resolution flushes first, so no frame overtakes a
    ticket resolved before it.
    """

    def __init__(self, channel: _Channel) -> None:
        self._channel = channel
        self._loop = asyncio.get_running_loop()
        self._entries: list[tuple[int, str, object]] = []

    def resolved(self, ticket_id: int, future) -> None:
        """Ship one lane decision or its failure (a future callback)."""
        if future.cancelled():
            self._add((ticket_id, "error", "ticket cancelled"))
            return
        error = future.exception()
        if error is not None:
            self._add((ticket_id, "error", _pickle_error(error)))
        else:
            self._add((ticket_id, "ok", future.result()))

    def failed(self, ticket_id: int, error: BaseException) -> None:
        """Fail a router-side ticket whose query never got a lane future."""
        self._add((ticket_id, "error", _pickle_error(error)))

    def _add(self, entry: tuple[int, str, object]) -> None:
        if not self._entries:
            self._loop.call_soon(self.flush)
        self._entries.append(entry)

    def flush(self) -> None:
        """Send what was resolved since the last flush as one frame."""
        if self._entries:
            entries, self._entries = self._entries, []
            self._channel.send(("tickets", entries))


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
    """Serve one shard over *connection* until ``shutdown`` or EOF.

    The loop owns the connection and its service: both are closed on exit.
    """
    loop = asyncio.get_running_loop()
    channel = _Channel(connection)
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
        log_outcomes=False,
        hold_epochs=True,
    )
    requests: asyncio.Queue = asyncio.Queue()
    #: Per-tenant queries received in batch frames but not yet admitted by
    #: the pump (maintained by the receive loop / pump pair; single thread).
    pending_admission: dict[str, int] = {}

    tickets = _TicketShipper(channel)

    def reply(request_id: int, kind: str, body) -> None:
        tickets.flush()
        channel.send(("reply", (request_id, kind, body)))

    async def admit_batch(seq: int, groups) -> None:
        acks: list[tuple[str, int]] = []
        failures: list[tuple[str, object]] = []
        for tenant, entries in groups:
            acks.append((tenant, len(entries)))
            try:
                engine.warm(tenant)
            except BaseException as error:
                pending_admission[tenant] -= len(entries)
                failures.append((tenant, _pickle_error(error)))
                for _query, ticket_id in entries:
                    if ticket_id is not None:
                        tickets.failed(ticket_id, error)
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
                        tickets.failed(ticket_id, error)
                    if not isinstance(error, Exception):
                        raise
                    continue
                finally:
                    pending_admission[tenant] -= 1
                if ticket_id is not None and admission.ticket is not None:
                    admission.ticket.add_done_callback(
                        functools.partial(tickets.resolved, ticket_id)
                    )
        tickets.flush()
        channel.send(("batch_ack", (seq, acks, failures)))

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
                    await engine.drain()
                    reply(request_id, "ok", None)
                elif command == "close":
                    await engine.close()
                    states = {
                        name: (state, _pickle_error(detail) if state == "failed" else detail)
                        for name, (state, detail) in engine.lane_states().items()
                    }
                    reply(
                        request_id,
                        "closed",
                        (engine.collect_outcomes(), states, engine.metrics()),
                    )
            except BaseException as error:
                reply(request_id, "error", _pickle_error(error))
                if not isinstance(error, Exception):
                    raise

    pump_task = loop.create_task(pump(), name=f"wisedb-shard-{config.index}-pump")
    try:
        while True:
            try:
                request_id, command, payload = await channel.recv()
            except EOFError:
                break
            if command == "shutdown":
                # Explicit, because EOF cannot be relied on: processes forked
                # later inherit duplicates of this pipe's far end, so the
                # router closing its copy does not close the channel.
                break
            if command == "register":
                try:
                    _register_shipment(service, payload)
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
        try:
            requests.put_nowait(None)
            await pump_task
            if not engine.closed:
                await engine.close()
            service.close()
        finally:
            tickets.flush()
            await channel.aclose()
            connection.close()


def _shard_worker_main(connection, config: _ShardConfig) -> None:
    """A forked worker process's entry point."""
    # The fork handed this process the router's whole heap.  Freezing it
    # keeps every full collection from walking it again: one such walk
    # stalled a decision for ~60 ms.
    gc.freeze()
    try:
        asyncio.run(_shard_worker_loop(connection, config))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover - parent gone
        pass
