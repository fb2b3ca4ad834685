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

**Every frame is handled on the turn it is read.**  The receive loop
handles ``submit_batch``, ``register``, ``metrics``, ``drain`` and ``close``
inline, in arrival order, so same-tenant arrivals keep their order and the
loop creates no task: the engine's ``submit``, ``drain`` and ``close`` never
suspend.  The engine holds its epochs (``hold_epochs=True``): a frame
boundary is not the end of a burst, so an epoch closes only at the timestamp
watermark, a drain or the close, exactly as ``OnlineScheduler.run`` groups
it.  A batch is answered with one ``batch_ack`` frame that returns the
router's credits.  Ahead of every frame it sends, the worker ships each
ticket resolved since the last such frame in one ``tickets`` frame
(:class:`_TicketShipper`), so a closed-loop epoch of any size costs the
worker three frames — the ack, its tickets and the drain reply — which leave
in one write when the batch and the drain arrive together, and a lane that
cannot open fails a batch's tickets in one frame too.  Every batch that
arrived ahead of a ``metrics`` frame is admitted before the frame is
answered, so the snapshot counts every query the router shipped before it.
"""

from __future__ import annotations

import asyncio
import gc
from dataclasses import dataclass

from repro.exceptions import TrainingError
from repro.learning.trainer import TrainingResult
from repro.service.service import Tenant, TenantSpec, WiSeDBService
from repro.serving.channel import _Channel, _pickle_error, _unpickle_error
from repro.serving.engine import ServingEngine


@dataclass(frozen=True)
class _ShardConfig:
    """Engine parameters a worker needs to mirror the router's settings."""

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
    """Ticket resolutions, shipped ahead of every frame the worker sends.

    It keeps the ``(ticket_id, future)`` pair of every ticketed query the
    engine admitted.  :meth:`flush` runs before each frame the worker sends
    and ships every pair whose decision has landed since, with every ticket
    that never got a lane, as one ``tickets`` frame: no frame overtakes a
    ticket resolved before it, and an epoch's tickets travel together
    whatever its size.
    """

    def __init__(self, channel: _Channel) -> None:
        self._channel = channel
        self._waiting: list[tuple[int, asyncio.Future]] = []
        self._failed: list[tuple[int, str, object]] = []

    def track(self, ticket_id: int, future: asyncio.Future) -> None:
        """Ship this lane decision (or its failure) once it lands."""
        self._waiting.append((ticket_id, future))

    def failed(self, ticket_id: int, error: BaseException) -> None:
        """Fail a router-side ticket whose query never got a lane future."""
        self._failed.append((ticket_id, "error", _pickle_error(error)))

    def flush(self) -> None:
        """Send what was resolved since the last flush as one frame."""
        entries, self._failed = self._failed, []
        waiting = []
        for ticket_id, future in self._waiting:
            if not future.done():
                waiting.append((ticket_id, future))
            elif future.exception() is not None:
                entries.append((ticket_id, "error", _pickle_error(future.exception())))
            else:
                entries.append((ticket_id, "ok", future.result()))
        self._waiting = waiting
        if entries:
            self._channel.send(("tickets", entries))


async def _shard_worker_loop(connection, config: _ShardConfig) -> None:
    """Serve one shard over *connection* until ``shutdown`` or EOF.

    The loop owns the connection and its service: both are closed on exit.
    """
    channel = _Channel(connection)
    service = _ShardService(degraded_fallback=config.degraded_fallback)
    engine = ServingEngine(
        service,
        queue_limit=config.queue_limit,
        # Always block: the router's credit gate enforces the configured
        # policy (shed refusals happen router-side before a frame is built),
        # and a worker-side shed would desync the router's accounting.
        # Block admits every query the router spent a credit on.
        backpressure="block",
        wait_resolution=config.wait_resolution,
        log_outcomes=False,
        hold_epochs=True,
    )
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
                if ticket_id is not None:
                    tickets.track(ticket_id, admission.ticket._future)
        tickets.flush()
        channel.send(("batch_ack", (seq, acks, failures)))

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
            try:
                if command == "submit_batch":
                    await admit_batch(request_id, payload)
                elif command == "register":
                    _register_shipment(service, payload)
                    reply(request_id, "ok", None)
                elif command == "metrics":
                    reply(request_id, "metrics", engine.metrics())
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
    finally:
        try:
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
