"""The asyncio serving front end over a :class:`~repro.service.WiSeDBService`.

:class:`ServingEngine` turns the call-into-it service into a long-lived
endpoint: many tenants are multiplexed over one event loop, each behind a
*lane* — a bounded admission queue, a worker task, and an incremental
:class:`~repro.runtime.online.OnlineSession` holding that tenant's online
scheduler state.  The design commitments:

**Epoch batching is preserved.**  The worker coalesces same-timestamp
arrivals back into one scheduling epoch (PR 3 semantics) before calling
``session.submit``: a pending epoch is decided when a later-timestamped query
arrives (the watermark), when the queue empties with no producer blocked on
admission (the eager path that keeps interactive latency low), at drain, or
at close.  A shard worker, whose queries arrive in pipe frames, turns the
eager path off (``hold_epochs=True``) so a frame boundary never splits an
epoch; its epochs then close only at the watermark, drain, or close.
Because ``OnlineScheduler.run`` is itself implemented over the same session
type, a lane's decisions and final costs are **bit-identical** to feeding the
equivalent workload straight into the scheduler — the serving equivalence
suite locks this for every goal kind and catalog.

**Backpressure is explicit.**  When a lane's admission queue is full,
``backpressure="block"`` suspends the submitter until the worker catches up
(open-loop drivers then record the delay as decision latency), while
``backpressure="shed"`` refuses the query immediately with a reason and
counts it — nothing is dropped silently.

**Failures degrade, loudly.**  If a lane's learned path fails (model
missing, training error, a placement the model cannot express), the lane
flips sticky-degraded: every subsequent epoch is served by the model-free FFD
heuristic and stamped with the triggering error, mirroring the service's
``degraded_fallback`` contract.  With the fallback disabled the lane fails
closed instead and re-raises on the next submit.

**One writer per tenant.**  A lane holds its tenant's single-writer guard for
its whole lifetime, so a concurrent ``service.run_online`` against an
actively served tenant raises :class:`~repro.exceptions.ConcurrencyError`
instead of interleaving online state.
"""

from __future__ import annotations

import asyncio
import math
import time
from contextlib import ExitStack
from dataclasses import dataclass, replace

from repro.baselines.first_fit import FirstFitDecreasingScheduler
from repro.core.scheduler import SchedulingOutcome
from repro.exceptions import SpecificationError, WiSeDBError
from repro.runtime.online import OnlineOptimizations, OnlineSession
from repro.service.service import Tenant, WiSeDBService
from repro.serving.metrics import ServingMetrics, TenantMetrics, percentile
from repro.workloads.query import Query
from repro.workloads.workload import Workload

#: Queue sentinel asking a lane worker to flush its pending epoch and exit.
_CLOSE = object()

#: Per-lane decision-latency window; halved when it overflows so snapshots
#: reflect recent behavior without unbounded growth.
_LATENCY_WINDOW = 200_000

#: Backpressure policies: suspend the submitter vs. refuse with a reason.
BACKPRESSURE_POLICIES = ("block", "shed")


@dataclass(frozen=True)
class ServingDecision:
    """One query's answer: where it runs, decided at which epoch.

    Degraded decisions (served by the FFD fallback) carry ``degraded=True``
    and the sticky lane reason; their VM placement fields are ``None``
    because the heuristic's bin choice is not part of the learned schedule.
    """

    tenant: str
    query_id: int
    template_name: str
    epoch_time: float
    latency_seconds: float
    vm_index: int | None = None
    vm_type_name: str | None = None
    start_time: float | None = None
    completion_time: float | None = None
    degraded: bool = False
    degraded_reason: str | None = None


class ServingTicket:
    """An awaitable handle on one submitted query's decision."""

    __slots__ = ("_future",)

    def __init__(self, future: asyncio.Future) -> None:
        self._future = future

    def done(self) -> bool:
        """Whether the decision has been made."""
        return self._future.done()

    def add_done_callback(self, fn) -> None:
        """Schedule ``fn(future)`` on the loop once the decision resolves.

        The callback receives the underlying future (result: the
        :class:`ServingDecision`; or the lane's failure as its exception).
        This is how the sharded worker streams ticket resolutions back over
        the pipe without parking one task per in-flight query.
        """
        self._future.add_done_callback(fn)

    async def decision(self) -> ServingDecision:
        """Wait for (and return) the decision for this query."""
        return await self._future


@dataclass(frozen=True)
class Admission:
    """The immediate result of :meth:`ServingEngine.submit`."""

    admitted: bool
    shed_reason: str | None = None
    ticket: ServingTicket | None = None


#: Shared fast-path result: admitted, no ticket requested.
_ADMITTED = Admission(True)


class _TenantLane:
    """One tenant's admission queue, worker, session, and counters."""

    __slots__ = (
        "name",
        "tenant",
        "session",
        "queue",
        "pending",
        "pending_time",
        "blocked_putters",
        "held",
        "last_submitted_time",
        "submitted",
        "admitted",
        "shed",
        "decided",
        "degraded",
        "failed",
        "degraded_epochs",
        "latencies",
        "degraded_reason",
        "failure",
        "worker",
        "guard",
        "outcome",
    )

    def __init__(
        self,
        name: str,
        tenant: Tenant,
        session: OnlineSession | None,
        queue_limit: int,
        guard: ExitStack,
    ) -> None:
        self.name = name
        self.tenant = tenant
        self.session = session
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self.pending: list[tuple] = []
        self.pending_time = -math.inf
        self.blocked_putters = 0
        #: Whether the idle flush is off for this lane (``hold_epochs``);
        #: unlike a blocked producer, a hold is not overload.
        self.held = False
        self.last_submitted_time = -math.inf
        self.submitted = 0
        self.admitted = 0
        self.shed = 0
        self.decided = 0
        self.degraded = 0
        self.failed = 0
        self.degraded_epochs = 0
        self.latencies: list[float] = []
        self.degraded_reason: str | None = None
        self.failure: WiSeDBError | None = None
        self.worker: asyncio.Task | None = None
        self.guard = guard
        #: The priced outcome, computed once at close and reused afterwards.
        self.outcome: SchedulingOutcome | None = None

    @property
    def in_flight(self) -> int:
        return self.queue.qsize() + len(self.pending)

    @property
    def epochs(self) -> int:
        learned = self.session.epochs if self.session is not None else 0
        return learned + self.degraded_epochs


class ServingEngine:
    """An async, multi-tenant, backpressured front end over a service.

    Use as an async context manager::

        async with ServingEngine(service) as engine:
            await engine.submit("acme", query)
            ...
            await engine.drain()
            print(engine.metrics().describe())
        outcome = engine.outcome("acme")   # after close: priced, unified

    Lanes are created lazily on a tenant's first submit (training the model
    on demand through the service's registry path); pass ``warm`` tenant
    names to pay that cost up front instead of on the first request.
    """

    def __init__(
        self,
        service: WiSeDBService,
        queue_limit: int = 1024,
        backpressure: str = "block",
        wait_resolution: float = 30.0,
        optimizations: OnlineOptimizations | None = None,
        log_outcomes: bool = True,
        hold_epochs: bool = False,
    ) -> None:
        if backpressure not in BACKPRESSURE_POLICIES:
            raise SpecificationError(
                f"unknown backpressure policy {backpressure!r}; "
                f"choose from {BACKPRESSURE_POLICIES}"
            )
        if queue_limit < 1:
            raise SpecificationError("queue_limit must be at least 1")
        self._service = service
        self._queue_limit = queue_limit
        self._backpressure = backpressure
        self._wait_resolution = wait_resolution
        self._optimizations = optimizations
        #: When False, close() still prices every lane but leaves run-history
        #: logging to the caller — the sharded front end sets this on its
        #: per-shard engines so history is written once, in a deterministic
        #: order, by the router.
        self._log_outcomes = log_outcomes
        #: When True, an idle queue does not close the pending epoch: only a
        #: later timestamp, :meth:`drain` or :meth:`close` does.  The shard
        #: worker sets this, since its queries arrive frame by frame.
        self._hold_epochs = hold_epochs
        self._lanes: dict[str, _TenantLane] = {}
        self._closed = False

    async def __aenter__(self) -> "ServingEngine":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- lane lifecycle ----------------------------------------------------------------

    def warm(self, *tenants: str) -> None:
        """Create (and train) the given tenants' lanes up front."""
        for name in tenants:
            self._lane(name)

    def _lane(self, name: str) -> _TenantLane:
        lane = self._lanes.get(name)
        if lane is not None:
            return lane
        tenant = self._service.tenant(name)
        guard = ExitStack()
        guard.enter_context(tenant.exclusive("serving"))
        try:
            session: OnlineSession | None
            reason = None
            try:
                scheduler = self._service.online_scheduler(
                    name,
                    optimizations=self._optimizations,
                    wait_resolution=self._wait_resolution,
                )
                session = scheduler.session()
            except WiSeDBError as error:
                if not self._service.degraded_fallback:
                    raise
                session = None
                reason = f"{type(error).__name__}: {error}"
        except BaseException:
            guard.close()
            raise
        lane = _TenantLane(name, tenant, session, self._queue_limit, guard)
        lane.degraded_reason = reason
        lane.held = self._hold_epochs
        lane.worker = asyncio.get_running_loop().create_task(
            self._worker(lane), name=f"wisedb-serving-{name}"
        )
        self._lanes[name] = lane
        return lane

    # -- admission ----------------------------------------------------------------------

    async def submit(
        self, tenant: str, query: Query, ticket: bool = False
    ) -> Admission:
        """Offer one query to *tenant*'s lane.

        Returns an :class:`Admission`: admitted (optionally with an awaitable
        :class:`ServingTicket` when ``ticket=True``), or shed with a reason
        under the ``shed`` backpressure policy.  Arrival times must be
        non-decreasing per tenant; a failed lane re-raises its error.
        """
        if self._closed:
            raise SpecificationError("the serving engine is closed")
        lane = self._lane(tenant)
        if lane.failure is not None:
            raise lane.failure
        if query.arrival_time < lane.last_submitted_time:
            raise SpecificationError(
                f"tenant {tenant!r}: arrival times must be non-decreasing "
                f"(got {query.arrival_time} after {lane.last_submitted_time})"
            )
        future = asyncio.get_running_loop().create_future() if ticket else None
        item = (query, time.perf_counter(), future)
        queue = lane.queue
        if queue.full():
            if self._backpressure == "shed":
                lane.submitted += 1
                lane.shed += 1
                return Admission(
                    False,
                    shed_reason=(
                        f"admission queue full "
                        f"(limit={self._queue_limit}) for tenant {tenant!r}"
                    ),
                )
            # Block: suspend this submitter until the worker catches up.  The
            # worker will not close a same-timestamp epoch while we are
            # suspended here (it checks ``blocked_putters``), so a burst that
            # overflows the queue still lands in one epoch.
            lane.blocked_putters += 1
            try:
                await queue.put(item)
            finally:
                lane.blocked_putters -= 1
        else:
            queue.put_nowait(item)
        lane.submitted += 1
        lane.admitted += 1
        lane.last_submitted_time = query.arrival_time
        if future is not None:
            return Admission(True, ticket=ServingTicket(future))
        return _ADMITTED

    # -- the lane worker ----------------------------------------------------------------

    async def _worker(self, lane: _TenantLane) -> None:
        queue = lane.queue
        while True:
            item = await queue.get()
            closing = item is _CLOSE
            if not closing:
                self._absorb(lane, item)
            # Drain whatever else is already queued without yielding: a burst
            # enqueued back-to-back is parsed as one batch of epochs.
            while True:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _CLOSE:
                    closing = True
                    continue
                self._absorb(lane, extra)
            if lane.pending and (
                closing
                or (queue.empty() and lane.blocked_putters == 0 and not lane.held)
            ):
                self._decide(lane)
            if closing:
                queue.task_done()
                return

    def _absorb(self, lane: _TenantLane, item: tuple) -> None:
        """Fold one admitted item into the pending epoch (watermark flush)."""
        query = item[0]
        if lane.pending and query.arrival_time != lane.pending_time:
            self._decide(lane)
        lane.pending.append(item)
        lane.pending_time = query.arrival_time

    def _decide(self, lane: _TenantLane) -> None:
        """Decide the pending epoch through the learned (or degraded) path."""
        group = lane.pending
        lane.pending = []
        queries = [item[0] for item in group]
        if lane.degraded_reason is not None:
            self._decide_degraded(lane, group, queries)
            return
        try:
            decision = lane.session.submit(queries)
        except WiSeDBError as error:
            if not self._service.degraded_fallback:
                self._fail(lane, group, error)
                return
            lane.degraded_reason = f"{type(error).__name__}: {error}"
            self._decide_degraded(lane, group, queries)
            return
        decided_at = time.perf_counter()
        lane.decided += len(group)
        self._record(lane, group, decided_at)
        for query, _, future in group:
            if future is not None and not future.cancelled():
                placement = decision.placement_for(query.query_id)
                future.set_result(
                    ServingDecision(
                        tenant=lane.name,
                        query_id=query.query_id,
                        template_name=query.template_name,
                        epoch_time=decision.epoch_time,
                        latency_seconds=lane.latencies[-1],
                        vm_index=placement.vm_index,
                        vm_type_name=placement.vm_type_name,
                        start_time=placement.start_time,
                        completion_time=placement.completion_time,
                    )
                )
            lane.queue.task_done()

    def _decide_degraded(
        self, lane: _TenantLane, group: list[tuple], queries: list[Query]
    ) -> None:
        spec = lane.tenant.spec
        try:
            FirstFitDecreasingScheduler(
                vm_type=spec.vm_types.default,
                goal=spec.goal,
                latency_model=spec.resolved_latency_model(),
            ).schedule(Workload(spec.templates, queries))
        except WiSeDBError as error:
            self._fail(lane, group, error)
            return
        decided_at = time.perf_counter()
        lane.decided += len(group)
        lane.degraded += len(group)
        lane.degraded_epochs += 1
        self._record(lane, group, decided_at)
        epoch_time = queries[0].arrival_time
        for query, _, future in group:
            if future is not None and not future.cancelled():
                future.set_result(
                    ServingDecision(
                        tenant=lane.name,
                        query_id=query.query_id,
                        template_name=query.template_name,
                        epoch_time=epoch_time,
                        latency_seconds=lane.latencies[-1],
                        degraded=True,
                        degraded_reason=lane.degraded_reason,
                    )
                )
            lane.queue.task_done()

    def _fail(
        self, lane: _TenantLane, group: list[tuple], error: WiSeDBError
    ) -> None:
        """Fail the lane closed: refuse this epoch, re-raise on later submits."""
        lane.failure = error
        lane.failed += len(group)
        for _, _, future in group:
            if future is not None and not future.cancelled():
                future.set_exception(error)
            lane.queue.task_done()

    @staticmethod
    def _record(lane: _TenantLane, group: list[tuple], decided_at: float) -> None:
        latencies = lane.latencies
        if len(latencies) >= _LATENCY_WINDOW:
            del latencies[: _LATENCY_WINDOW // 2]
        for _, submitted_at, _ in group:
            latencies.append(decided_at - submitted_at)

    # -- lifecycle ----------------------------------------------------------------------

    async def drain(self) -> None:
        """Wait until every admitted query has been decided (or failed).

        Held epochs close here: every lane's idle flush runs now (a parked
        worker would not run it), and holds stay off until the drain ends.
        """
        lanes = list(self._lanes.values())
        for lane in lanes:
            lane.held = False
            if lane.pending and lane.queue.empty() and lane.blocked_putters == 0:
                self._decide(lane)
        try:
            await asyncio.gather(*(lane.queue.join() for lane in lanes))
        finally:
            for lane in lanes:
                lane.held = self._hold_epochs

    async def close(self) -> None:
        """Flush pending epochs, stop the workers, release tenant guards."""
        if self._closed:
            return
        self._closed = True
        for lane in self._lanes.values():
            await lane.queue.put(_CLOSE)
        workers = [lane.worker for lane in self._lanes.values() if lane.worker]
        if workers:
            await asyncio.gather(*workers)
        for lane in self._lanes.values():
            lane.guard.close()
        outcomes = self.collect_outcomes()
        if self._log_outcomes:
            for name, outcome in outcomes.items():
                self._service._record_history(name, outcome, "serving")

    def collect_outcomes(self) -> dict[str, SchedulingOutcome]:
        """Price each completed lane once (lane insertion order).

        Failed lanes, never-admitted lanes, and lanes that ran entirely
        degraded (no learned session) have no priceable outcome and are
        skipped.  With outcome logging enabled (the default) the result also
        lands in the registry's ``run_history`` under ``source="serving"`` at
        close, next to the service's batch/online rows; the sharded front end
        disables that and logs the merged map itself.
        """
        outcomes: dict[str, SchedulingOutcome] = {}
        for lane in self._lanes.values():
            if lane.failure is not None or lane.session is None or lane.admitted == 0:
                continue
            if lane.outcome is None:
                try:
                    outcome = lane.session.outcome()
                except WiSeDBError:
                    # Close must succeed even if a lane cannot be priced.
                    continue
                if lane.degraded_reason is not None:
                    outcome = replace(
                        outcome, degraded=True, degraded_reason=lane.degraded_reason
                    )
                lane.outcome = outcome
            outcomes[lane.name] = lane.outcome
        return outcomes

    def lane_states(self) -> dict[str, tuple[str, object]]:
        """Each lane's state: ``("failed", error)``, ``("degraded", reason)``
        for a lane that never had a learned session, else ``("ok", None)``."""
        states: dict[str, tuple[str, object]] = {}
        for name, lane in self._lanes.items():
            if lane.failure is not None:
                states[name] = ("failed", lane.failure)
            elif lane.session is None:
                states[name] = ("degraded", lane.degraded_reason)
            else:
                states[name] = ("ok", None)
        return states

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed admission shutdown."""
        return self._closed

    # -- observability ------------------------------------------------------------------

    def health(self) -> str:
        """``failed`` > ``closed`` > ``overloaded`` > ``degraded`` > ``ok``."""
        lanes = self._lanes.values()
        if any(lane.failure is not None for lane in lanes):
            return "failed"
        if self._closed:
            return "closed"
        if any(
            lane.queue.full() or lane.blocked_putters for lane in lanes
        ):
            return "overloaded"
        if any(lane.degraded_reason is not None for lane in lanes):
            return "degraded"
        return "ok"

    def metrics(self) -> ServingMetrics:
        """A consistent snapshot of every lane's counters and latencies."""
        entries = []
        for lane in self._lanes.values():
            session = lane.session
            entries.append(
                TenantMetrics(
                    tenant=lane.name,
                    submitted=lane.submitted,
                    admitted=lane.admitted,
                    shed=lane.shed,
                    decided=lane.decided,
                    degraded=lane.degraded,
                    failed=lane.failed,
                    queue_depth=lane.queue.qsize(),
                    in_flight=lane.in_flight,
                    epochs=lane.epochs,
                    retrains=session.retrains if session is not None else 0,
                    cache_hits=session.cache_hits if session is not None else 0,
                    decision_p50=percentile(lane.latencies, 0.50),
                    decision_p99=percentile(lane.latencies, 0.99),
                    degraded_reason=lane.degraded_reason,
                )
            )
        return ServingMetrics(status=self.health(), tenants=tuple(entries))

    def outcome(self, tenant: str) -> SchedulingOutcome:
        """The tenant's priced, unified outcome (only after :meth:`close`).

        Bit-identical to ``OnlineScheduler.run`` on the equivalent workload
        for a healthy lane; a lane that served degraded epochs has its
        learned-path outcome stamped ``degraded`` with the sticky reason, and
        a failed lane re-raises its error.
        """
        if not self._closed:
            raise SpecificationError(
                "close() the engine before asking for priced outcomes"
            )
        lane = self._lanes.get(tenant)
        if lane is None:
            raise SpecificationError(f"tenant {tenant!r} was never served")
        if lane.failure is not None:
            raise lane.failure
        if lane.session is None:
            raise SpecificationError(
                f"tenant {tenant!r} was served entirely degraded "
                f"({lane.degraded_reason}); no learned outcome exists"
            )
        if lane.outcome is not None:
            return lane.outcome
        outcome = lane.session.outcome()
        if lane.degraded_reason is not None:
            outcome = replace(
                outcome, degraded=True, degraded_reason=lane.degraded_reason
            )
        lane.outcome = outcome
        return outcome
