"""The asyncio serving front end over a :class:`~repro.service.WiSeDBService`.

:class:`ServingEngine` turns the call-into-it service into a long-lived
endpoint: many tenants are multiplexed over one event loop, each behind a
*lane* — a pending epoch, an incremental
:class:`~repro.runtime.online.OnlineSession` holding that tenant's online
scheduler state, and its counters.  There is no queue and no worker task:
the submitter decides the epochs on its own turn.  The design commitments:

**Epoch batching is preserved.**  Same-timestamp arrivals are coalesced into
one scheduling epoch (PR 3 semantics) before ``session.submit`` sees them.
A pending epoch closes in exactly four places: in :meth:`ServingEngine.submit`
when a query with a later timestamp arrives (the watermark); in the lane's
idle flush, one ``loop.call_soon`` per lane and turn that runs once the
submitter yields (the eager path that keeps interactive latency low); in
:meth:`~ServingEngine.drain`; and in :meth:`~ServingEngine.close`.  A shard
worker, whose queries arrive in pipe frames, turns the idle flush off
(``hold_epochs=True``) so a frame boundary never splits an epoch.  Because
``OnlineScheduler.run`` is itself implemented over the same session type, a
lane's decisions and final costs are **bit-identical** to feeding the
equivalent workload straight into the scheduler — the serving equivalence
suite locks this for every goal kind and catalog.

**Backpressure is explicit.**  A lane admits at most ``queue_limit``
queries into its pending epoch before ``backpressure="shed"`` refuses the
next same-timestamp query with a reason and counts it — nothing is dropped
silently.  ``backpressure="block"`` never refuses and never suspends: the
submitter itself pays for every decision it triggers, so a producer that
outruns the scheduler is slowed by the decisions, not by a queue.

**Failures degrade, loudly.**  If a lane's learned path fails (model
missing, training error, a placement the model cannot express), the lane
flips sticky-degraded: every subsequent epoch is served by the model-free FFD
heuristic and stamped with the triggering error, mirroring the service's
``degraded_fallback`` contract.  With the fallback disabled the lane fails
closed instead: the submit whose watermark decision failed raises, and so
does every later one.  Any other exception a decision raises fails the lane
the same way, also in the idle flush, where nothing would otherwise see it.

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
from repro.runtime.online import OnlineSession
from repro.service.service import Tenant, WiSeDBService
from repro.serving.metrics import ServingMetrics, TenantMetrics, percentile
from repro.workloads.query import Query
from repro.workloads.workload import Workload

#: Per-lane decision-latency window; halved when it overflows so snapshots
#: reflect recent behavior without unbounded growth.
_LATENCY_WINDOW = 200_000

#: Backpressure policies: admit every query vs. refuse with a reason.
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
    """One tenant's pending epoch, session, and counters."""

    __slots__ = (
        "name",
        "tenant",
        "session",
        "pending",
        "flush_due",
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
        "guard",
        "outcome",
    )

    def __init__(
        self,
        name: str,
        tenant: Tenant,
        session: OnlineSession | None,
        guard: ExitStack,
    ) -> None:
        self.name = name
        self.tenant = tenant
        self.session = session
        #: The open epoch: ``(query, submitted_at, future or None)`` items
        #: that all arrived at ``last_submitted_time``.
        self.pending: list[tuple] = []
        #: Whether this turn's idle flush is already scheduled.
        self.flush_due = False
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
        self.failure: Exception | None = None
        self.guard = guard
        #: The priced outcome, computed once at close and reused afterwards.
        self.outcome: SchedulingOutcome | None = None

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
        #: When False, close() still prices every lane but leaves run-history
        #: logging to the caller — the sharded front end sets this on its
        #: per-shard engines so history is written once, in a deterministic
        #: order, by the router.
        self._log_outcomes = log_outcomes
        #: When True, no idle flush closes the pending epoch: only a later
        #: timestamp, :meth:`drain` or :meth:`close` does.  The shard worker
        #: sets this, since its queries arrive frame by frame.
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
        lane = _TenantLane(name, tenant, session, guard)
        lane.degraded_reason = reason
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
        non-decreasing per tenant.  A later timestamp decides the pending
        epoch here, before the query joins a new one; a failed lane
        re-raises its error, also when this very decision failed it (the
        query is then not admitted).
        """
        if self._closed:
            raise SpecificationError("the serving engine is closed")
        lane = self._lane(tenant)
        if lane.failure is not None:
            raise lane.failure
        arrival_time = query.arrival_time
        if arrival_time < lane.last_submitted_time:
            raise SpecificationError(
                f"tenant {tenant!r}: arrival times must be non-decreasing "
                f"(got {arrival_time} after {lane.last_submitted_time})"
            )
        if lane.pending and arrival_time != lane.last_submitted_time:
            self._decide(lane)  # the watermark
            if lane.failure is not None:
                raise lane.failure
        elif len(lane.pending) >= self._queue_limit and self._backpressure == "shed":
            lane.submitted += 1
            lane.shed += 1
            return Admission(
                False,
                shed_reason=(
                    f"admission queue full "
                    f"(limit={self._queue_limit}) for tenant {tenant!r}"
                ),
            )
        if not (lane.flush_due or self._hold_epochs):
            lane.flush_due = True
            asyncio.get_running_loop().call_soon(self._idle_flush, lane)
        future = asyncio.get_running_loop().create_future() if ticket else None
        lane.pending.append((query, time.perf_counter(), future))
        lane.submitted += 1
        lane.admitted += 1
        lane.last_submitted_time = arrival_time
        if future is not None:
            return Admission(True, ticket=ServingTicket(future))
        return _ADMITTED

    # -- deciding epochs ----------------------------------------------------------------

    def _idle_flush(self, lane: _TenantLane) -> None:
        """Close the pending epoch once the submitter has yielded."""
        lane.flush_due = False
        if lane.pending:
            self._decide(lane)

    def _decide_pending(self) -> None:
        for lane in self._lanes.values():
            if lane.pending:
                self._decide(lane)

    def _decide(self, lane: _TenantLane) -> None:
        """Decide the pending epoch through the learned (or degraded) path.

        It never raises: an error the fallback does not absorb fails the
        lane and every query of the epoch.
        """
        group = lane.pending
        lane.pending = []
        queries = [item[0] for item in group]
        try:
            if lane.degraded_reason is None:
                try:
                    decision = lane.session.submit(queries)
                except WiSeDBError as error:
                    if not self._service.degraded_fallback:
                        raise
                    lane.degraded_reason = f"{type(error).__name__}: {error}"
                else:
                    self._resolve(lane, group, decision)
                    return
            self._decide_degraded(lane, group, queries)
        except Exception as error:
            self._fail(lane, group, error)

    def _resolve(self, lane: _TenantLane, group: list[tuple], decision) -> None:
        self._record(lane, group, time.perf_counter())
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
        lane.decided += len(group)

    def _decide_degraded(
        self, lane: _TenantLane, group: list[tuple], queries: list[Query]
    ) -> None:
        spec = lane.tenant.spec
        FirstFitDecreasingScheduler(
            vm_type=spec.vm_types.default,
            goal=spec.goal,
            latency_model=spec.resolved_latency_model(),
        ).schedule(Workload(spec.templates, queries))
        self._record(lane, group, time.perf_counter())
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
        lane.decided += len(group)
        lane.degraded += len(group)
        lane.degraded_epochs += 1

    def _fail(self, lane: _TenantLane, group: list[tuple], error: Exception) -> None:
        """Fail the lane closed: refuse this epoch, re-raise on later submits."""
        lane.failure = error
        lane.failed += len(group)
        for _, _, future in group:
            if future is not None and not future.done():
                future.set_exception(error)

    @staticmethod
    def _record(lane: _TenantLane, group: list[tuple], decided_at: float) -> None:
        latencies = lane.latencies
        if len(latencies) >= _LATENCY_WINDOW:
            del latencies[: _LATENCY_WINDOW // 2]
        for _, submitted_at, _ in group:
            latencies.append(decided_at - submitted_at)

    # -- lifecycle ----------------------------------------------------------------------

    async def drain(self) -> None:
        """Decide every lane's pending epoch, held ones too, without yielding.

        When it returns, every admitted query has been decided (or failed),
        and every ticket is resolved.
        """
        self._decide_pending()

    async def close(self) -> None:
        """Decide pending epochs, release tenant guards, price the lanes."""
        if self._closed:
            return
        self._closed = True
        self._decide_pending()
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
        if any(len(lane.pending) >= self._queue_limit for lane in lanes):
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
                    in_flight=len(lane.pending),
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
        a failed lane re-raises its error.  The answer is what
        :meth:`collect_outcomes` priced at close, so a lane it skipped (no
        query admitted) has none — exactly as the sharded engine answers.
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
        if lane.outcome is None:
            raise SpecificationError(
                f"tenant {tenant!r} has no priceable outcome "
                "(no queries were admitted)"
            )
        return lane.outcome
