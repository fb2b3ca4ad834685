"""Online (one-query-at-a-time) scheduling (Section 6.3).

Online scheduling is treated as a sequence of small batch-scheduling tasks:
when a query arrives, it is bundled with every previously submitted query that
has not yet started executing, and the bundle is re-scheduled.  Queries that
have been waiting are no longer equivalent to fresh instances of their
template — their latency, measured from submission, already includes the wait
— so they are treated as instances of *new* templates whose expected latency
is the original latency plus the elapsed wait, and a model is derived for the
augmented template set.

Deriving that model is the expensive step, so the scheduler implements the two
optimizations of Section 6.3.1:

* **model reuse** — models are cached by the multiset of (template, rounded
  wait) pairs they were derived for; arrivals that produce the same signature
  reuse the cached model outright;
* **linear shifting** — for linearly shiftable goals (max latency, per-query
  deadlines), waiting ``n`` seconds is equivalent to a goal tightened by ``n``
  seconds, so instead of training for an augmented template set the scheduler
  adapts the original model with the Section-5 machinery, which is much
  cheaper.  Shifted models are cached by the rounded shift amount.

The scheduler keeps a full record of what ran where, so the report it returns
contains both the economics (Equation-1 cost of the whole run) and the
operational overheads (wall-clock scheduling time per arrival) that Figures 18
and 19 plot.

Hot-path notes
--------------

Arrivals sharing a timestamp form one *epoch* and are re-scheduled in a single
pass (one model derivation, one batch parse) instead of one pass per query;
the pull-back scan that assembles the wait queue walks only the VMs committed
to in the previous epoch (the only place unstarted records can live) instead
of every VM ever rented; a pending query's wait is rounded to the scheduler's
resolution once per pass and an aged-template name is built only for a wait
that rounds above zero; and each model parse walks the compiled tree computing
only the features its path tests (:meth:`~repro.learning.model.DecisionModel.decide`).
An epoch's parses cannot be fused into one matrix fill: decision ``k+1``'s
features depend on decision ``k``'s action.
``REPRO_SLOW_PATH=1`` forces the legacy one-pass-per-query dict/node-walk
loop; for streams with distinct arrival times the two paths are bit-identical
(asserted by the golden-scenario and equivalence suites).

The arrival loop
----------------

There is one loop, and :class:`OnlineSession` is it.  A session accepts
arrival epochs one :meth:`~OnlineSession.submit` call at a time, carries the
mutable state (rented VMs, the wait queue, model caches, counters) across
calls, and reports each epoch's placements as an :class:`EpochDecision`;
:meth:`OnlineScheduler.run` submits a workload's epochs to a session and
finalizes it, so driving a seeded stream epoch by epoch — which is what the
serving front end (:mod:`repro.serving`) does — is *bit-identical* to running
the whole workload at once.

A :class:`~repro.faults.FaultPlan` is a second event source feeding the same
loop.  Every VM the session provisions draws its fault profile from the plan
under its provisioning sequence number: slow starts and capped exponential
backoff for failed attempts delay it, and a scheduled crash or spot revocation
goes on the session's failure heap.  A failure instant is one more moment at
which unstarted work is re-bundled: ``submit`` first runs a scheduling pass at
every failure instant that falls before the epoch (the queries a dead VM had
not completed are rescheduled, measured from their original arrival), merges
failures due exactly at the epoch time into the epoch's own pass, and
``finalize`` drains the failures that fall after the last arrival — so every
query completes exactly once.  The report carries the failure accounting
(``vm_failures``, ``requeues``, ``retries``) and the cost breakdown separates
wasted spend (dead VMs' fees, discarded partial executions) from the
failure-free components.  Without a plan (or with an empty one) the heap stays
empty and no pass does anything a fault-free scheduler would not.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.adaptive.retraining import AdaptiveModeler
from repro.cloud.vm import VMType
from repro.config import slow_path_enabled
from repro.core.cost_model import CostBreakdown
from repro.core.outcome import QueryOutcome
from repro.core.schedule import Schedule, VMAssignment
from repro.core.scheduler import SchedulerOverhead, SchedulingOutcome
from repro.exceptions import SpecificationError
from repro.faults.plan import FaultPlan
from repro.learning.model import DecisionModel
from repro.learning.trainer import ModelGenerator, TrainingResult
from repro.runtime.batch import BatchScheduler
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.workloads.query import Query
from repro.workloads.templates import QueryTemplate
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class OnlineOptimizations:
    """Which of the Section 6.3.1 optimizations are enabled."""

    reuse: bool = True
    shift: bool = True

    @classmethod
    def none(cls) -> "OnlineOptimizations":
        """Retrain a fresh model at every arrival (the paper's ``None`` baseline)."""
        return cls(reuse=False, shift=False)

    @classmethod
    def reuse_only(cls) -> "OnlineOptimizations":
        """Only the model-reuse cache."""
        return cls(reuse=True, shift=False)

    @classmethod
    def shift_only(cls) -> "OnlineOptimizations":
        """Only linear shifting (applicable to linearly shiftable goals)."""
        return cls(reuse=False, shift=True)

    @classmethod
    def all(cls) -> "OnlineOptimizations":
        """Both optimizations (the paper's ``Shift + Reuse``)."""
        return cls(reuse=True, shift=True)

    def describe(self) -> str:
        """The label used in Figure 19 for this combination."""
        if self.reuse and self.shift:
            return "Shift + Reuse"
        if self.reuse:
            return "Reuse"
        if self.shift:
            return "Shift"
        return "None"


@dataclass
class ScheduledQueryRecord:
    """Where and when one query actually executed."""

    query: Query
    template_name: str
    vm_index: int
    start_time: float
    completion_time: float
    execution_time: float


@dataclass
class _VMRecord:
    """A rented VM and the queries committed to it so far."""

    vm_type: VMType
    provision_time: float
    records: list[ScheduledQueryRecord] = field(default_factory=list)
    #: Scheduled failure instant from the fault plan (``None`` = never fails).
    fail_time: float | None = None
    #: True when the failure actually cost work (queries re-enqueued): the
    #: provisioning fee is then accounted as wasted spend.  A VM revoked
    #: after draining its queue retires quietly — gone but not failed.
    failed: bool = False
    #: Billed execution time the failure threw away (in-flight queries).
    wasted_time: float = 0.0

    def busy_until(self, now: float = math.inf) -> float:
        """When the VM finishes what has started by *now* (default: everything)."""
        for record in reversed(self.records):
            if record.start_time <= now:
                return record.completion_time
        return self.provision_time

    def gone_by(self, now: float) -> bool:
        """Whether the fault plan has taken this VM away by *now*."""
        return self.fail_time is not None and self.fail_time <= now


@dataclass
class OnlineSchedulingReport:
    """The result of an online scheduling run."""

    outcomes: tuple[QueryOutcome, ...]
    cost: CostBreakdown
    #: Wall-clock scheduling time of each pass, one entry per arrival epoch
    #: (queries sharing an arrival time are scheduled together; with distinct
    #: arrival times this is one entry per query, as in Figures 18-19) plus
    #: one per VM-failure instant that left queries to reschedule.
    scheduling_overheads: list[float]
    retrains: int
    cache_hits: int
    base_model_uses: int
    num_vms: int
    optimizations: OnlineOptimizations
    #: Failed provisioning attempts absorbed by backoff (fault runs only).
    retries: int = 0
    #: VMs lost to crashes or spot revocation during the run.
    vm_failures: int = 0
    #: Queries re-enqueued after the VM holding them failed.
    requeues: int = 0

    @property
    def total_cost(self) -> float:
        """Total Equation-1 cost of the run, in cents."""
        return self.cost.total

    @property
    def average_overhead(self) -> float:
        """Mean wall-clock scheduling time per arrival epoch, in seconds."""
        if not self.scheduling_overheads:
            return 0.0
        return sum(self.scheduling_overheads) / len(self.scheduling_overheads)

    @property
    def total_overhead(self) -> float:
        """Total wall-clock time spent scheduling, in seconds."""
        return sum(self.scheduling_overheads)


@dataclass(frozen=True)
class QueryPlacement:
    """Where one query landed during one epoch's scheduling pass.

    ``vm_index`` is the VM's provisioning sequence number within the run
    (stable across epochs); start/completion times are in simulation seconds.
    A waiting query can be re-placed by a later epoch's pull-back, so a
    placement is definitive only once the stream is finalized.
    """

    query_id: int
    template_name: str
    vm_index: int
    vm_type_name: str
    start_time: float
    completion_time: float


@dataclass(frozen=True)
class EpochDecision:
    """What one :meth:`OnlineSession.submit` call decided.

    ``placements`` covers every commitment the call made — the new arrivals,
    any waiting queries the pull-back re-placed, *and* any queries orphaned by
    VM failures since the previous epoch; ``arrivals`` names the query ids
    that arrived this epoch.  The model-selection flags and the overhead
    describe the epoch's own scheduling pass (exactly one of ``retrained``/
    ``cache_hit``/``used_base_model`` is true).
    """

    epoch_time: float
    arrivals: tuple[int, ...]
    placements: tuple[QueryPlacement, ...]
    retrained: bool
    cache_hit: bool
    used_base_model: bool
    new_vms: int
    overhead_seconds: float

    def placement_for(self, query_id: int) -> QueryPlacement:
        """The placement of *query_id* in this epoch (raises if not placed)."""
        for placement in self.placements:
            if placement.query_id == query_id:
                return placement
        raise SpecificationError(f"query {query_id} was not placed in this epoch")


class OnlineScheduler:
    """Schedules queries as they arrive, using and adapting a trained model."""

    #: Display name under the unified :class:`~repro.core.scheduler.Scheduler`
    #: protocol.
    name = "WiSeDB-online"

    def __init__(
        self,
        base_training: TrainingResult,
        generator: ModelGenerator,
        optimizations: OnlineOptimizations | None = None,
        wait_resolution: float = 30.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if wait_resolution <= 0:
            raise SpecificationError("wait_resolution must be positive")
        self._base = base_training
        self._generator = generator
        self._optimizations = optimizations or OnlineOptimizations.all()
        self._wait_resolution = wait_resolution
        #: ``None`` stands for an empty plan too: sessions then never consult it.
        self._fault_plan = (
            fault_plan if fault_plan is not None and not fault_plan.is_empty else None
        )
        self._modeler = AdaptiveModeler(generator, base_training)
        self._model_cache: dict[object, DecisionModel] = {}
        #: (template name, vm type name) -> true execution time, memoized for
        #: the commit path (the latency model is deterministic per pair).
        self._latency_cache: dict[tuple[str, str], float] = {}
        #: (query id, perceived template) -> zero-arrival clone used in the last
        #: batch workload; a waiting query is re-expressed every pass it stays
        #: queued, so its clone is worth keeping until it starts.
        self._batch_query_cache: dict[tuple[int, str], Query] = {}
        #: Memoized result of the last :meth:`_execute` pass, keyed by the
        #: workload object, so :meth:`run` and :meth:`run_report` on the same
        #: workload share one pass (see :meth:`_executed`).
        self._last_execution: (
            tuple[Workload, OnlineSchedulingReport, list["_VMRecord"]] | None
        ) = None

    @property
    def optimizations(self) -> OnlineOptimizations:
        """The optimization combination this scheduler runs with."""
        return self._optimizations

    # -- main loop ------------------------------------------------------------------

    def run(self, workload: Workload) -> SchedulingOutcome:
        """Schedule *workload* and report the unified outcome.

        The outcome's schedule reflects what actually ran where (queries in
        per-VM execution order); online-specific telemetry (retrains, cache
        hits) lands in the overhead counters, and :meth:`run_report` remains
        available for the full per-arrival report Figures 18-19 are built on.
        """
        report, vms = self._executed(workload)
        return self._outcome_from(report, vms)

    def _outcome_from(
        self, report: OnlineSchedulingReport, vms: list["_VMRecord"]
    ) -> SchedulingOutcome:
        """Assemble the unified outcome shared by :meth:`run` and sessions."""
        schedule = Schedule(
            VMAssignment(vm.vm_type, tuple(record.query for record in vm.records))
            for vm in vms
        ).without_empty_vms()
        return SchedulingOutcome(
            scheduler=self.name,
            goal=self._base.goal,
            schedule=schedule,
            cost=report.cost,
            query_outcomes=report.outcomes,
            overhead=SchedulerOverhead(
                wall_time_seconds=report.total_overhead,
                decisions=len(report.scheduling_overheads),
                retrains=report.retrains,
                cache_hits=report.cache_hits,
                retries=report.retries,
                vm_failures=report.vm_failures,
                requeues=report.requeues,
            ),
        )

    def run_report(self, workload: Workload) -> OnlineSchedulingReport:
        """Schedule *workload*'s queries in arrival order and report the outcome."""
        report, _ = self._executed(workload)
        return report

    def _executed(
        self, workload: Workload
    ) -> tuple[OnlineSchedulingReport, list["_VMRecord"]]:
        """One :meth:`_execute` pass per workload, shared by run/run_report.

        The last pass is memoized by workload object, so calling both on the
        same workload consumes a single execution (and counts every overhead
        and retrain once); a different workload object starts a fresh pass.
        """
        cached = self._last_execution
        if cached is not None and cached[0] is workload:
            return cached[1], cached[2]
        report, vms = self._execute(workload)
        self._last_execution = (workload, report, vms)
        return report, vms

    @staticmethod
    def _arrival_epochs(workload: Workload) -> list[list[Query]]:
        """Arrival-ordered queries grouped into simultaneous-arrival epochs.

        Queries sharing an arrival time are one scheduling event: they are
        bundled with the wait queue and re-scheduled in a single pass (one
        model derivation, one batch parse) instead of one pass per query.
        Under ``REPRO_SLOW_PATH=1`` every query is its own epoch, reproducing
        the legacy one-pass-per-arrival loop; for streams with distinct
        arrival times the two groupings are identical.
        """
        arrivals = sorted(workload, key=lambda q: (q.arrival_time, q.query_id))
        if slow_path_enabled():
            return [[query] for query in arrivals]
        epochs: list[list[Query]] = []
        for query in arrivals:
            if epochs and epochs[-1][0].arrival_time == query.arrival_time:
                epochs[-1].append(query)
            else:
                epochs.append([query])
        return epochs

    def session(self) -> "OnlineSession":
        """Open an incremental arrival session (the serving re-entrancy hook).

        The returned :class:`OnlineSession` accepts epochs one
        :meth:`~OnlineSession.submit` call at a time and carries the arrival
        loop's mutable state across calls; submitting a stream epoch by epoch
        then finalizing is bit-identical to :meth:`run` on the equivalent
        workload — with or without a fault plan.
        """
        return OnlineSession(self)

    def _execute(
        self, workload: Workload
    ) -> tuple[OnlineSchedulingReport, list["_VMRecord"]]:
        """Submit each arrival epoch to one session, then finalize it."""
        session = OnlineSession(self)
        for epoch in self._arrival_epochs(workload):
            session.submit(epoch)
        return session.finalize(), session._vms

    # -- model selection ---------------------------------------------------------------

    def _model_for_batch(
        self, pending: list[tuple[Query, float]]
    ) -> tuple[DecisionModel, int, int, int]:
        """Return (model, cache_hits, base_uses, retrains) for one arrival.

        *pending* pairs each query with its wait already rounded to the
        scheduler's resolution (:meth:`_round_wait`, once per query per pass).
        """
        base_goal = self._base.goal
        if all(waited == 0.0 for _, waited in pending):
            return self._base.model, 0, 1, 0

        if self._optimizations.shift and base_goal.is_linearly_shiftable:
            shift_amount = max(waited for _, waited in pending)
            key = ("shift", shift_amount)
            cached = self._model_cache.get(key)
            if cached is not None and self._optimizations.reuse:
                return cached, 1, 0, 0
            shifted_goal = base_goal.shifted(shift_amount)
            result, _ = self._modeler.retrain(shifted_goal)
            self._model_cache[key] = result.model
            return result.model, 0, 0, 1

        # General case: augmented template set with "aged" templates.
        signature = tuple(
            sorted(
                {
                    (query.template_name, waited)
                    for query, waited in pending
                    if waited > 0.0
                }
            )
        )
        key = ("augment", signature)
        if self._optimizations.reuse:
            cached = self._model_cache.get(key)
            if cached is not None:
                return cached, 1, 0, 0
        model = self._train_augmented(signature)
        self._model_cache[key] = model
        return model, 0, 0, 1

    def _train_augmented(
        self, signature: tuple[tuple[str, float], ...]
    ) -> DecisionModel:
        """Train a fresh model whose template set includes the aged templates."""
        base_templates = self._generator.templates
        goal = self._base.goal
        extra: list[QueryTemplate] = []
        for template_name, waited in signature:
            base = base_templates[template_name]
            aged_name = self._aged_name(template_name, waited)
            extra.append(QueryTemplate(name=aged_name, base_latency=base.base_latency + waited))
            if isinstance(goal, PerQueryDeadlineGoal):
                goal = goal.with_extra_deadline(aged_name, goal.deadline_for(template_name))
        augmented = base_templates.extended(extra)
        generator = ModelGenerator(
            templates=augmented,
            vm_types=self._generator.vm_types,
            config=self._generator.config,
            # Share the base generator's (warm) backend: every aged-template
            # retrain would otherwise spawn — and leak — its own pool.
            backend=self._generator.backend,
        )
        return generator.generate(goal).model

    # -- batch construction and commitment ----------------------------------------------

    def _batch_workload(
        self,
        model: DecisionModel,
        pending: list[tuple[Query, float]],
    ) -> Workload:
        """Express the pending batch (rounded waits) in the model's template vocabulary."""
        batch_queries: list[Query] = []
        # Rebuilt every pass, so the cache never outgrows the wait queue.
        clones: dict[tuple[int, str], Query] = {}
        previous = self._batch_query_cache
        for query, waited in pending:
            name = query.template_name
            if waited > 0.0:
                # Aged templates exist only for waits that round to a bucket or more.
                aged_name = self._aged_name(name, waited)
                if aged_name in model.templates:
                    name = aged_name
            key = (query.query_id, name)
            clone = previous.get(key)
            if clone is None:
                clone = Query(template_name=name, query_id=query.query_id, arrival_time=0.0)
            clones[key] = clone
            batch_queries.append(clone)
        self._batch_query_cache = clones
        return Workload(model.templates, batch_queries)

    def _commit(
        self,
        vm: _VMRecord,
        query: Query,
        now: float,
        latency_model,
    ) -> None:
        """Append *query* to *vm* with its true execution time."""
        key = (query.template_name, vm.vm_type.name)
        execution_time = self._latency_cache.get(key)
        if execution_time is None:
            execution_time = latency_model.latency(query.template_name, vm.vm_type)
            self._latency_cache[key] = execution_time
        start = max(vm.busy_until(), now)
        vm.records.append(
            ScheduledQueryRecord(
                query=query,
                template_name=query.template_name,
                vm_index=0,  # rewritten when outcomes are assembled
                start_time=start,
                completion_time=start + execution_time,
                execution_time=execution_time,
            )
        )

    # -- reporting -------------------------------------------------------------------------

    @staticmethod
    def _outcomes(vms: list[_VMRecord]) -> tuple[QueryOutcome, ...]:
        outcomes: list[QueryOutcome] = []
        for vm_index, vm in enumerate(vms):
            for record in vm.records:
                outcomes.append(
                    QueryOutcome(
                        query_id=record.query.query_id,
                        template_name=record.template_name,
                        vm_index=vm_index,
                        vm_type_name=vm.vm_type.name,
                        arrival_time=record.query.arrival_time,
                        start_time=record.start_time,
                        completion_time=record.completion_time,
                        execution_time=record.execution_time,
                    )
                )
        return tuple(outcomes)

    @staticmethod
    def _total_cost(
        vms: list[_VMRecord],
        outcomes: tuple[QueryOutcome, ...],
        goal,
    ) -> CostBreakdown:
        startup = sum(vm.vm_type.startup_cost for vm in vms if not vm.failed)
        execution = sum(
            vm.vm_type.running_cost * record.execution_time
            for vm in vms
            for record in vm.records
        )
        # A dead VM's provisioning fee is sunk spend, as is the partial
        # execution time billed for the queries its failure interrupted.
        # Rescheduling delay needs no explicit term: it shows up as later
        # completion times, which the goal's penalty already prices.
        wasted_startup = sum(vm.vm_type.startup_cost for vm in vms if vm.failed)
        wasted_execution = sum(
            vm.vm_type.running_cost * vm.wasted_time for vm in vms
        )
        penalty = goal.penalty(outcomes)
        return CostBreakdown(
            startup_cost=startup,
            execution_cost=execution,
            penalty_cost=penalty,
            wasted_startup_cost=wasted_startup,
            wasted_execution_cost=wasted_execution,
        )

    # -- small helpers ----------------------------------------------------------------------

    def _round_wait(self, waited: float) -> float:
        """Quantise a wait time to the scheduler's resolution (Section 6.3.1)."""
        if waited <= 0:
            return 0.0
        return round(waited / self._wait_resolution) * self._wait_resolution

    @staticmethod
    def _aged_name(template_name: str, waited: float) -> str:
        """Name of the synthetic template representing an aged query."""
        return f"{template_name}+{int(round(waited))}s"


class OnlineSession:
    """The online arrival loop, one :meth:`submit` call per arrival epoch.

    A session is exactly the shape a serving front end needs: queries arrive
    continuously, each same-timestamp group is one scheduling event, and the
    scheduler's state (rented VMs, the wait queue, pending VM failures, model
    caches, counters) persists between events.  ``run()`` drives a session
    too, so for any arrival stream::

        session = scheduler.session()
        for epoch in epochs:
            session.submit(epoch)
        report = session.finalize()

    is bit-identical to ``scheduler.run()`` on the equivalent workload — the
    contract :mod:`repro.serving` builds on and the serving equivalence suite
    locks.

    Epochs must be submitted in non-decreasing time order, and every query in
    one ``submit`` call must share a single arrival time (the PR-3 epoch
    semantics: simultaneous arrivals are one scheduling event).  Sessions are
    not thread-safe; the service's per-tenant single-writer guard exists to
    keep concurrent writers out.
    """

    def __init__(self, scheduler: OnlineScheduler) -> None:
        self._scheduler = scheduler
        self._vms: list[_VMRecord] = []
        self._overheads: list[float] = []
        self._retrains = 0
        self._cache_hits = 0
        self._base_model_uses = 0
        self._retries = 0
        self._vm_failures = 0
        self._requeues = 0
        #: Min-heap of (fail_time, provisioning sequence number) for the VMs
        #: the fault plan will take away; stays empty without a plan.
        self._faults: list[tuple[float, int]] = []
        # Only the VMs committed to in the previous pass can still hold
        # records that have not started executing (everything else was either
        # pulled back then or had already started), so the pull-back scan
        # walks this list instead of every VM ever rented — a long stream's
        # per-arrival cost stays proportional to the wait queue, not to the
        # total VM count.
        self._touched: list[_VMRecord] = []
        self._last_epoch_time = -math.inf
        self._report: OnlineSchedulingReport | None = None

    @property
    def epochs(self) -> int:
        """Scheduling passes so far (arrival epochs plus rescheduling VM failures)."""
        return len(self._overheads)

    @property
    def num_vms(self) -> int:
        """Number of VMs provisioned so far."""
        return len(self._vms)

    @property
    def retrains(self) -> int:
        """Wait-triggered model retrainings so far."""
        return self._retrains

    @property
    def cache_hits(self) -> int:
        """Wait-bucket model-cache hits so far."""
        return self._cache_hits

    @property
    def finalized(self) -> bool:
        """True once :meth:`finalize` (or :meth:`outcome`) has been called."""
        return self._report is not None

    def submit(self, arrivals: Sequence[Query]) -> EpochDecision:
        """Schedule one arrival epoch and report its placements.

        *arrivals* must be non-empty and share a single arrival time that is
        not earlier than any previously submitted epoch's.  Queries are
        ordered by id within the epoch, matching ``run()``'s grouping of the
        equivalent workload.  VM failures scheduled before the epoch are
        handled first, each at its own instant; a call that raises (a model
        derivation can fail) leaves the epoch unsubmitted and every placed
        query where it was, so the same epoch can be submitted again.
        """
        if self._report is not None:
            raise SpecificationError(
                "this session is finalized; open a new session() for a new stream"
            )
        epoch = sorted(arrivals, key=lambda query: query.query_id)
        if not epoch:
            raise SpecificationError("an epoch must contain at least one arrival")
        now = epoch[0].arrival_time
        for query in epoch:
            if query.arrival_time != now:
                raise SpecificationError(
                    "all arrivals in one epoch must share one arrival time "
                    f"(got {query.arrival_time} and {now})"
                )
        if now < self._last_epoch_time:
            raise SpecificationError(
                "epochs must be submitted in time order "
                f"(epoch at t={now} after t={self._last_epoch_time})"
            )
        placements: list[QueryPlacement] = []
        faults = self._faults
        while faults and faults[0][0] < now:
            self._pass(faults[0][0], (), placements)
        decision = self._pass(now, epoch, placements)
        self._last_epoch_time = now
        return decision

    def _pass(
        self,
        now: float,
        epoch: Sequence[Query],
        placements: list[QueryPlacement],
    ) -> EpochDecision | None:
        """One scheduling pass at *now*: re-bundle what has not started, re-schedule.

        *epoch* holds the arrivals at *now* (none when the event is a VM
        failure).  Returns ``None`` when idle VMs died and left nothing to
        schedule.  Nothing is changed until the model is chosen and the batch
        scheduled — both can raise — so a failed pass never happened.
        """
        scheduler = self._scheduler
        vms = self._vms
        faults = self._faults
        started_at = time.perf_counter()

        # The new arrivals, what the VMs failing by *now* had not completed
        # (in failure order), plus everything committed but not yet started —
        # each with its wait rounded to the scheduler's resolution.
        round_wait = scheduler._round_wait
        pending: list[tuple[Query, float]] = [(query, 0.0) for query in epoch]
        dying: list[tuple[_VMRecord, list[ScheduledQueryRecord], float]] = []
        due = ()
        if faults and faults[0][0] <= now:
            due = sorted(entry for entry in faults if entry[0] <= now)
        for fail_time, seq in due:
            vm = vms[seq]
            completed: list[ScheduledQueryRecord] = []
            wasted = 0.0
            for record in vm.records:
                if record.completion_time <= fail_time:
                    completed.append(record)
                    continue
                if record.start_time < fail_time:
                    wasted += fail_time - record.start_time
                pending.append((record.query, round_wait(now - record.query.arrival_time)))
            dying.append((vm, completed, wasted))
        for vm in self._touched:
            if vm.gone_by(now):
                continue
            for record in vm.records:
                if record.start_time > now:
                    pending.append(
                        (record.query, round_wait(now - record.query.arrival_time))
                    )

        if pending:
            # Choose (or derive) the model for this batch, then schedule it,
            # allowing placements on the most recent VM still alive.
            model, used_cache, used_base, trained = scheduler._model_for_batch(pending)
            last_index = len(vms) - 1
            while last_index >= 0 and vms[last_index].gone_by(now):
                last_index -= 1
            last_vm = vms[last_index] if last_index >= 0 else None
            existing_busy = max(0.0, last_vm.busy_until(now) - now) if last_vm else 0.0
            result = BatchScheduler(model).schedule_detailed(
                scheduler._batch_workload(model, pending),
                existing_vm_type=last_vm.vm_type if last_vm else None,
                existing_vm_busy_time=existing_busy,
            )

        for vm, completed, wasted in dying:
            heapq.heappop(faults)
            requeued = len(vm.records) - len(completed)
            if requeued:
                # The failure cost work: it counts, and the fee is sunk.
                vm.failed = True
                self._vm_failures += 1
                self._requeues += requeued
            vm.records = completed
            vm.wasted_time = wasted
        if not pending:
            return None
        for vm in self._touched:
            vm.records = [record for record in vm.records if record.start_time <= now]
        self._retrains += trained
        self._cache_hits += used_cache
        self._base_model_uses += used_base

        # Commit the decisions with true (non-augmented) execution times.
        originals = {query.query_id: query for query, _ in pending}
        latency_model = scheduler._generator.latency_model
        plan = scheduler._fault_plan
        new_vms = 0
        self._touched = touched = []
        if last_vm is not None and result.placed_on_existing_vm:
            for placed in result.placed_on_existing_vm:
                scheduler._commit(last_vm, originals[placed.query_id], now, latency_model)
                placements.append(self._placement(last_vm, last_index))
            touched.append(last_vm)
        for vm_assignment in result.schedule:
            new_vm = _VMRecord(vm_type=vm_assignment.vm_type, provision_time=now)
            vm_index = len(vms)
            if plan is not None:
                # Replacement VMs draw their own profiles under fresh sequence
                # numbers, so explicit per-index events are finite and rate
                # draws stay horizon-bounded: the failures always run out.
                profile = plan.profile_for(vm_index, new_vm.vm_type, now)
                new_vm.provision_time += plan.provisioning_delay(profile)
                self._retries += profile.start_failures
                if profile.fail_time is not None:
                    new_vm.fail_time = profile.fail_time
                    heapq.heappush(faults, (profile.fail_time, vm_index))
            vms.append(new_vm)
            new_vms += 1
            for placed in vm_assignment.queries:
                scheduler._commit(new_vm, originals[placed.query_id], now, latency_model)
                placements.append(self._placement(new_vm, vm_index))
            touched.append(new_vm)

        overhead = time.perf_counter() - started_at
        self._overheads.append(overhead)
        return EpochDecision(
            epoch_time=now,
            arrivals=tuple(query.query_id for query in epoch),
            placements=tuple(placements),
            retrained=bool(trained),
            cache_hit=bool(used_cache),
            used_base_model=bool(used_base),
            new_vms=new_vms,
            overhead_seconds=overhead,
        )

    @staticmethod
    def _placement(vm: _VMRecord, vm_index: int) -> QueryPlacement:
        """The placement record for the commit that just landed on *vm*."""
        record = vm.records[-1]
        return QueryPlacement(
            query_id=record.query.query_id,
            template_name=record.template_name,
            vm_index=vm_index,
            vm_type_name=vm.vm_type.name,
            start_time=record.start_time,
            completion_time=record.completion_time,
        )

    def finalize(self) -> OnlineSchedulingReport:
        """Close the stream and price it (idempotent; no further submits).

        VM failures scheduled after the last arrival are handled first, so
        every submitted query has completed by the time the run is priced.
        """
        if self._report is None:
            faults = self._faults
            while faults:
                self._pass(faults[0][0], (), [])
            scheduler = self._scheduler
            outcomes = scheduler._outcomes(self._vms)
            cost = scheduler._total_cost(self._vms, outcomes, scheduler._base.goal)
            self._report = OnlineSchedulingReport(
                outcomes=outcomes,
                cost=cost,
                scheduling_overheads=self._overheads,
                retrains=self._retrains,
                cache_hits=self._cache_hits,
                base_model_uses=self._base_model_uses,
                num_vms=len(self._vms),
                optimizations=scheduler._optimizations,
                retries=self._retries,
                vm_failures=self._vm_failures,
                requeues=self._requeues,
            )
        return self._report

    def outcome(self) -> SchedulingOutcome:
        """Finalize and return the unified outcome (same shape as ``run()``)."""
        return self._scheduler._outcome_from(self.finalize(), self._vms)
