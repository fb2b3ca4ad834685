"""The unified scheduler protocol and its common result type.

Historically the three scheduler families exposed three incompatible call
shapes: the model-driven :class:`~repro.runtime.batch.BatchScheduler` returned
a bare :class:`~repro.core.schedule.Schedule`, the online scheduler returned a
rich report, and the baseline heuristics returned schedules that every caller
then had to price separately.  The evaluation harness and the service layer
now speak one protocol instead:

* :class:`Scheduler` — anything with a ``name`` and a
  ``run(workload) -> SchedulingOutcome`` method;
* :class:`SchedulingOutcome` — the common result: the concrete schedule, its
  Equation-1 cost breakdown, per-query execution records, and the scheduler's
  operational overheads;
* :class:`SchedulerOverhead` — wall-clock and decision counters shared by all
  families (model-free heuristics simply leave the model counters at zero).

:func:`simulated_outcome` builds an outcome for any scheduler that produces a
batch schedule executed from time zero — it simulates the schedule once and
derives the cost breakdown, the per-query records and the violation period
from the same trace, so the numbers always agree with
:class:`~repro.core.cost_model.CostModel`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.cloud.simulator import ScheduleSimulator
from repro.core.cost_model import CostBreakdown, breakdown_from_trace
from repro.core.outcome import QueryOutcome
from repro.core.schedule import Schedule
from repro.sla.base import PerformanceGoal
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class SchedulerOverhead:
    """Operational bookkeeping common to every scheduler family.

    Counters a family does not track stay at their zero defaults (e.g. the
    first-fit heuristics have no decision model, so every model counter is 0).
    """

    #: Wall-clock time spent producing the schedule, in seconds (simulation
    #: and pricing are excluded — this is the quantity Figures 17 and 19 plot).
    wall_time_seconds: float = 0.0
    #: Model parses (decision-model schedulers) or placement decisions.
    decisions: int = 0
    #: Decisions where the model's raw action was invalid and a fallback ran.
    fallbacks: int = 0
    #: Placements the runtime penalty guard converted into provisioning.
    guard_activations: int = 0
    #: Models (re)trained during the run (online scheduling only).
    retrains: int = 0
    #: Model-cache hits during the run (online scheduling only).
    cache_hits: int = 0
    #: Failed VM provisioning attempts absorbed by backoff (fault runs only).
    retries: int = 0
    #: VMs lost to crashes or spot revocation during the run.
    vm_failures: int = 0
    #: Queries re-enqueued after the VM holding them failed.
    requeues: int = 0


@dataclass(frozen=True)
class SchedulingOutcome:
    """What one scheduler did with one workload, in a family-independent shape."""

    #: Name of the scheduler that produced this outcome (``"WiSeDB"``, ``"FFD"``...).
    scheduler: str
    #: The goal the schedule was produced (and priced) under.
    goal: PerformanceGoal
    #: The concrete schedule: VMs rented, placement, and execution order.
    schedule: Schedule
    #: Equation-1 cost breakdown of the schedule under ``goal``.
    cost: CostBreakdown
    #: Per-query execution records (completion times, latencies, VM indices).
    query_outcomes: tuple[QueryOutcome, ...] = ()
    #: Operational overheads of producing the schedule.
    overhead: SchedulerOverhead = field(default_factory=SchedulerOverhead)
    #: True when the service fell back to a heuristic (model missing/corrupt
    #: or repeated placement failure) instead of the learned scheduler.
    degraded: bool = False
    #: Why degraded mode engaged (``None`` when ``degraded`` is False).
    degraded_reason: str | None = None
    #: ``goal``'s violation period if pricing computed it (``None``: compute
    #: on demand).  Derived, so ``==`` and ``repr`` ignore it.
    violation: float | None = field(default=None, compare=False, repr=False)

    @property
    def total_cost(self) -> float:
        """Total Equation-1 cost in cents."""
        return self.cost.total

    def num_vms(self) -> int:
        """Number of VMs the schedule rents."""
        return self.schedule.num_vms()

    def num_queries(self) -> int:
        """Number of queries the schedule covers."""
        return len(self.query_outcomes) or self.schedule.num_queries()

    def violation_period(self) -> float:
        """Violation period (seconds) of the outcome under its goal."""
        if self.violation is not None:
            return self.violation
        return self.goal.violation_period(self.query_outcomes)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.scheduler}: {self.num_queries()} queries on "
            f"{self.num_vms()} VMs for {self.cost.total:.1f} cents"
        )


@runtime_checkable
class Scheduler(Protocol):
    """Anything that can turn a workload into a :class:`SchedulingOutcome`.

    Implemented by the model-driven batch scheduler, the online scheduler,
    and every baseline heuristic, which is what lets the evaluation harness,
    the benchmarks, and :class:`~repro.service.WiSeDBService` treat all
    scheduler families uniformly.
    """

    @property
    def name(self) -> str:
        """Display name of the scheduler (used in figures and reports)."""
        ...  # pragma: no cover - protocol

    def run(self, workload: Workload) -> SchedulingOutcome:
        """Schedule *workload* and report the unified outcome."""
        ...  # pragma: no cover - protocol


def simulated_outcome(
    name: str,
    schedule: Schedule,
    goal: PerformanceGoal,
    latency_model,
    wall_time_seconds: float = 0.0,
    overhead: SchedulerOverhead | None = None,
) -> SchedulingOutcome:
    """Price a batch schedule (executed from t=0) into a :class:`SchedulingOutcome`.

    One simulator pass produces both the per-query records and the cost
    breakdown; pricing goes through the same
    :func:`~repro.core.cost_model.breakdown_from_trace` as
    :class:`~repro.core.cost_model.CostModel`, so the two agree by
    construction.
    """
    trace = ScheduleSimulator(latency_model).run(schedule)
    violation = goal.violation_period(trace.outcomes)
    return SchedulingOutcome(
        scheduler=name,
        goal=goal,
        schedule=schedule,
        cost=breakdown_from_trace(schedule, trace, goal, violation),
        query_outcomes=trace.outcomes,
        overhead=overhead or SchedulerOverhead(wall_time_seconds=wall_time_seconds),
        violation=violation,
    )


def timed_simulated_run(
    scheduler,
    workload: Workload,
    goal: PerformanceGoal,
    latency_model,
) -> SchedulingOutcome:
    """The protocol plumbing shared by the model-free heuristic schedulers.

    Times ``scheduler.schedule(workload)`` (generation only — simulation and
    pricing stay outside the measured window) and prices the result with
    :func:`simulated_outcome`, counting one placement decision per query.
    """
    started = time.perf_counter()
    schedule = scheduler.schedule(workload)
    elapsed = time.perf_counter() - started
    return simulated_outcome(
        name=scheduler.name,
        schedule=schedule,
        goal=goal,
        latency_model=latency_model,
        overhead=SchedulerOverhead(wall_time_seconds=elapsed, decisions=len(workload)),
    )
