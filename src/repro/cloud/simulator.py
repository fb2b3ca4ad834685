"""Discrete-event execution simulator for workload schedules.

The paper evaluates WiSeDB on a private cloud that replays EC2-measured query
latencies.  This module is the reproduction's substitute for that testbed: it
"executes" a :class:`~repro.core.schedule.Schedule` by walking each VM's queue
in order, producing a :class:`QueryOutcome` per query and per-VM rental
accounting.  Because WiSeDB's cost model (Equation 1) and all four SLA types
depend only on completion times, simulating execution with the same latency
figures exercises exactly the code paths the paper measures.

Queries on the same VM run one at a time, back to back (the paper executes
queries in isolation, Section 7.1); a query never starts before its arrival
time, which is how the online-scheduling experiments model queueing delay.

Per-VM views of a trace (``ExecutionTrace.outcomes_by_vm``, which
``outcomes_for_vm`` looks into) come from one grouping pass, made on first use
and kept on the trace, so pricing a trace and attributing its cost are linear
in queries plus VMs.  Groups keep trace order: a sum over a group adds the
same floats in the same order as a filter over all outcomes would.

Fault injection
---------------

``run`` optionally consumes a :class:`~repro.faults.FaultPlan`: each VM's
fault profile may delay its start (slow starts plus capped backoff for failed
provision attempts) or kill it outright mid-run.  A killed VM completes only
the queries that finish before its failure time; the in-flight query's partial
execution is billed as *wasted* busy time, and it plus every queued query land
in the trace's ``interrupted`` tuple — the simulator reports what a fixed
schedule loses, and the online scheduler is the component that re-enqueues
those losses until every query completes.  Without a plan (or with an empty
one) no VM has a profile, so nothing is delayed, interrupted or wasted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.cloud.latency import LatencyModel
from repro.core.outcome import QueryOutcome
from repro.core.schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class VMRental:
    """Rental accounting for one VM in an executed schedule."""

    vm_index: int
    vm_type_name: str
    startup_cost: float
    provision_time: float
    release_time: float
    busy_time: float
    #: True when a fault plan killed this VM before it drained its queue.
    failed: bool = False
    #: How the VM died (``"crash"``/``"revocation"``), ``None`` if it survived.
    fail_kind: str | None = None
    #: Billed busy time spent on the query the failure interrupted mid-run.
    wasted_busy_time: float = 0.0
    #: Extra provisioning time (slow start plus start-failure backoff).
    startup_delay: float = 0.0

    @property
    def span(self) -> float:
        """Wall-clock time between provisioning and release."""
        return self.release_time - self.provision_time


@dataclass(frozen=True)
class InterruptedQuery:
    """A query a VM failure prevented from completing on its assigned VM."""

    query_id: int
    template_name: str
    vm_index: int
    vm_type_name: str
    arrival_time: float
    #: When the query started executing (``None`` = still queued at failure).
    start_time: float | None
    #: The failure instant that interrupted (or orphaned) the query.
    interrupted_at: float
    #: Execution time billed before the interruption (0.0 for queued queries).
    wasted_time: float


@dataclass(frozen=True)
class ExecutionTrace:
    """The result of simulating a schedule."""

    outcomes: tuple[QueryOutcome, ...]
    rentals: tuple[VMRental, ...]
    #: Queries lost to VM failures (empty without a fault plan).
    interrupted: tuple[InterruptedQuery, ...] = ()

    @property
    def makespan(self) -> float:
        """Completion time of the last query (0 for an empty schedule)."""
        if not self.outcomes:
            return 0.0
        return max(outcome.completion_time for outcome in self.outcomes)

    @property
    def total_busy_time(self) -> float:
        """Sum of per-VM busy times (the quantity billed by Equation 1)."""
        return sum(rental.busy_time for rental in self.rentals)

    @cached_property
    def outcomes_by_vm(self) -> Mapping[int, tuple[QueryOutcome, ...]]:
        """Outcomes grouped by ``vm_index`` in outcome order, built on first use.

        Derived, not a field: ``==``, ``hash`` and ``repr`` ignore it.  A VM
        that completed nothing has no entry.
        """
        groups: dict[int, list[QueryOutcome]] = {}
        for outcome in self.outcomes:
            groups.setdefault(outcome.vm_index, []).append(outcome)
        return {index: tuple(group) for index, group in groups.items()}

    def outcomes_for_vm(self, vm_index: int) -> tuple[QueryOutcome, ...]:
        """Outcomes of the queries executed on the VM at *vm_index*."""
        return self.outcomes_by_vm.get(vm_index, ())

    def latencies(self) -> list[float]:
        """Observed latencies of all queries, in schedule order."""
        return [outcome.latency for outcome in self.outcomes]

    @property
    def total_wasted_time(self) -> float:
        """Busy time billed for executions a failure threw away."""
        return sum(rental.wasted_busy_time for rental in self.rentals)

    @property
    def failed_vm_indices(self) -> tuple[int, ...]:
        """Indices of the VMs a fault plan killed, in schedule order."""
        return tuple(r.vm_index for r in self.rentals if r.failed)


class ScheduleSimulator:
    """Executes schedules against a latency model."""

    def __init__(self, latency_model: LatencyModel) -> None:
        self._latency_model = latency_model

    @property
    def latency_model(self) -> LatencyModel:
        """The latency model used to derive execution times."""
        return self._latency_model

    def run(
        self,
        schedule: Schedule,
        provision_time: float = 0.0,
        fault_plan: "FaultPlan | None" = None,
    ) -> ExecutionTrace:
        """Simulate *schedule* and return its execution trace.

        Parameters
        ----------
        schedule:
            The schedule to execute.
        provision_time:
            Wall-clock time at which every VM in the schedule is provisioned
            (0.0 for batch scheduling; the online scheduler passes the decision
            time of the batch being placed).
        fault_plan:
            Optional :class:`~repro.faults.FaultPlan`; VM indices within the
            schedule are the plan's provisioning sequence numbers.  ``None``
            and an empty plan mean the same thing: no VM has a fault profile.
        """
        plan = (
            fault_plan if fault_plan is not None and not fault_plan.is_empty else None
        )
        outcomes: list[QueryOutcome] = []
        rentals: list[VMRental] = []
        interrupted: list[InterruptedQuery] = []
        for vm_index, vm in enumerate(schedule):
            profile = None
            delay = 0.0
            fail_time = None
            if plan is not None:
                profile = plan.profile_for(vm_index, vm.vm_type, provision_time)
                delay = plan.provisioning_delay(profile)
                fail_time = profile.fail_time
            clock = provision_time + delay
            busy = 0.0
            wasted = 0.0
            lost = 0
            for query in vm.queries:
                execution_time = self._latency_model.latency(
                    query.template_name, vm.vm_type
                )
                start = max(clock, query.arrival_time)
                completion = start + execution_time
                if fail_time is not None and (
                    start >= fail_time or completion > fail_time
                ):
                    # The VM died before this query could finish here.  If it
                    # had begun, the partial execution is billed (and wasted).
                    began = start < fail_time
                    partial = fail_time - start if began else 0.0
                    if began:
                        clock = fail_time
                    busy += partial
                    wasted += partial
                    lost += 1
                    interrupted.append(
                        InterruptedQuery(
                            query_id=query.query_id,
                            template_name=query.template_name,
                            vm_index=vm_index,
                            vm_type_name=vm.vm_type.name,
                            arrival_time=query.arrival_time,
                            start_time=start if began else None,
                            interrupted_at=fail_time,
                            wasted_time=partial,
                        )
                    )
                    continue
                outcomes.append(
                    QueryOutcome(
                        query_id=query.query_id,
                        template_name=query.template_name,
                        vm_index=vm_index,
                        vm_type_name=vm.vm_type.name,
                        arrival_time=query.arrival_time,
                        start_time=start,
                        completion_time=completion,
                        execution_time=execution_time,
                    )
                )
                clock = completion
                busy += execution_time
            # The failure only "bites" if it cost the VM work (or the VM sat
            # idle when it hit); a fail time past the last completion is moot
            # because the VM would already have been released.
            failed = fail_time is not None and (lost > 0 or not vm.queries)
            rentals.append(
                VMRental(
                    vm_index=vm_index,
                    vm_type_name=vm.vm_type.name,
                    startup_cost=vm.vm_type.startup_cost,
                    provision_time=provision_time,
                    release_time=max(fail_time, provision_time) if failed else clock,
                    busy_time=busy,
                    failed=failed,
                    fail_kind=profile.fail_kind if failed else None,
                    wasted_busy_time=wasted,
                    startup_delay=delay,
                )
            )
        return ExecutionTrace(
            outcomes=tuple(outcomes),
            rentals=tuple(rentals),
            interrupted=tuple(interrupted),
        )


def simulate(
    schedule: Schedule,
    latency_model: LatencyModel,
    provision_time: float = 0.0,
    fault_plan: "FaultPlan | None" = None,
) -> ExecutionTrace:
    """One-shot convenience wrapper around :class:`ScheduleSimulator`."""
    return ScheduleSimulator(latency_model).run(
        schedule, provision_time=provision_time, fault_plan=fault_plan
    )


def outcomes_of(
    schedule: Schedule,
    latency_model: LatencyModel,
    provision_time: float = 0.0,
) -> Sequence[QueryOutcome]:
    """The query outcomes of simulating *schedule* (helper for the cost model)."""
    return simulate(schedule, latency_model, provision_time=provision_time).outcomes
