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

A run asks the latency model once per (VM type, template): each VM type
gets one latency row, filled the first time a template runs on that type
and read for every later query, so a 4,000-query batch on a handful of
templates costs a few dozen model calls rather than 4,000.  Outcomes and
rentals are built positionally as named tuples.  A rental's ``busy_time``
is ``sum()`` over its completed queries' execution times in queue order —
the same call over the same floats as a sum over the VM's outcomes, so the
two agree to the bit on every interpreter (Python 3.12's ``sum()`` is
compensated, so a ``+=`` loop would not) — plus any partial run a failure
wasted.

Per-VM views of a trace (``ExecutionTrace.outcomes_by_vm``) come from one
grouping pass, made on first use and kept on the trace, so attributing a
trace's cost is linear in queries plus VMs.  Groups keep trace order: a sum
over a group adds the same floats in the same order as a filter over all
outcomes would.

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
from typing import TYPE_CHECKING, Mapping, NamedTuple

from repro.cloud.latency import LatencyModel
from repro.core.outcome import QueryOutcome
from repro.core.schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan


class VMRental(NamedTuple):
    """Rental accounting for one VM in an executed schedule."""

    vm_index: int
    vm_type_name: str
    startup_cost: float
    provision_time: float
    release_time: float
    #: Execution time billed on the VM: ``sum()`` of its completed queries'
    #: execution times in queue order, plus any partial run a failure wasted.
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

    @cached_property
    def vm_indices(self) -> tuple[int, ...]:
        """Each outcome's ``vm_index``, in outcome order, read once on first use."""
        return tuple([outcome.vm_index for outcome in self.outcomes])

    @cached_property
    def outcomes_by_vm(self) -> Mapping[int, tuple[QueryOutcome, ...]]:
        """Outcomes grouped by ``vm_index`` in outcome order, built on first use.

        Derived, not a field: ``==``, ``hash`` and ``repr`` ignore it (as
        they ignore :attr:`vm_indices`).  A VM that completed nothing has no
        entry.
        """
        groups: dict[int, list[QueryOutcome]] = {}
        for vm_index, outcome in zip(self.vm_indices, self.outcomes):
            groups.setdefault(vm_index, []).append(outcome)
        return {index: tuple(group) for index, group in groups.items()}


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
        latency = self._latency_model.latency
        rows: dict[int, dict[str, float]] = {}  # id(VM type) -> latency row
        outcomes: list[QueryOutcome] = []
        rentals: list[VMRental] = []
        interrupted: list[InterruptedQuery] = []
        for vm_index, vm in enumerate(schedule):
            vm_type = vm.vm_type
            type_name = vm_type.name
            row = rows.setdefault(id(vm_type), {})
            profile = None
            delay = 0.0
            fail_time = None
            if plan is not None:
                profile = plan.profile_for(vm_index, vm_type, provision_time)
                delay = plan.provisioning_delay(profile)
                fail_time = profile.fail_time
            clock = provision_time + delay
            executed: list[float] = []
            wasted = 0.0
            lost = 0
            for query in vm.queries:
                name = query.template_name
                execution_time = row.get(name)
                if execution_time is None:
                    execution_time = row[name] = latency(name, vm_type)
                arrival = query.arrival_time
                start = arrival if arrival > clock else clock
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
                    wasted += partial
                    lost += 1
                    interrupted.append(
                        InterruptedQuery(
                            query_id=query.query_id,
                            template_name=name,
                            vm_index=vm_index,
                            vm_type_name=type_name,
                            arrival_time=arrival,
                            start_time=start if began else None,
                            interrupted_at=fail_time,
                            wasted_time=partial,
                        )
                    )
                    continue
                outcomes.append(
                    QueryOutcome(
                        query.query_id,
                        name,
                        vm_index,
                        type_name,
                        arrival,
                        start,
                        completion,
                        execution_time,
                    )
                )
                clock = completion
                executed.append(execution_time)
            # The failure only "bites" if it cost the VM work (or the VM sat
            # idle when it hit); a fail time past the last completion is moot
            # because the VM would already have been released.
            failed = fail_time is not None and (lost > 0 or not vm.queries)
            rentals.append(
                VMRental(
                    vm_index,
                    type_name,
                    vm_type.startup_cost,
                    provision_time,
                    max(fail_time, provision_time) if failed else clock,
                    sum(executed) + wasted,
                    failed,
                    profile.fail_kind if failed else None,
                    wasted,
                    delay,
                )
            )
        return ExecutionTrace(
            outcomes=tuple(outcomes),
            rentals=tuple(rentals),
            interrupted=tuple(interrupted),
        )
