"""Discrete-event execution simulator for workload schedules.

The paper evaluates WiSeDB on a private cloud that replays EC2-measured query
latencies.  This module is the reproduction's substitute for that testbed: it
"executes" a :class:`~repro.core.schedule.Schedule` by walking each VM's queue
in order, producing a :class:`QueryOutcome` per query and per-VM rental
accounting.  Because WiSeDB's cost model (Equation 1) and all four SLA types
depend only on completion times, simulating execution with the same latency
figures exercises exactly the code paths the paper measures.

A run is fault-free and starts every VM at t = 0.  Queries on the same VM run
one at a time, back to back (the paper executes queries in isolation,
Section 7.1); a query never starts before its arrival time, which is how the
online-scheduling experiments model queueing delay.  VM failures are not
simulated here: the online session (:mod:`repro.runtime.online`) is the one
place a :class:`~repro.faults.FaultPlan` is replayed and its losses priced.

A run asks the latency model once per (VM type, template): each VM type
gets one latency row, filled the first time a template runs on that type
and read for every later query, so a 4,000-query batch on a handful of
templates costs a few dozen model calls rather than 4,000.  Outcomes and
rentals are built positionally as named tuples.  A rental's ``busy_time``
is ``sum()`` over its queries' execution times in queue order — the same
call over the same floats as a sum over the VM's outcomes, so the two agree
to the bit on every interpreter (Python 3.12's ``sum()`` is compensated, so
a ``+=`` loop would not).

Per-VM views of a trace (``ExecutionTrace.outcomes_by_vm``) come from one
grouping pass, made on first use and kept on the trace, so attributing a
trace's cost is linear in queries plus VMs.  Groups keep trace order: a sum
over a group adds the same floats in the same order as a filter over all
outcomes would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

from repro.cloud.latency import LatencyModel
from repro.core.outcome import QueryOutcome
from repro.core.schedule import Schedule


class VMRental(NamedTuple):
    """Rental accounting for one VM in an executed schedule (provisioned at 0)."""

    vm_index: int
    vm_type_name: str
    startup_cost: float
    #: When the VM finished its last query (0.0 for an empty queue).
    release_time: float
    #: Execution time billed on the VM: ``sum()`` of its queries' execution
    #: times in queue order.
    busy_time: float


@dataclass(frozen=True)
class ExecutionTrace:
    """The result of simulating a schedule."""

    outcomes: tuple[QueryOutcome, ...]
    rentals: tuple[VMRental, ...]

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

    def run(self, schedule: Schedule) -> ExecutionTrace:
        """Simulate *schedule* fault-free from t = 0 and return its trace."""
        latency = self._latency_model.latency
        rows: dict[int, dict[str, float]] = {}  # id(VM type) -> latency row
        outcomes: list[QueryOutcome] = []
        rentals: list[VMRental] = []
        for vm_index, vm in enumerate(schedule):
            vm_type = vm.vm_type
            type_name = vm_type.name
            row = rows.setdefault(id(vm_type), {})
            clock = 0.0
            executed: list[float] = []
            for query in vm.queries:
                name = query.template_name
                execution_time = row.get(name)
                if execution_time is None:
                    execution_time = row[name] = latency(name, vm_type)
                arrival = query.arrival_time
                start = arrival if arrival > clock else clock
                clock = start + execution_time
                outcomes.append(
                    QueryOutcome(
                        query.query_id,
                        name,
                        vm_index,
                        type_name,
                        arrival,
                        start,
                        clock,
                        execution_time,
                    )
                )
                executed.append(execution_time)
            rentals.append(
                VMRental(
                    vm_index,
                    type_name,
                    vm_type.startup_cost,
                    clock,
                    # A start of 0.0 keeps an empty VM's busy time a float.
                    sum(executed, 0.0),
                )
            )
        return ExecutionTrace(outcomes=tuple(outcomes), rentals=tuple(rentals))
