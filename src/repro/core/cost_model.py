"""The monetary cost model of Equation 1.

The total cost of executing a workload under schedule ``S`` and performance
goal ``R`` is::

    cost(R, S) = sum over VMs [ f_s  +  f_r * (sum of query latencies on the VM) ]
                 + p(R, S)

i.e. provisioning fees, plus rental fees for the time the VM spends executing
its queue, plus the SLA penalty for whatever violations the schedule incurs.

Pricing is one light pass over what the simulator already summed.  Each
VM's busy time is ``VMRental.busy_time``: the simulator made the same
``sum()`` call over the same floats in the same order as a sum over the
VM's outcomes would, and float addition is not associative, so that is what
keeps the golden digests pinned to the bit.  The simulator is fault-free, so
no rental here ever failed; wasted spend in a :class:`CostBreakdown` comes
only from online runs under a fault plan (:mod:`repro.runtime.online`).
The goal's violation period is computed once, and the penalty is
``penalty_rate × violation`` — the product ``PerformanceGoal.penalty``
forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.latency import LatencyModel
from repro.cloud.simulator import ExecutionTrace, ScheduleSimulator
from repro.core.schedule import Schedule
from repro.exceptions import ScheduleError
from repro.sla.base import PerformanceGoal


@dataclass(frozen=True)
class CostBreakdown:
    """The components of Equation 1 plus failure accounting, in cents.

    ``startup_cost``/``execution_cost`` cover spend that delivered completed
    queries; ``penalty_cost`` is the SLA penalty (which, under a fault plan,
    already folds in rescheduling delay — completion times simply move).  The
    two wasted components record spend lost to infrastructure failure: the
    provisioning fees of VMs that died and the partial execution time billed
    for queries a failure interrupted.  Only an online run under a fault plan
    fills them; :func:`breakdown_from_trace` prices a fault-free simulation
    and keeps both at 0.0.
    """

    startup_cost: float
    execution_cost: float
    penalty_cost: float
    #: Provisioning fees of VMs that crashed or were revoked mid-run.
    wasted_startup_cost: float = 0.0
    #: Rental spend on partial executions a failure threw away.
    wasted_execution_cost: float = 0.0

    @property
    def total(self) -> float:
        """Total monetary cost ``cost(R, S)`` in cents, wasted spend included."""
        return (
            self.startup_cost
            + self.execution_cost
            + self.penalty_cost
            + self.wasted_startup_cost
            + self.wasted_execution_cost
        )

    @property
    def wasted_cost(self) -> float:
        """Total spend lost to VM failures (zero in fault-free runs)."""
        return self.wasted_startup_cost + self.wasted_execution_cost

    @property
    def failure_free_cost(self) -> float:
        """The cost components that delivered value: total minus wasted spend.

        By construction ``total == failure_free_cost + wasted_cost`` — the
        reconciliation identity the fault suite asserts.
        """
        return self.startup_cost + self.execution_cost + self.penalty_cost

def breakdown_from_trace(
    schedule: Schedule,
    trace: ExecutionTrace,
    goal: PerformanceGoal,
    violation: float | None = None,
) -> CostBreakdown:
    """Equation-1 breakdown of an already-simulated schedule.

    The single pricing implementation shared by :class:`CostModel` and
    :func:`repro.core.scheduler.simulated_outcome`, so the two can never
    drift apart.  *trace* must be the simulation of *schedule*: a trace with
    a different number of VMs raises :class:`~repro.exceptions.ScheduleError`.
    *violation* is ``goal.violation_period(trace.outcomes)`` if the caller
    already has it (computed here otherwise).
    """
    startup = 0.0
    execution = 0.0
    rentals = trace.rentals
    last_vm = max(trace.vm_indices, default=-1)
    if len(rentals) != len(schedule) or last_vm >= len(schedule):
        raise ScheduleError(
            f"trace does not belong to this schedule: it has {len(rentals)} "
            f"rentals and outcomes up to VM index {last_vm}, "
            f"the schedule has {len(schedule)} VMs"
        )
    for vm, rental in zip(schedule, rentals):
        vm_type = vm.vm_type
        startup += vm_type.startup_cost
        execution += vm_type.running_cost * rental.busy_time
    if violation is None:
        violation = goal.violation_period(trace.outcomes)
    return CostBreakdown(
        startup_cost=startup,
        execution_cost=execution,
        penalty_cost=goal.penalty_rate * violation,
    )


class CostModel:
    """Evaluates Equation 1 for schedules under a given latency model."""

    def __init__(self, latency_model: LatencyModel) -> None:
        self._latency_model = latency_model
        self._simulator = ScheduleSimulator(latency_model)

    def breakdown(self, schedule: Schedule, goal: PerformanceGoal) -> CostBreakdown:
        """Full cost breakdown of *schedule* under *goal*."""
        return breakdown_from_trace(schedule, self._simulator.run(schedule), goal)

    def total_cost(self, schedule: Schedule, goal: PerformanceGoal) -> float:
        """Total cost ``cost(R, S)`` of *schedule* under *goal*, in cents."""
        return self.breakdown(schedule, goal).total
