"""Core abstractions: schedules, outcomes, the cost model, the scheduler protocol."""

from repro.core.cost_model import CostBreakdown, CostModel
from repro.core.outcome import QueryOutcome
from repro.core.schedule import Schedule, VMAssignment
from repro.core.scheduler import (
    Scheduler,
    SchedulerOverhead,
    SchedulingOutcome,
    simulated_outcome,
)

__all__ = [
    "CostBreakdown",
    "CostModel",
    "QueryOutcome",
    "Schedule",
    "Scheduler",
    "SchedulerOverhead",
    "SchedulingOutcome",
    "VMAssignment",
    "simulated_outcome",
]
