"""Performance goals and SLA penalty semantics (Sections 2-3 of the paper)."""

from repro.sla.accumulators import (
    AverageLatencyViolationAccumulator,
    MaxLatencyViolationAccumulator,
    PercentileViolationAccumulator,
    PerQueryViolationAccumulator,
    ViolationAccumulator,
)
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.base import PerformanceGoal
from repro.sla.factory import GOAL_KINDS, default_goal, goal_from_dict
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.sla.percentile import PercentileGoal

__all__ = [
    "GOAL_KINDS",
    "AverageLatencyGoal",
    "AverageLatencyViolationAccumulator",
    "MaxLatencyGoal",
    "MaxLatencyViolationAccumulator",
    "PerQueryDeadlineGoal",
    "PerQueryViolationAccumulator",
    "PercentileGoal",
    "PercentileViolationAccumulator",
    "PerformanceGoal",
    "ViolationAccumulator",
    "default_goal",
    "goal_from_dict",
]
