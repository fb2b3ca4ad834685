"""Runtime functionality: batch scheduling, online scheduling, cost estimation (Section 6)."""

from repro.runtime.batch import (
    BatchScheduler,
    BatchSchedulingResult,
    RuntimeSchedulingContext,
)
from repro.runtime.estimator import (
    CostEstimator,
    per_template_cost_profile,
)
from repro.runtime.online import (
    OnlineOptimizations,
    OnlineScheduler,
    OnlineSchedulingReport,
    ScheduledQueryRecord,
)

__all__ = [
    "BatchScheduler",
    "BatchSchedulingResult",
    "CostEstimator",
    "OnlineOptimizations",
    "OnlineScheduler",
    "OnlineSchedulingReport",
    "RuntimeSchedulingContext",
    "ScheduledQueryRecord",
    "per_template_cost_profile",
]
