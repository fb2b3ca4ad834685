"""Baseline schedulers WiSeDB is compared against (Sections 3 and 7.2)."""

from repro.baselines.first_fit import (
    FirstFitDecreasingScheduler,
    FirstFitIncreasingScheduler,
    FirstFitScheduler,
)
from repro.baselines.pack9 import Pack9Scheduler

__all__ = [
    "FirstFitDecreasingScheduler",
    "FirstFitIncreasingScheduler",
    "FirstFitScheduler",
    "Pack9Scheduler",
]
