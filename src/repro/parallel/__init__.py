"""Shared execution backends for the embarrassingly parallel training solves.

See :mod:`repro.parallel.backend` for the protocol and the warm process pool
that :class:`~repro.learning.trainer.ModelGenerator`,
:class:`~repro.adaptive.retraining.AdaptiveModeler`, and
:class:`~repro.service.service.WiSeDBService` fan work out through.
"""

from repro.parallel.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    available_cpus,
    backend_for,
    resolve_n_jobs,
)

__all__ = [
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "available_cpus",
    "backend_for",
    "resolve_n_jobs",
]
