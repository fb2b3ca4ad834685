"""Service layer: multi-tenant workload management over persistent models.

This package is the production-facing API of the reproduction (the paper's
Figure-1 components behind one long-lived process):

* :class:`WiSeDBService` — manages named tenants, each a
  (templates, VM catalogue, goal, trained model) tuple, and schedules their
  workloads through the unified :class:`~repro.core.scheduler.Scheduler`
  protocol;
* :class:`ModelRegistry` — fingerprint-addressed persistence for training
  results: exact hits skip retraining, same-spec/different-goal hits seed
  adaptive retraining (Section 5);
* :class:`TenantSpec` / :class:`Tenant` — the specification and runtime state
  of one application.
"""

from repro.service.registry import (
    GCReport,
    ModelRegistry,
    canonical_json,
    fingerprint_payload,
)
from repro.service.service import Tenant, TenantSpec, WiSeDBService
from repro.service.storage import (
    RunRecord,
    SQLiteStore,
    TenantRunSummary,
)

__all__ = [
    "GCReport",
    "ModelRegistry",
    "RunRecord",
    "SQLiteStore",
    "Tenant",
    "TenantRunSummary",
    "TenantSpec",
    "WiSeDBService",
    "canonical_json",
    "fingerprint_payload",
]
