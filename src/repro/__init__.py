"""WiSeDB: a learning-based workload management advisor for cloud databases.

This package reproduces the system described in

    Ryan Marcus and Olga Papaemmanouil.
    "WiSeDB: A Learning-based Workload Management Advisor for Cloud Databases."
    PVLDB 9(10), 2016 (arXiv:1601.08221).

The public API is service-oriented: models are trained once, persisted as
fingerprint-addressed artifacts, and shared across tenants and processes,
while every scheduler family — learned batch, learned online, and the
heuristic baselines — answers through one protocol:

* :class:`repro.service.WiSeDBService` — the entry point: register named
  tenants (templates + VM catalogue + performance goal), train through the
  :class:`repro.service.ModelRegistry` (exact fingerprint hits skip training;
  goal-only changes retrain adaptively per Section 5), schedule batch and
  online workloads, and ``save``/``load`` whole deployments;
* :class:`repro.core.Scheduler` / :class:`repro.core.SchedulingOutcome` — the
  unified scheduling protocol and its common result (schedule, Equation-1
  cost breakdown, per-query records, overhead counters);
* :mod:`repro.workloads` — query templates, workloads, and workload generators.
* :mod:`repro.cloud` — the IaaS substrate (VM types, latency models, simulator).
* :mod:`repro.sla` — the four supported performance goals and their penalties.
* :mod:`repro.search` — the scheduling graph and A* optimal-schedule search.
* :mod:`repro.learning` — feature extraction, decision-tree learning, training.
* :mod:`repro.adaptive` — adaptive modeling and strategy recommendation.
* :mod:`repro.parallel` — the execution backends (one warm process pool, or
  serial) the embarrassingly parallel training solves fan out through.
* :mod:`repro.runtime` — batch and online schedulers, cost estimation.
* :mod:`repro.baselines` — FFD, FFI and Pack9 reference schedulers.
* :mod:`repro.evaluation` — the experiment harness behind ``benchmarks/``.

Quickstart::

    from repro import WiSeDBService, tpch_templates
    from repro.config import TrainingConfig
    from repro.sla import MaxLatencyGoal, PercentileGoal
    from repro.workloads import WorkloadGenerator

    templates = tpch_templates(5)
    service = WiSeDBService(registry="./models", n_jobs=-1)
    service.register("acme", templates,
                     MaxLatencyGoal.from_factor(templates),
                     config=TrainingConfig.fast())
    service.register("globex", templates,
                     PercentileGoal.from_factor(templates),
                     config=TrainingConfig.fast())
    service.train_all()          # registry hits / adaptive retrains when possible
    workload = WorkloadGenerator(templates, seed=1).uniform(50)
    outcome = service.schedule_batch("acme", workload)
    print(outcome.describe(), outcome.total_cost, "cents")
    service.save("./deployment")  # reload later: WiSeDBService.load(...)

The optimal-schedule search itself runs on an incremental-penalty core: each
A* vertex carries a copy-on-write violation accumulator over interned
latency/cost tables, whose state also keys the non-monotonic future-cost
bounds' memo, so penalties, Equation-2 edge weights, and those bounds are
O(1)-ish deltas rather than rescans of the partial schedule (see
:mod:`repro.search.problem`).
"""

from repro.config import TrainingConfig
from repro.parallel.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.core.cost_model import CostBreakdown, CostModel
from repro.core.schedule import Schedule, VMAssignment
from repro.core.scheduler import Scheduler, SchedulerOverhead, SchedulingOutcome
from repro.service.registry import ModelRegistry
from repro.service.service import Tenant, TenantSpec, WiSeDBService
from repro.workloads.templates import QueryTemplate, TemplateSet, tpch_templates
from repro.workloads.workload import Workload

__version__ = "2.0.0"

__all__ = [
    "CostBreakdown",
    "CostModel",
    "ExecutionBackend",
    "ModelRegistry",
    "ProcessPoolBackend",
    "SerialBackend",
    "QueryTemplate",
    "Schedule",
    "Scheduler",
    "SchedulerOverhead",
    "SchedulingOutcome",
    "TemplateSet",
    "Tenant",
    "TenantSpec",
    "TrainingConfig",
    "VMAssignment",
    "WiSeDBService",
    "Workload",
    "__version__",
    "tpch_templates",
]
