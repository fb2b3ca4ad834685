"""The multi-tenant workload-management service.

:class:`WiSeDBService` is the system-level entry point the ROADMAP's
production north star asks for: one process serving many applications
("tenants"), each described by a :class:`TenantSpec` — templates, VM
catalogue, performance goal, and training configuration — with trained
decision models managed as persistent, fingerprint-addressed artifacts in a
:class:`~repro.service.registry.ModelRegistry`.

Training goes through the registry:

* an exact fingerprint hit skips training entirely (the stored model is
  bit-identical to what a fresh run would produce — fingerprints cover every
  input that affects output);
* when only the goal changed (same base fingerprint), the stored sample
  workloads and optimal costs seed :class:`~repro.adaptive.retraining.AdaptiveModeler`,
  the paper's Section-5 machinery, instead of a from-scratch run;
* otherwise the tenant trains fresh, and the result is registered for every
  later service (or process) to reuse.

Whatever the path, the per-sample A* solves fan out through **one shared
execution backend** (:mod:`repro.parallel`): the service lazily spawns a warm
process pool (or injects the caller's) and every tenant's training *and*
adaptive retraining reuses it, so a :meth:`WiSeDBService.train_all` sweep —
or the many-small-retrainings pattern of Section 5 — pays pool start-up at
most once.  ``service.close()`` (or a ``with`` block) releases the workers.

Scheduling speaks the unified :class:`~repro.core.scheduler.Scheduler`
protocol: batch and online runs both return a
:class:`~repro.core.scheduler.SchedulingOutcome`, so callers handle every
scheduler family with the same code.  ``save``/``load`` round-trip an entire
service — tenant specs plus trained models — through a directory, and the
restored tenants schedule bit-identically to the originals.
"""

from __future__ import annotations

import json
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Mapping

from repro.adaptive.recommendation import Strategy, StrategyRecommender
from repro.adaptive.retraining import AdaptiveModeler, AdaptiveRetrainingReport
from repro.baselines.first_fit import FirstFitDecreasingScheduler
from repro.cloud.latency import (
    LatencyModel,
    TemplateLatencyModel,
    latency_model_from_dict,
    latency_model_to_dict,
)
from repro.cloud.vm import VMTypeCatalog, single_vm_type_catalog
from repro.config import TrainingConfig
from repro.core.cost_model import CostBreakdown, CostModel
from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulingOutcome
from repro.exceptions import (
    ConcurrencyError,
    SpecificationError,
    StorageError,
    TrainingError,
    WiSeDBError,
)
from repro.faults.plan import FaultPlan
from repro.learning.model import DecisionModel
from repro.learning.trainer import ModelGenerator, TrainingResult
from repro.parallel.backend import ExecutionBackend, backend_for, resolve_n_jobs
from repro.runtime.batch import BatchScheduler
from repro.runtime.online import OnlineOptimizations, OnlineScheduler
from repro.search.bounds import create_future_bound
from repro.service.registry import ModelRegistry, fingerprint_payload
from repro.service.storage import RunRecord, TenantRunSummary
from repro.sla.base import PerformanceGoal
from repro.sla.factory import goal_from_dict
from repro.workloads.templates import TemplateSet
from repro.workloads.workload import Workload

#: Format marker written into a saved service's manifest.
SERVICE_FORMAT = "wisedb-service"


@dataclass(frozen=True)
class TenantSpec:
    """Everything that defines one tenant's workload-management problem.

    The spec is the unit the registry fingerprints: two tenants with equal
    specs (names aside) share one trained model.  ``latency_model`` defaults
    to the deterministic template model; custom models are tabulated over the
    specification grid when serialized, so restored specs price schedules
    bit-identically.
    """

    name: str
    templates: TemplateSet
    goal: PerformanceGoal
    vm_types: VMTypeCatalog = field(default_factory=single_vm_type_catalog)
    config: TrainingConfig = field(default_factory=TrainingConfig.fast)
    latency_model: LatencyModel | None = None

    def resolved_latency_model(self) -> LatencyModel:
        """The latency model in effect (template-derived when unspecified)."""
        return self.latency_model or TemplateLatencyModel(self.templates)

    # -- fingerprinting ----------------------------------------------------------

    def _base_payload(self) -> dict:
        return {
            "templates": self.templates.to_dict(),
            "vm_types": self.vm_types.to_dict(),
            "config": self.config.to_dict(),
            "latency_model": latency_model_to_dict(
                self.resolved_latency_model(), self.templates, self.vm_types
            ),
        }

    def fingerprint(self) -> str:
        """Content fingerprint of the full spec (the registry's primary key)."""
        payload = self._base_payload()
        payload["goal"] = self.goal.to_dict()
        return fingerprint_payload(payload)

    def base_fingerprint(self) -> str:
        """Fingerprint of everything but the goal (the adaptive-reuse key)."""
        return fingerprint_payload(self._base_payload())

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation (used by the service manifest)."""
        payload = self._base_payload()
        payload["name"] = self.name
        payload["goal"] = self.goal.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Mapping, n_jobs: int = 1) -> "TenantSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        templates = TemplateSet.from_dict(data["templates"])
        latency_data = data.get("latency_model", {"type": "template"})
        latency_model = latency_model_from_dict(latency_data, templates)
        if latency_data.get("type") == "template":
            # The default model is implied by the templates; keep the field at
            # None so re-serialization (and fingerprints) stay stable.
            latency_model = None
        return cls(
            name=data["name"],
            templates=templates,
            goal=goal_from_dict(data["goal"]),
            vm_types=VMTypeCatalog.from_dict(data["vm_types"]),
            config=TrainingConfig.from_dict(dict(data["config"]), n_jobs=n_jobs),
            latency_model=latency_model,
        )


class Tenant:
    """One registered application: its spec, generator, and trained model.

    ``backend_factory`` optionally supplies the execution backend the tenant's
    generator fans sample solves out through — the service passes its shared
    warm pool here, so one set of worker processes trains and retrains every
    tenant.  Standalone tenants (no factory) let the generator own a backend
    derived from the spec's training configuration.
    """

    def __init__(self, spec: TenantSpec, backend_factory=None) -> None:
        self.spec = spec
        #: The most recent training result (``None`` until trained).
        self.training: TrainingResult | None = None
        #: How the current model was obtained: "fresh", "adaptive", or "registry".
        self.provenance: str | None = None
        self._generator: ModelGenerator | None = None
        self._backend_factory = backend_factory
        self._write_lock = threading.Lock()
        self._write_operation: str | None = None

    @property
    def name(self) -> str:
        """The tenant's registered name."""
        return self.spec.name

    @property
    def generator(self) -> ModelGenerator:
        """The tenant's model generator (built lazily from the spec)."""
        if self._generator is None:
            backend = self._backend_factory() if self._backend_factory else None
            self._generator = ModelGenerator(
                templates=self.spec.templates,
                vm_types=self.spec.vm_types,
                latency_model=self.spec.resolved_latency_model(),
                config=self.spec.config,
                backend=backend,
            )
        return self._generator

    @property
    def is_trained(self) -> bool:
        """Whether the tenant currently holds a trained model."""
        return self.training is not None

    @property
    def model(self) -> DecisionModel:
        """The tenant's decision model (raises until trained)."""
        if self.training is None:
            raise TrainingError(
                f"tenant {self.spec.name!r} has no trained model yet; call train()"
            )
        return self.training.model

    def replace_spec(self, **changes) -> None:
        """Swap spec fields (e.g. the goal), dropping the trained model."""
        self.spec = replace(self.spec, **changes)
        self.training = None
        self.provenance = None
        self._generator = None

    @contextmanager
    def exclusive(self, operation: str) -> Iterator[None]:
        """Hold the tenant's single-writer guard for the duration of *operation*.

        A tenant's online-scheduling state (rented VMs, the wait queue, model
        caches) is mutable and single-writer: two concurrent ``run_online``
        calls would interleave it silently.  The guard makes that loud — a
        second writer gets :class:`~repro.exceptions.ConcurrencyError` naming
        the operation already in flight instead of corrupted state.  The
        serving engine holds this guard for its whole lane lifetime, which is
        why direct scheduling calls against an actively served tenant are
        refused.
        """
        if not self._write_lock.acquire(blocking=False):
            raise ConcurrencyError(
                f"tenant {self.spec.name!r} is busy inside "
                f"{self._write_operation!r}; its online state is single-writer "
                f"— serialize per-tenant calls (refused: {operation!r})"
            )
        self._write_operation = operation
        try:
            yield
        finally:
            self._write_operation = None
            self._write_lock.release()


class WiSeDBService:
    """A multi-tenant WiSeDB deployment backed by a persistent model registry."""

    def __init__(
        self,
        registry: ModelRegistry | str | Path | None = None,
        n_jobs: int | None = None,
        backend: ExecutionBackend | None = None,
        degraded_fallback: bool = True,
    ) -> None:
        """``registry`` may be an instance, a directory path, or ``None``
        (process-local registry).  ``n_jobs`` is the default worker count
        applied to every registered tenant's training configuration; output is
        bit-identical for any value, so it is purely a wall-clock knob.
        ``backend`` optionally injects the execution backend every tenant's
        training and retraining fans out through; when omitted the service
        lazily creates — and owns — one shared warm backend sized by
        ``n_jobs`` (or, if that is ``None``, by the widest tenant
        configuration at first use), so consecutive (re)trainings across
        tenants reuse one set of worker processes.  ``degraded_fallback``
        keeps scheduling available when a tenant's learned path fails (model
        missing/corrupt, training error, repeated placement failure): the
        request is served by the model-free FFD heuristic instead, and the
        outcome is stamped ``degraded`` with the triggering error.  Set it to
        False to surface such errors to the caller unchanged.
        """
        if isinstance(registry, (str, Path)):
            registry = ModelRegistry(registry)
        self._registry = registry if registry is not None else ModelRegistry()
        self._n_jobs = n_jobs
        self._tenants: dict[str, Tenant] = {}
        self._backend = backend
        self._owns_backend = False
        self._degraded_fallback = degraded_fallback

    # -- registry and tenant access --------------------------------------------------

    @property
    def registry(self) -> ModelRegistry:
        """The model registry backing this service."""
        return self._registry

    @property
    def degraded_fallback(self) -> bool:
        """Whether a failing learned path degrades to the FFD heuristic."""
        return self._degraded_fallback

    # -- the shared execution backend --------------------------------------------------

    @property
    def backend(self) -> ExecutionBackend:
        """The shared execution backend (created lazily when not injected).

        One warm :class:`~repro.parallel.backend.ProcessPoolBackend` (or the
        serial backend when every configuration resolves to one worker)
        serves every tenant: :meth:`train_all` fans each tenant's sample
        solves out through it, and adaptive retrainings reuse it too.  An
        owned backend is sized by the service's ``n_jobs`` (or, if that is
        ``None``, the widest registered tenant configuration) and *grows* if
        a wider tenant registers later — tenant generators are rebuilt around
        the replacement, so no configuration silently trains capped.
        """
        n_jobs = self._n_jobs
        if n_jobs is None:
            n_jobs = max(
                (
                    tenant.spec.config.effective_n_jobs()
                    for tenant in self._tenants.values()
                ),
                default=1,
            )
        required = resolve_n_jobs(n_jobs)
        if (
            self._backend is not None
            and self._owns_backend
            and required > getattr(self._backend, "n_jobs", 1)
        ):
            self._backend.close()
            self._backend = None
            for tenant in self._tenants.values():
                tenant._generator = None
        if self._backend is None:
            self._backend = backend_for(required)
            self._owns_backend = True
        return self._backend

    def close(self) -> None:
        """Shut down the service's owned backend (idempotent).

        Injected backends belong to the caller and stay open.  Tenant
        generators holding the released backend are dropped so later training
        transparently builds a fresh shared backend.
        """
        if self._owns_backend and self._backend is not None:
            self._backend.close()
        self._backend = None
        self._owns_backend = False
        for tenant in self._tenants.values():
            tenant._generator = None

    def __enter__(self) -> "WiSeDBService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def tenant(self, name: str) -> Tenant:
        """The tenant registered under *name* (raises if unknown)."""
        try:
            return self._tenants[name]
        except KeyError:
            raise SpecificationError(f"unknown tenant: {name!r}") from None

    def tenant_names(self) -> tuple[str, ...]:
        """All registered tenant names, in registration order."""
        return tuple(self._tenants)

    def __contains__(self, name: object) -> bool:
        return name in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self._tenants.values())

    # -- tenant lifecycle -------------------------------------------------------------

    def register(
        self,
        name: str,
        templates: TemplateSet,
        goal: PerformanceGoal,
        vm_types: VMTypeCatalog | None = None,
        latency_model: LatencyModel | None = None,
        config: TrainingConfig | None = None,
        replace_existing: bool = False,
        search_strategy: str | None = None,
        future_bound: str | None = None,
    ) -> Tenant:
        """Register a tenant; its model is trained on the first :meth:`train`.

        ``search_strategy`` / ``future_bound`` override the configuration's
        search engine for this tenant (see :mod:`repro.search.strategy` and
        :mod:`repro.search.bounds`) — e.g. ``search_strategy="beam:32"`` for
        a tenant whose workloads are too large for exact training searches,
        or ``future_bound="tight"`` to cut node counts under percentile or
        average goals.  Both knobs are part of the spec fingerprint, so
        tenants trained under different engines never share registry
        artifacts.
        """
        if name in self._tenants and not replace_existing:
            raise SpecificationError(
                f"tenant {name!r} is already registered "
                "(pass replace_existing=True to overwrite)"
            )
        config = config or TrainingConfig.fast()
        if self._n_jobs is not None:
            config = config.with_n_jobs(self._n_jobs)
        if search_strategy is not None:
            config = config.with_search_strategy(search_strategy)
        if future_bound is not None:
            config = config.with_future_bound(future_bound)
        # Fail at registration, not deep inside a (possibly worker-process)
        # training call: resolve both engine specs through their registries.
        config.create_search_strategy()
        create_future_bound(config.future_bound)
        spec = TenantSpec(
            name=name,
            templates=templates,
            goal=goal,
            vm_types=vm_types or single_vm_type_catalog(),
            config=config,
            latency_model=latency_model,
        )
        tenant = Tenant(spec, backend_factory=lambda: self.backend)
        self._tenants[name] = tenant
        return tenant

    def update_goal(self, name: str, goal: PerformanceGoal) -> Tenant:
        """Change a tenant's performance goal.

        The trained model is dropped; the next :meth:`train` reuses the old
        goal's registered artifact to retrain adaptively (Section 5) instead
        of starting from scratch.
        """
        tenant = self.tenant(name)
        tenant.replace_spec(goal=goal)
        return tenant

    def remove(self, name: str) -> None:
        """Deregister a tenant (its registry artifacts remain addressable)."""
        self.tenant(name)
        del self._tenants[name]

    # -- training ----------------------------------------------------------------------

    def train(self, name: str, mode: str = "auto") -> TrainingResult:
        """Ensure the tenant holds a trained model and return the result.

        ``mode="auto"`` (the default) consults the registry: an exact
        fingerprint hit skips training, a base-fingerprint hit (same spec,
        different goal) retrains adaptively from the stored samples, and only
        a complete miss trains fresh.  ``mode="fresh"`` skips the adaptive
        path and only accepts exact hits whose artifact was itself trained
        from scratch (those are bit-identical to retraining by construction;
        adaptively-derived artifacts are cost-equivalent but may differ in
        tie-breaking, so fresh mode retrains over them).  Every result is
        registered for later reuse, tagged with its provenance.
        """
        if mode not in ("auto", "fresh"):
            raise SpecificationError(f"unknown training mode: {mode!r}")
        tenant = self.tenant(name)
        if tenant.training is not None:
            return tenant.training
        spec = tenant.spec
        fingerprint = spec.fingerprint()
        base_fingerprint = spec.base_fingerprint()
        n_jobs = spec.config.n_jobs

        cached = self._registry.get(fingerprint, n_jobs=n_jobs)
        if cached is not None and (
            mode == "auto" or self._registry.provenance(fingerprint) == "fresh"
        ):
            tenant.training = cached
            tenant.provenance = "registry"
            return cached

        result = None
        trained_how = "fresh"
        if mode == "auto":
            base = self._registry.find_base(
                base_fingerprint, exclude=(fingerprint,), n_jobs=n_jobs
            )
            if base is not None and base.workloads:
                try:
                    result, _ = AdaptiveModeler(tenant.generator, base).retrain(
                        spec.goal
                    )
                    trained_how = "adaptive"
                except TrainingError:
                    # The shifted goal proved infeasible on the stored samples;
                    # fall back to a fresh run below.
                    result = None
        if result is None:
            result = tenant.generator.generate(spec.goal)
            trained_how = "fresh"

        self._registry.put(
            fingerprint,
            base_fingerprint,
            spec.to_dict(),
            result,
            provenance=trained_how,
        )
        tenant.training = result
        tenant.provenance = trained_how
        return result

    def train_all(self, mode: str = "auto") -> dict[str, TrainingResult]:
        """Train every registered tenant; returns results keyed by name.

        Every tenant's sample solves fan out through the one shared
        :attr:`backend`, so the pool is spawned at most once for the whole
        sweep — fresh trainings, adaptive retrainings, and registry hits all
        reuse the same warm workers.
        """
        return {name: self.train(name, mode=mode) for name in self._tenants}

    def training(self, name: str) -> TrainingResult:
        """The tenant's training result (training on demand)."""
        return self.train(name)

    def model(self, name: str) -> DecisionModel:
        """The tenant's decision model (training on demand)."""
        return self.train(name).model

    def adapt(
        self, name: str, new_goal: PerformanceGoal
    ) -> tuple[TrainingResult, AdaptiveRetrainingReport]:
        """Derive (and register) a model for *new_goal* without switching to it.

        The tenant keeps its current goal and model; use :meth:`update_goal`
        followed by :meth:`train` to actually move the tenant — the artifact
        registered here then turns that into a cache hit.
        """
        tenant = self.tenant(name)
        base = self.train(name)
        result, report = AdaptiveModeler(tenant.generator, base).retrain(new_goal)
        adapted_spec = replace(tenant.spec, goal=new_goal)
        self._registry.put(
            adapted_spec.fingerprint(),
            adapted_spec.base_fingerprint(),
            adapted_spec.to_dict(),
            result,
            provenance="adaptive",
        )
        return result, report

    def recommend_strategies(
        self,
        name: str,
        k: int = 3,
        num_candidates: int = 7,
        max_shift: float = 0.5,
    ) -> list[Strategy]:
        """Recommend ``k`` alternative strategies for the tenant (Section 5.2)."""
        tenant = self.tenant(name)
        recommender = StrategyRecommender(
            tenant.generator,
            self.train(name),
            num_candidates=num_candidates,
            max_shift=max_shift,
        )
        return recommender.recommend(k)

    # -- scheduling (the unified protocol) ---------------------------------------------

    def batch_scheduler(self, name: str) -> BatchScheduler:
        """A batch scheduler over the tenant's model (trains on demand)."""
        return BatchScheduler(self.model(name))

    def online_scheduler(
        self,
        name: str,
        optimizations: OnlineOptimizations | None = None,
        wait_resolution: float = 30.0,
        fault_plan: FaultPlan | None = None,
    ) -> OnlineScheduler:
        """An online scheduler over the tenant's model (trains on demand).

        ``fault_plan`` injects deterministic VM failures into the run (see
        :mod:`repro.faults`); ``None`` or an empty plan is fault-free.
        """
        tenant = self.tenant(name)
        return OnlineScheduler(
            base_training=self.train(name),
            generator=tenant.generator,
            optimizations=optimizations,
            wait_resolution=wait_resolution,
            fault_plan=fault_plan,
        )

    def schedule_batch(self, name: str, workload: Workload) -> SchedulingOutcome:
        """Schedule a batch for the tenant; returns the unified outcome.

        When the learned path fails (missing/corrupt model artifact, training
        error, placement failure) and ``degraded_fallback`` is enabled, the
        batch is served by the FFD heuristic instead and the outcome is
        stamped ``degraded`` with the triggering error.
        """
        tenant = self.tenant(name)
        # The guard sits outside the degraded-fallback net on purpose: a
        # concurrent-writer refusal is caller misuse, not a learned-path
        # failure, and must never be papered over by the FFD heuristic.
        with tenant.exclusive("schedule_batch"):
            try:
                outcome = self.batch_scheduler(name).run(workload)
            except WiSeDBError as error:
                if not self._degraded_fallback:
                    raise
                outcome = self._degraded_outcome(tenant, workload, error)
        self._record_history(name, outcome, "batch")
        return outcome

    def run_online(
        self,
        name: str,
        workload: Workload,
        optimizations: OnlineOptimizations | None = None,
        wait_resolution: float = 30.0,
        fault_plan: FaultPlan | None = None,
    ) -> SchedulingOutcome:
        """Run the tenant's online scheduler; returns the unified outcome.

        ``fault_plan`` injects deterministic VM failures (see
        :mod:`repro.faults`).  Like :meth:`schedule_batch`, a failing learned
        path degrades to the FFD heuristic when ``degraded_fallback`` is
        enabled (the heuristic run itself is fault-free: it prices the
        workload as one batch, which is the conservative upper bound the
        degraded stamp advertises).
        """
        tenant = self.tenant(name)
        with tenant.exclusive("run_online"):
            try:
                outcome = self.online_scheduler(
                    name,
                    optimizations=optimizations,
                    wait_resolution=wait_resolution,
                    fault_plan=fault_plan,
                ).run(workload)
            except WiSeDBError as error:
                if not self._degraded_fallback:
                    raise
                outcome = self._degraded_outcome(tenant, workload, error)
        self._record_history(name, outcome, "online")
        return outcome

    def _record_history(
        self, tenant_name: str, outcome: SchedulingOutcome, source: str
    ) -> None:
        """Log *outcome* to the registry's run history (never breaks scheduling)."""
        try:
            self._registry.record_outcome(tenant_name, outcome, source)
        except StorageError as error:
            warnings.warn(
                f"run-history write for tenant {tenant_name!r} failed ({error}); "
                "the scheduling outcome is returned but was not recorded",
                RuntimeWarning,
                stacklevel=3,
            )

    def history(
        self,
        tenant: str | None = None,
        goal_kind: str | None = None,
        source: str | None = None,
        limit: int | None = None,
    ) -> tuple[RunRecord, ...]:
        """Recorded scheduling outcomes, oldest first (see the registry log).

        Every :meth:`schedule_batch` and :meth:`run_online` call appends one
        row — tenant, goal kind, cost breakdown, degraded flag, overhead
        counters — so per-tenant cost and SLA compliance are queryable over
        time.  Filter by *tenant*, *goal_kind*, or *source* (``"batch"`` /
        ``"online"`` / ``"serving"``); ``limit`` keeps the most recent N.
        """
        return self._registry.history(
            tenant=tenant, goal_kind=goal_kind, source=source, limit=limit
        )

    def run_summaries(self) -> dict[str, TenantRunSummary]:
        """Per-tenant aggregates (runs, mean cost, SLA compliance) over all history."""
        return self._registry.tenant_summaries()

    def _degraded_outcome(
        self, tenant: Tenant, workload: Workload, error: WiSeDBError
    ) -> SchedulingOutcome:
        """Serve *workload* with the model-free FFD heuristic, stamped degraded."""
        spec = tenant.spec
        fallback = FirstFitDecreasingScheduler(
            vm_type=spec.vm_types.default,
            goal=spec.goal,
            latency_model=spec.resolved_latency_model(),
        )
        outcome = fallback.run(workload)
        return replace(
            outcome,
            degraded=True,
            degraded_reason=f"{type(error).__name__}: {error}",
        )

    def evaluate(
        self, name: str, schedule: Schedule, goal: PerformanceGoal | None = None
    ) -> CostBreakdown:
        """Price *schedule* with Equation 1 under the tenant's (or a given) goal."""
        tenant = self.tenant(name)
        cost_model = CostModel(tenant.spec.resolved_latency_model())
        return cost_model.breakdown(schedule, goal or tenant.spec.goal)

    # -- persistence --------------------------------------------------------------------

    def save(self, directory: str | Path) -> Path:
        """Persist the service — tenant specs and trained models — to *directory*.

        Layout: ``tenants.json`` (the manifest) plus ``models/``, one
        ``<fingerprint>.json`` artifact per trained model, written by
        :meth:`ModelRegistry.export_json` — no database, so the saved
        deployment stays plain, diffable files.  Untrained tenants are saved
        spec-only.  The directory is self-contained: :meth:`load` restores an
        equivalent service whose tenants schedule bit-identically.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        trained = ModelRegistry()  # scratch, in memory: only what gets exported
        manifest = []
        for tenant in self._tenants.values():
            spec = tenant.spec
            entry = {
                "spec": spec.to_dict(),
                "fingerprint": spec.fingerprint(),
                "trained": tenant.is_trained,
            }
            if tenant.training is not None:
                if tenant.provenance in ("fresh", "adaptive"):
                    trained_how = tenant.provenance
                else:  # served from the registry: carry its recorded provenance
                    trained_how = (
                        self._registry.provenance(spec.fingerprint()) or "fresh"
                    )
                trained.put(
                    spec.fingerprint(),
                    spec.base_fingerprint(),
                    spec.to_dict(),
                    tenant.training,
                    provenance=trained_how,
                )
            manifest.append(entry)
        trained.export_json(directory / "models")
        trained.close()
        path = directory / "tenants.json"
        path.write_text(
            json.dumps(
                {"format": SERVICE_FORMAT, "version": 1, "tenants": manifest}
            ),
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, directory: str | Path, n_jobs: int | None = None) -> "WiSeDBService":
        """Restore a service previously written by :meth:`save`.

        Trained tenants come back trained: the registry opened over
        ``models/`` imports the saved artifacts once (into a ``registry.db``
        it creates there), and each model is an exact fingerprint hit, so
        nothing retrains.
        """
        directory = Path(directory)
        manifest_path = directory / "tenants.json"
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
        if data.get("format") != SERVICE_FORMAT:
            raise SpecificationError(f"{manifest_path} is not a saved WiSeDB service")
        service = cls(registry=directory / "models", n_jobs=n_jobs)
        for entry in data["tenants"]:
            spec = TenantSpec.from_dict(entry["spec"])
            fingerprint = spec.fingerprint()
            stored_fingerprint = entry.get("fingerprint", fingerprint)
            if stored_fingerprint != fingerprint:
                raise SpecificationError(
                    f"tenant {spec.name!r}: the manifest's spec no longer matches "
                    f"its recorded fingerprint ({stored_fingerprint[:12]}… vs "
                    f"{fingerprint[:12]}…); the saved deployment was modified"
                )
            if n_jobs is not None:
                spec = replace(spec, config=spec.config.with_n_jobs(n_jobs))
            service._tenants[spec.name] = Tenant(
                spec, backend_factory=lambda: service.backend
            )
            if entry.get("trained"):
                if service._registry.get(fingerprint, n_jobs=spec.config.n_jobs) is None:
                    raise SpecificationError(
                        f"tenant {spec.name!r} was saved trained but its model "
                        f"artifact {fingerprint[:12]}….json is missing or corrupt "
                        f"under {directory / 'models'}; restore the models/ "
                        "directory or re-register and retrain the tenant"
                    )
                service.train(spec.name)
        return service
