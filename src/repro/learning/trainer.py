"""The model-generation pipeline of Figure 4.

Given a workload specification (templates + VM catalogue) and a performance
goal, :class:`ModelGenerator` executes the paper's offline training loop:

1. draw ``N`` random sample workloads of ``m`` queries (Section 4.2);
2. find the minimum-cost schedule of each sample with A* over the scheduling
   graph (Section 4.3);
3. convert every decision on every optimal path into a labelled training
   example (Section 4.4);
4. fit a C4.5-style decision tree on the combined training set (Section 4.5).

The returned :class:`TrainingResult` keeps the training set and the per-sample
solutions so that the adaptive-modeling machinery (Section 5) can re-derive
models for stricter goals without re-generating workloads or re-searching from
scratch.  Each :class:`SampleSolution` records its optimal cost and
:attr:`~SampleSolution.path`, the action labels of the schedule found; given
one as ``keep``, :meth:`SampleSolver.solve` first re-prices that path under
its own goal and searches only if the cost moved
(:mod:`repro.adaptive.retraining` explains why equal cost means still
optimal, and guards when it may be asked).

Parallel training
-----------------

The per-sample A* solves are embarrassingly parallel (each sample's scheduling
graph is independent), so step 2 fans out through an
:class:`~repro.parallel.backend.ExecutionBackend` when
:attr:`~repro.config.TrainingConfig.n_jobs` is not 1.  The backend is *shared
and persistent*: a generator (or a whole
:class:`~repro.service.service.WiSeDBService`) holds one warm
:class:`~repro.parallel.backend.ProcessPoolBackend` and reuses it across
``generate``/``retrain`` calls, so repeated trainings no longer pay per-call
pool start-up.  The driver reassembles results **in sample order**, so the
training set, the fitted tree, and every downstream artefact are bit-identical
for any ``n_jobs`` value and any backend (asserted by the determinism tests).
Environments where process pools are unavailable fall back to the sequential
path transparently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.cloud.latency import LatencyModel, TemplateLatencyModel
from repro.cloud.vm import VMTypeCatalog, single_vm_type_catalog
from repro.config import TrainingConfig
from repro.exceptions import SearchBudgetExceeded, TrainingError
from repro.learning.dataset import TrainingExample, TrainingSet, examples_from_matrix
from repro.learning.decision_tree import DecisionTreeClassifier
from repro.learning.features import FEATURE_FAMILIES, FeatureExtractor
from repro.learning.model import DecisionModel, ModelMetadata
from repro.learning.sampling import training_workloads
from repro.parallel.backend import ExecutionBackend, backend_for
from repro.search.astar import SearchResult, astar_search, optimality_ratio
from repro.search.problem import SchedulingProblem, SearchNode
from repro.search.strategy import SearchStrategy, strategy_from_spec
from repro.sla.base import PerformanceGoal
from repro.workloads.templates import TemplateSet
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class SampleSolution:
    """The solution of one training sample (kept for adaptive reuse).

    ``optimal_cost`` is the achieved schedule cost; under the exact default
    strategy it is provably minimal.  Relaxed strategies additionally record
    ``cost_lower_bound`` — a sound lower bound on the true optimum — so the
    per-sample suboptimality is never silent (``None`` means exact).
    ``path`` is the action labels of the schedule found, in order — what
    :meth:`SchedulingProblem.follow <repro.search.problem.SchedulingProblem.follow>`
    re-prices under a stricter goal instead of searching again; ``()`` in
    artifacts written before paths were kept, which simply re-search.
    """

    template_counts: dict[str, int]
    optimal_cost: float
    expansions: int
    cost_lower_bound: float | None = None
    path: tuple[str, ...] = ()

    @property
    def optimality_ratio(self) -> float:
        """``cost / optimal-lower-bound`` (1.0 when the solve was exact)."""
        return optimality_ratio(self.optimal_cost, self.cost_lower_bound)

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        data = {
            "template_counts": dict(self.template_counts),
            "optimal_cost": self.optimal_cost,
            "expansions": self.expansions,
        }
        if self.cost_lower_bound is not None:
            data["cost_lower_bound"] = self.cost_lower_bound
        if self.path:
            data["path"] = list(self.path)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SampleSolution":
        """Rebuild a sample solution from :meth:`to_dict` output."""
        return cls(
            template_counts=dict(data["template_counts"]),
            optimal_cost=data["optimal_cost"],
            expansions=data["expansions"],
            cost_lower_bound=data.get("cost_lower_bound"),
            path=tuple(data.get("path", ())),
        )


def worst_sample_optimality_ratio(samples: "Sequence[SampleSolution]") -> float:
    """Worst per-sample cost-vs-optimal ratio (1.0 when every solve was exact).

    The single definition behind :attr:`TrainingResult.worst_optimality_ratio`
    and the metadata stamp on fresh *and* adaptively retrained models, so the
    "relaxed strategies never degrade silently" contract has one source of
    truth.
    """
    return max((sample.optimality_ratio for sample in samples), default=1.0)


def stamp_optimality_ratio(metadata, samples: "Sequence[SampleSolution]") -> None:
    """Record a relaxed run's worst ratio in the model metadata (if any)."""
    worst = worst_sample_optimality_ratio(samples)
    if worst > 1.0:
        metadata.extra["worst_optimality_ratio"] = worst


@dataclass
class TrainingResult:
    """Everything produced by one training run."""

    model: DecisionModel
    training_set: TrainingSet
    samples: list[SampleSolution]
    goal: PerformanceGoal
    config: TrainingConfig
    training_time: float
    search_time: float
    fit_time: float
    skipped_samples: int = 0
    workloads: list[Workload] = field(default_factory=list)

    @property
    def num_examples(self) -> int:
        """Number of labelled decisions in the training set."""
        return len(self.training_set)

    @property
    def worst_optimality_ratio(self) -> float:
        """Worst per-sample cost-vs-optimal ratio (1.0 for exact strategies).

        Relaxed search strategies (weighted A*, beam) surface their quality
        loss here instead of silently training on degraded schedules.
        """
        return worst_sample_optimality_ratio(self.samples)

    # -- persistence -----------------------------------------------------------------

    def to_dict(self) -> dict:
        """Self-contained JSON-serializable representation of the training run.

        Besides the decision model itself, the sample workloads and their
        optimal costs are included so a restored result supports everything a
        fresh one does — in particular adaptive retraining
        (:class:`~repro.adaptive.retraining.AdaptiveModeler`) and the online
        scheduler's linear-shifting path, both of which re-search the stored
        samples.  Floats survive JSON exactly, so restored runs retrain and
        schedule bit-identically.
        """
        return {
            "format": "wisedb-training-result",
            "version": 1,
            "model": self.model.to_dict(),
            "training_set": self.training_set.to_dict(),
            "samples": [sample.to_dict() for sample in self.samples],
            "goal": self.goal.to_dict(),
            "config": self.config.to_dict(),
            "training_time": self.training_time,
            "search_time": self.search_time,
            "fit_time": self.fit_time,
            "skipped_samples": self.skipped_samples,
            "workloads": [workload.to_dict() for workload in self.workloads],
        }

    @classmethod
    def from_dict(cls, data: dict, n_jobs: int = 1) -> "TrainingResult":
        """Rebuild a training result from :meth:`to_dict` output.

        ``n_jobs`` seeds the restored configuration's worker count (it is not
        part of the serialized form because it never affects output).
        """
        if data.get("format") != "wisedb-training-result":
            raise TrainingError("not a serialized WiSeDB training result")
        model = DecisionModel.from_dict(data["model"])
        templates = model.templates
        return cls(
            model=model,
            training_set=TrainingSet.from_dict(data["training_set"]),
            samples=[SampleSolution.from_dict(entry) for entry in data["samples"]],
            goal=model.goal,
            config=TrainingConfig.from_dict(data["config"], n_jobs=n_jobs),
            training_time=data["training_time"],
            search_time=data["search_time"],
            fit_time=data["fit_time"],
            skipped_samples=data["skipped_samples"],
            workloads=[
                Workload.from_dict(entry, templates) for entry in data["workloads"]
            ],
        )


def collect_examples(
    problem: SchedulingProblem,
    extractor: FeatureExtractor,
    max_expansions: int | None = None,
    strategy: SearchStrategy | None = None,
) -> tuple[list[TrainingExample], SearchResult]:
    """Solve *problem* and label every decision on the solution path.

    ``strategy`` selects the search strategy (``None`` = the exact A*
    default, bit-identical to every prior release).  Feature rows are
    assembled through the extractor's batch
    :meth:`~repro.learning.features.FeatureExtractor.matrix` (one
    preallocated matrix for the whole solution path).
    """
    if strategy is None:
        result = astar_search(problem, max_expansions=max_expansions)
    else:
        result = strategy.search(problem, max_expansions=max_expansions)
    decisions = list(result.decisions())
    examples = label_decisions(
        problem,
        extractor,
        [node for node, _ in decisions],
        [action.label for _, action in decisions],
    )
    return examples, result


def label_decisions(
    problem: SchedulingProblem,
    extractor: FeatureExtractor,
    nodes: Sequence[SearchNode],
    labels: Sequence[str],
) -> list[TrainingExample]:
    """One example per decision: the features of ``nodes[i]`` labelled ``labels[i]``.

    Shared by a searched path (:func:`collect_examples`) and a kept one
    (:meth:`SampleSolver.solve`), so both label their vertices identically.
    """
    matrix = extractor.matrix(nodes, problem)
    return examples_from_matrix(extractor.feature_names, matrix, labels)


class SampleSolver:
    """Solves one training sample: everything a worker process needs, pickled once.

    Instances are the worker callable an
    :class:`~repro.parallel.backend.ExecutionBackend` ships to its processes;
    the specification — VM catalogue, goal, latency model, feature extractor —
    is pickled once per ``map_tasks`` call rather than once per task.
    ``extra_bound`` optionally carries a picklable admissible-bound callable
    (the adaptive-A* ``h'`` of Section 5); the solver builds the problem with
    it, and when it advertises an ``aux_goal`` (the old goal whose penalty it
    reads) search nodes carry a second incremental accumulator so the bound is
    an O(1)-O(log n) delta.
    """

    def __init__(
        self,
        vm_types: VMTypeCatalog,
        goal: PerformanceGoal,
        latency_model: LatencyModel,
        extractor: FeatureExtractor,
        max_expansions: int | None,
        search_strategy: str = "astar",
        future_bound: str = "memoized",
    ) -> None:
        self.vm_types = vm_types
        self.goal = goal
        self.latency_model = latency_model
        self.extractor = extractor
        self.max_expansions = max_expansions
        #: Strategy / future-cost-bound specs (plain strings so the solver
        #: pickles cheaply; resolved lazily per process).
        self.search_strategy = search_strategy
        self.future_bound = future_bound
        self._strategy: SearchStrategy | None = None

    def _resolved_strategy(self) -> SearchStrategy | None:
        """The strategy instance, or ``None`` for the zero-overhead default."""
        if self.search_strategy == "astar":
            return None
        if self._strategy is None:
            self._strategy = strategy_from_spec(self.search_strategy)
        return self._strategy

    def solve(
        self,
        workload: Workload,
        extra_bound: Callable[[SearchNode], float] | None = None,
        keep: SampleSolution | None = None,
    ) -> tuple[list[TrainingExample], SampleSolution] | None:
        """Examples and solution for one sample (None = budget exceeded).

        *keep*, when given, must be this workload's exact optimum under a goal
        the solver's goal is at least as strict as (the caller's guard).  Its
        path is followed under the solver's goal; if it still reaches a goal
        vertex at ``keep.optimal_cost`` it is still optimal — no schedule got
        cheaper — so its vertices are labelled and nothing is searched
        (``expansions=0``).  Otherwise, or without a path, the sample is
        searched as before.
        """
        problem = SchedulingProblem.for_workload(
            workload,
            self.vm_types,
            self.goal,
            self.latency_model,
            future_bound=self.future_bound,
            adaptive_bound=extra_bound,
        )
        if keep is not None and keep.path:
            nodes = problem.follow(keep.path)
            if (
                nodes is not None
                and nodes[-1].state.is_goal()
                and nodes[-1].partial_cost == keep.optimal_cost
            ):
                examples = label_decisions(problem, self.extractor, nodes[:-1], keep.path)
                return examples, replace(keep, expansions=0)
        try:
            examples, result = collect_examples(
                problem,
                self.extractor,
                max_expansions=self.max_expansions,
                strategy=self._resolved_strategy(),
            )
        except SearchBudgetExceeded:
            return None
        solution = SampleSolution(
            template_counts=dict(workload.template_counts()),
            optimal_cost=result.cost,
            expansions=result.expansions,
            cost_lower_bound=result.cost_lower_bound,
            path=tuple(example.label for example in examples),
        )
        return examples, solution

    #: Worker-callable protocol of :meth:`ExecutionBackend.map_tasks`.
    __call__ = solve


def solve_samples(
    solver: SampleSolver,
    tasks: Sequence[tuple],
    n_jobs: int,
    backend: ExecutionBackend | None = None,
) -> list:
    """Solve ``(index, workload[, extra_bound[, keep]])`` tasks, returning payloads in task order.

    Compatibility wrapper over :meth:`ExecutionBackend.map_tasks`.  When a
    *backend* is supplied it is used as-is (and stays warm for the caller to
    reuse); otherwise a transient backend sized by ``n_jobs`` is created and
    closed around the call, which preserves the historical per-call pool
    behaviour.  Either way the returned list is ordered by task index
    regardless of completion order, so callers observe bit-identical results
    for every ``n_jobs`` and every backend.
    """
    if backend is not None:
        return backend.map_tasks(solver, tasks)
    with backend_for(n_jobs) as transient:
        return transient.map_tasks(solver, tasks)


class ModelGenerator:
    """Trains WiSeDB decision models for a fixed workload specification.

    ``backend`` optionally injects a shared
    :class:`~repro.parallel.backend.ExecutionBackend` (e.g. one warm process
    pool serving every tenant of a service); when omitted, the generator
    lazily creates — and owns — the backend its configuration's ``n_jobs``
    implies, keeping it warm across repeated :meth:`generate` calls.  Owned
    backends are released by :meth:`close` (the generator is also a context
    manager); injected backends belong to the caller.
    """

    def __init__(
        self,
        templates: TemplateSet,
        vm_types: VMTypeCatalog | None = None,
        latency_model: LatencyModel | None = None,
        config: TrainingConfig | None = None,
        feature_families: tuple[str, ...] = FEATURE_FAMILIES,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self._templates = templates
        self._vm_types = vm_types or single_vm_type_catalog()
        self._latency_model = latency_model or TemplateLatencyModel(templates)
        self._config = config or TrainingConfig.fast()
        self._extractor = FeatureExtractor(templates, self._vm_types, feature_families)
        self._backend = backend
        self._owns_backend = False

    # -- accessors -----------------------------------------------------------------

    @property
    def templates(self) -> TemplateSet:
        """The workload specification models are trained for."""
        return self._templates

    @property
    def vm_types(self) -> VMTypeCatalog:
        """The VM catalogue models may provision from."""
        return self._vm_types

    @property
    def latency_model(self) -> LatencyModel:
        """The latency estimates used to cost schedules during training."""
        return self._latency_model

    @property
    def config(self) -> TrainingConfig:
        """The training configuration (sample counts, tree regularisation)."""
        return self._config

    @property
    def extractor(self) -> FeatureExtractor:
        """The feature extractor shared by training and runtime."""
        return self._extractor

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend sample solves fan out through.

        Created lazily from the configuration's ``n_jobs`` when none was
        injected, and then kept warm for every later call.  If an injected
        backend has been closed by its owner (a service that shut down while
        this generator is still referenced by a scheduler or modeler), the
        generator heals by replacing it with an owned one instead of failing
        every later training call.
        """
        backend = self._backend
        if backend is not None and getattr(backend, "closed", False):
            backend = None
        if backend is None:
            backend = self._config.create_backend()
            self._backend = backend
            self._owns_backend = True
        return backend

    def close(self) -> None:
        """Release the generator's owned backend (idempotent).

        Injected backends are the caller's responsibility and stay open.
        """
        if self._owns_backend and self._backend is not None:
            self._backend.close()
            self._backend = None
            self._owns_backend = False

    def __enter__(self) -> "ModelGenerator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- training -------------------------------------------------------------------

    def generate(
        self,
        goal: PerformanceGoal,
        workloads: Sequence[Workload] | None = None,
    ) -> TrainingResult:
        """Train a decision model for *goal*.

        Parameters
        ----------
        goal:
            The performance goal the model should optimise for.
        workloads:
            Optional pre-generated sample workloads.  When omitted, the
            generator draws them according to its training configuration.
            Passing the same workloads to several ``generate`` calls is how the
            adaptive/alternative-strategy machinery re-uses one training corpus.
        """
        start_time = time.perf_counter()
        if workloads is None:
            workloads = training_workloads(self._templates, self._config)
        else:
            workloads = list(workloads)
        if not workloads:
            raise TrainingError("training requires at least one sample workload")

        training_set = TrainingSet(self._extractor.feature_names)
        samples: list[SampleSolution] = []
        skipped = 0
        search_start = time.perf_counter()
        solver = SampleSolver(
            vm_types=self._vm_types,
            goal=goal,
            latency_model=self._latency_model,
            extractor=self._extractor,
            max_expansions=self._config.max_expansions,
            search_strategy=self._config.search_strategy,
            future_bound=self._config.future_bound,
        )
        payloads = self.backend.map_tasks(
            solver,
            [(index, workload) for index, workload in enumerate(workloads)],
        )
        # Merge in sample order: training output is identical for any n_jobs.
        for payload in payloads:
            if payload is None:
                skipped += 1
                continue
            examples, solution = payload
            training_set.extend(examples)
            samples.append(solution)
        search_time = time.perf_counter() - search_start

        if not len(training_set):
            raise TrainingError(
                "no training examples were collected; every sample exceeded the "
                "search budget — relax the goal or increase max_expansions"
            )

        fit_start = time.perf_counter()
        tree = self._fit_tree(training_set)
        fit_time = time.perf_counter() - fit_start
        training_time = time.perf_counter() - start_time

        metadata = ModelMetadata(
            goal_kind=goal.kind,
            num_training_samples=len(samples),
            num_training_examples=len(training_set),
            training_time_seconds=training_time,
            tree_depth=tree.depth(),
            tree_leaves=tree.leaf_count(),
            search_strategy=self._config.search_strategy,
            future_bound=self._config.future_bound,
        )
        # Relaxed strategies report their quality loss with the model.
        stamp_optimality_ratio(metadata, samples)
        model = DecisionModel(
            tree=tree,
            extractor=self._extractor,
            templates=self._templates,
            vm_types=self._vm_types,
            goal=goal,
            latency_model=self._latency_model,
            metadata=metadata,
        )
        return TrainingResult(
            model=model,
            training_set=training_set,
            samples=samples,
            goal=goal,
            config=self._config,
            training_time=training_time,
            search_time=search_time,
            fit_time=fit_time,
            skipped_samples=skipped,
            workloads=list(workloads),
        )

    def fit_from_training_set(
        self, goal: PerformanceGoal, training_set: TrainingSet
    ) -> DecisionModel:
        """Fit a model directly from an existing training set (used by ablations)."""
        tree = self._fit_tree(training_set)
        metadata = ModelMetadata(
            goal_kind=goal.kind,
            num_training_examples=len(training_set),
            tree_depth=tree.depth(),
            tree_leaves=tree.leaf_count(),
            search_strategy=self._config.search_strategy,
            future_bound=self._config.future_bound,
        )
        return DecisionModel(
            tree=tree,
            extractor=self._extractor,
            templates=self._templates,
            vm_types=self._vm_types,
            goal=goal,
            latency_model=self._latency_model,
            metadata=metadata,
        )

    def _fit_tree(self, training_set: TrainingSet) -> DecisionTreeClassifier:
        matrix, labels = training_set.to_matrix()
        tree = DecisionTreeClassifier(
            max_depth=self._config.max_depth,
            min_samples_leaf=self._config.min_samples_leaf,
        )
        return tree.fit(matrix, labels, training_set.feature_names)
