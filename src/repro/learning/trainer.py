"""The model-generation pipeline of Figure 4.

Given a workload specification (templates + VM catalogue) and a performance
goal, :class:`ModelGenerator` executes the paper's offline training loop:

1. draw ``N`` random sample workloads of ``m`` queries (Section 4.2);
2. find the minimum-cost schedule of each sample with A* over the scheduling
   graph (Section 4.3);
3. convert every decision on every optimal path into a labelled training
   example (Section 4.4);
4. fit a C4.5-style decision tree on the combined training set (Section 4.5).

Step 3 is split at the one place a row needs the vertex itself.  A sample's
solve walks its path once (:meth:`FeatureExtractor.vertex_values
<repro.learning.features.FeatureExtractor.vertex_values>`) and records per
decision only the vertex's wait time and its Equation-2 cost row, so a sample
comes back as one small float64 array whose labels are its path.  The pass
then lays every sample's labels end to end and writes all their feature rows
in one numpy pass (:meth:`FeatureExtractor.block
<repro.learning.features.FeatureExtractor.block>`), and the
:class:`~repro.learning.dataset.TrainingSet` keeps that one block — no
per-row object exists anywhere between the search and the fit.

A pass compiles its specification and goal once: one
:class:`~repro.search.problem.ProblemTables` and one
:class:`~repro.learning.features.FeatureExtractor` over it.  The
:class:`SampleSolver` builds every sample's problem on those tables, the
extractor writes every row, and the fitted
:class:`~repro.learning.model.DecisionModel` keeps the same extractor, so the
model decides on the tables its training pass solved on.

The returned :class:`TrainingResult` keeps the training set and the per-sample
solutions so that the adaptive-modeling machinery (Section 5) can re-derive
models for stricter goals without re-generating workloads or re-searching from
scratch.  Each :class:`SampleSolution` records its optimal cost and
:attr:`~SampleSolution.path`, the action labels of the schedule found; given
one as ``keep``, :meth:`SampleSolver.solve` first walks that path under its
own goal — the same walk that labels it — and searches only if the path is
refused or its cost moved (:mod:`repro.adaptive.retraining` explains why
equal cost means still optimal, and guards when it may be asked).  Fresh
training and adaptive retraining run one loop,
``ModelGenerator._solve_and_fit``; they differ only in the tasks they hand it.

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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cloud.latency import LatencyModel, TemplateLatencyModel
from repro.cloud.vm import VMTypeCatalog, single_vm_type_catalog
from repro.config import TrainingConfig
from repro.exceptions import SearchBudgetExceeded, TrainingError
from repro.learning.dataset import TrainingSet
from repro.learning.decision_tree import DecisionTreeClassifier
from repro.learning.features import FeatureExtractor
from repro.learning.model import DecisionModel, ModelMetadata
from repro.learning.sampling import training_workloads
from repro.parallel.backend import ExecutionBackend
from repro.search.astar import optimality_ratio
from repro.search.problem import ProblemTables, SchedulingProblem
from repro.search.strategy import AStarStrategy, SearchStrategy
from repro.sla.base import PerformanceGoal
from repro.workloads.templates import TemplateSet
from repro.workloads.workload import Workload

if TYPE_CHECKING:  # the adaptive layer imports this module
    from repro.adaptive.retraining import AdaptiveBound


@dataclass(frozen=True)
class SampleSolution:
    """The solution of one training sample (kept for adaptive reuse).

    ``optimal_cost`` is the achieved schedule cost; under the exact default
    strategy it is provably minimal.  Relaxed strategies additionally record
    ``cost_lower_bound`` — a sound lower bound on the true optimum — so the
    per-sample suboptimality is never silent (``None`` means exact).
    ``path`` is the action labels of the schedule found, in order: the
    labels of the sample's training rows, and what
    :meth:`SchedulingProblem.walk <repro.search.problem.SchedulingProblem.walk>`
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
        schedule bit-identically.  Version 2 stores the training matrix as one
        compressed float64 block (:meth:`TrainingSet.to_dict
        <repro.learning.dataset.TrainingSet.to_dict>`); everything else is
        plain JSON.  :meth:`from_dict` reads version 1's per-row form too.
        """
        return {
            "format": "wisedb-training-result",
            "version": 2,
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


class SampleSolver:
    """Solves one training sample: everything a worker process needs, pickled once.

    Instances are the worker callable an
    :class:`~repro.parallel.backend.ExecutionBackend` ships to its processes;
    the pass's feature extractor — and with it the
    :class:`~repro.search.problem.ProblemTables` every sample's problem shares
    — and the resolved search strategy are pickled once per chunk of tasks
    rather than once per task.  ``extra_bound`` optionally carries the
    adaptive-A* ``h'`` of Section 5 (a picklable
    :class:`~repro.adaptive.retraining.AdaptiveBound`); the solver builds the
    problem with it, so search nodes carry a second incremental accumulator
    for its ``old_goal`` and the bound reads the old goal's penalty in
    O(1)-O(log n).
    """

    def __init__(
        self,
        extractor: FeatureExtractor,
        max_expansions: int | None,
        search_strategy: SearchStrategy = AStarStrategy(),
    ) -> None:
        self.extractor = extractor
        self.max_expansions = max_expansions
        self.search_strategy = search_strategy

    def solve(
        self,
        workload: Workload,
        extra_bound: AdaptiveBound | None = None,
        keep: SampleSolution | None = None,
    ) -> tuple[np.ndarray, SampleSolution] | None:
        """Per-vertex values and solution for one sample (None = budget exceeded).

        The values are :meth:`FeatureExtractor.vertex_values
        <repro.learning.features.FeatureExtractor.vertex_values>` along
        ``solution.path`` — one row per decision: the vertex's wait time and
        Equation-2 cost row — from which the pass writes the sample's feature
        rows, labelled by the path.  *keep*, when given, must be this
        workload's exact optimum under a goal the solver's goal is at least as
        strict as (the caller's guard).  Its path is walked under the solver's
        goal; if it is complete and still costs ``keep.optimal_cost`` it is
        still optimal — no schedule got cheaper — so its values are kept and
        nothing is searched (``expansions=0``).  Otherwise, or without a path,
        the sample is searched and the path found is walked for its values.
        """
        problem = SchedulingProblem.from_tables(
            self.extractor.tables, workload.template_counts(), adaptive_bound=extra_bound
        )
        if keep is not None and keep.path:
            values, cost = self.extractor.vertex_values(problem, keep.path)
            if cost == keep.optimal_cost:
                return values, replace(keep, expansions=0)
        try:
            result = self.search_strategy.search(problem, max_expansions=self.max_expansions)
        except SearchBudgetExceeded:
            return None
        path = tuple(action.label for _, action in result.decisions())
        values, _ = self.extractor.vertex_values(problem, path)
        solution = SampleSolution(
            template_counts=dict(workload.template_counts()),
            optimal_cost=result.cost,
            expansions=result.expansions,
            cost_lower_bound=result.cost_lower_bound,
            path=path,
        )
        return values, solution

    #: Worker-callable protocol of :meth:`ExecutionBackend.map_tasks`.
    __call__ = solve


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
        backend: ExecutionBackend | None = None,
    ) -> None:
        self._templates = templates
        self._vm_types = vm_types or single_vm_type_catalog()
        self._latency_model = latency_model or TemplateLatencyModel(templates)
        self._config = config or TrainingConfig.fast()
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
    def backend(self) -> ExecutionBackend:
        """The execution backend sample solves fan out through.

        Created lazily from the configuration's ``n_jobs`` when none was
        injected, and then kept warm for every later call.
        """
        if self._backend is None:
            self._backend = self._config.create_backend()
            self._owns_backend = True
        return self._backend

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
        started = time.perf_counter()
        if workloads is None:
            workloads = training_workloads(self._templates, self._config)
        else:
            workloads = list(workloads)
        if not workloads:
            raise TrainingError("training requires at least one sample workload")
        tasks = [(index, workload) for index, workload in enumerate(workloads)]
        return self._solve_and_fit(goal, workloads, tasks, started)[0]

    def _solve_and_fit(
        self,
        goal: PerformanceGoal,
        workloads: list[Workload],
        tasks: list[tuple],
        started: float,
    ) -> tuple[TrainingResult, list[SampleSolution | None]]:
        """The one training loop: solve *tasks*, fit a tree on their rows, package the run.

        A task is ``(index, workload)`` for :meth:`generate` and ``(index,
        workload, h' or None, kept solution or None)`` for adaptive
        retraining (:class:`~repro.adaptive.retraining.AdaptiveModeler`).
        The solves fan out through the backend and merge in sample order, so
        the output is identical for any ``n_jobs``; the solved samples' rows
        are then written as one block.  Returns the result (timed from
        *started*) and each task's solution in task order (``None`` = out of
        budget).
        """
        extractor = self._extractor_for(goal)
        solver = SampleSolver(
            extractor,
            self._config.max_expansions,
            self._config.create_search_strategy(),
        )
        search_start = time.perf_counter()
        payloads = self.backend.map_tasks(solver, tasks)
        solutions = [None if payload is None else payload[1] for payload in payloads]
        solved = [payload for payload in payloads if payload is not None]
        training_set = TrainingSet(extractor.feature_names)
        training_set.extend(
            extractor.block(
                [(solution.path, values, solution.template_counts) for values, solution in solved]
            ),
            [label for _, solution in solved for label in solution.path],
        )
        samples = [solution for _, solution in solved]
        search_time = time.perf_counter() - search_start
        if not len(training_set):
            raise TrainingError(
                "no training examples were collected; every sample exceeded the "
                "search budget — relax the goal or increase max_expansions"
            )

        fit_start = time.perf_counter()
        model = self._fit(extractor, training_set)
        fit_time = time.perf_counter() - fit_start
        training_time = time.perf_counter() - started
        model.metadata.num_training_samples = len(samples)
        model.metadata.training_time_seconds = training_time
        # Relaxed strategies report their quality loss with the model.
        stamp_optimality_ratio(model.metadata, samples)
        result = TrainingResult(
            model=model,
            training_set=training_set,
            samples=samples,
            goal=goal,
            config=self._config,
            training_time=training_time,
            search_time=search_time,
            fit_time=fit_time,
            skipped_samples=len(solutions) - len(samples),
            workloads=list(workloads),
        )
        return result, solutions

    def fit_from_training_set(
        self, goal: PerformanceGoal, training_set: TrainingSet
    ) -> DecisionModel:
        """Fit a model directly from an existing training set (used by ablations)."""
        return self._fit(self._extractor_for(goal), training_set)

    def _extractor_for(self, goal: PerformanceGoal) -> FeatureExtractor:
        """The extractor over this specification's tables for *goal*."""
        return FeatureExtractor(
            ProblemTables(self._templates, self._vm_types, goal, self._latency_model)
        )

    def _fit(self, extractor: FeatureExtractor, training_set: TrainingSet) -> DecisionModel:
        """Fit a tree on *training_set* and wrap it with *extractor*."""
        matrix, labels = training_set.to_matrix()
        tree = DecisionTreeClassifier(
            max_depth=self._config.max_depth,
            min_samples_leaf=self._config.min_samples_leaf,
        ).fit(matrix, labels, training_set.feature_names)
        metadata = ModelMetadata(
            goal_kind=extractor.tables.goal.kind,
            num_training_examples=len(training_set),
            tree_depth=tree.depth(),
            tree_leaves=tree.leaf_count(),
            search_strategy=self._config.search_strategy,
        )
        return DecisionModel(tree, extractor, metadata)
