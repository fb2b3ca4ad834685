"""Adaptive model generation for shifted performance goals (Section 5).

Retraining a model from scratch for every candidate performance goal would be
expensive: the dominating cost is re-searching the scheduling graph of every
sample workload.  WiSeDB instead *adapts* an existing model: the sample
workloads are kept, their scheduling graphs get new edge weights (reflecting
the stricter goal), and only the samples whose optimum moved are searched
again.

**Keep test.**  Every solved sample carries the action labels of its optimal
path (:attr:`~repro.learning.trainer.SampleSolution.path`).  Under a goal at
least as strict (:meth:`PerformanceGoal.at_least_as_strict_as
<repro.sla.base.PerformanceGoal.at_least_as_strict_as>`: every outcome set is
penalised at least as much) no schedule gets cheaper — Lemma 5.1's own
premise.  So the path is re-priced under the new goal in O(m)
(:meth:`SchedulingProblem.follow <repro.search.problem.SchedulingProblem.follow>`);
if it still costs exactly what the old optimum cost, every other schedule
costs at least that much too, the path is still optimal, its vertices are
re-labelled and nothing is searched.  This is the paper's own account of
Figure 16: retraining grows with the shift "because more samples change their
optimal schedules".

**Otherwise: adaptive A*.**  A sample whose path got dearer is searched with

    h'(v) = max[ h(v), cost(R, g) - cost(R, v) ]

where ``R`` is the reference goal, ``g`` the reference's optimal goal vertex
for that sample, and ``cost(R, v)`` the cost of ``v``'s partial schedule under
the reference goal.  The second term never overestimates when the new goal is
at least as strict (Lemma 5.1), so the re-search stays exact while pruning
more than a fresh search.  Both steps need the reference's *true* optimum, so
a sample solved by a relaxed strategy (``cost_lower_bound`` recorded) gets
neither.

**Reference choice.**  An :class:`AdaptiveModeler` remembers, for every goal
it has solved — the base, then each :meth:`~AdaptiveModeler.retrain` — each
sample's cost and path (label tuples and floats, never a ``TrainingResult``).
A retrain measures against the *strictest* remembered goal the new goal is at
least as strict as: the online scheduler's 5-second shift steps and the
recommender's ladder then compare each goal with its neighbour, where almost
every sample keeps its path, instead of with the base.  The choice depends on
the set of solved goals only, not on the order they were solved in.  A goal
that no remembered goal qualifies for (a relaxed one, a lower penalty rate,
another kind) is searched with the standard heuristic.

**What is bit-identical and what is not.**  Fresh training is unchanged.  An
adapted sample's optimal *cost* equals a fresh search's (to the last ulp or
two: equal-cost schedules may sum in a different order), but a kept path can
differ from the equal-cost path a re-search's tie-break would return, so an
adapted *tree* may differ from one trained from scratch — and depends on
which goals the modeler solved before.  ``tests/test_adaptive_keep.py``
referees the costs against ``generate(goal, workloads=base.workloads)``.

Like fresh training, the per-sample tasks are independent, so they run
through the same :class:`~repro.parallel.backend.ExecutionBackend` as
:meth:`repro.learning.trainer.ModelGenerator.generate` (bounds and kept
solutions are picklable) with results merged in sample order: output is
identical for any ``n_jobs``.  The backend defaults to the generator's — one
warm process pool serves fresh training and every subsequent retraining —
which is exactly the many-small-retrainings pattern of Figure 16.

The retraining :class:`~repro.search.problem.SchedulingProblem` is built with
the :class:`AdaptiveBound` itself, and raises every f-value it computes to
``h'``, so each search strategy orders its frontier by ``max(h, h')``.  The
reference-goal penalty inside ``h'`` is computed *incrementally*: search
nodes of a retraining problem carry a second, old-goal
:class:`~repro.sla.accumulators.ViolationAccumulator` (copy-on-write, exactly
like the primary one), so :meth:`AdaptiveBound.__call__` reads an O(1) cached
delta instead of re-evaluating the old goal over the node's full outcome
tuple.  A bound that advertises no ``aux_goal`` gets nodes without the second
accumulator and falls back to that re-evaluation; both are bit-identical
(asserted by the adaptive equivalence suite).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro.exceptions import TrainingError
from repro.learning.dataset import TrainingSet
from repro.learning.model import DecisionModel
from repro.learning.trainer import (
    ModelGenerator,
    SampleSolution,
    SampleSolver,
    TrainingResult,
    stamp_optimality_ratio,
)
from repro.parallel.backend import ExecutionBackend
from repro.search.problem import SearchNode
from repro.sla.base import PerformanceGoal


@dataclass(frozen=True)
class AdaptiveBound:
    """The Section-5 lower bound ``cost(R', v) + [cost(R, g) - cost(R, v)]``.

    ``cost(R', v)`` is the node's partial cost under the new goal (already part
    of the node); ``cost(R, v)`` is answered by the node's *auxiliary* old-goal
    accumulator when the retraining problem carries one (see
    :attr:`~repro.search.problem.SearchNode.aux_penalty` — an O(1) read instead
    of re-evaluating the old goal over the full outcome tuple per generated
    node), falling back to the full re-evaluation for nodes built without it
    (externally constructed nodes, or a problem built for a wrapper that
    hides :attr:`aux_goal`).  Both paths are bit-identical: the accumulators
    agree with the batch penalty definition bit-for-bit.  A frozen dataclass
    rather than a closure so the bound can cross process boundaries when
    retraining runs in parallel.
    """

    old_goal: PerformanceGoal
    old_optimal_cost: float

    @property
    def aux_goal(self) -> PerformanceGoal:
        """The goal whose penalty search nodes should carry incrementally.

        The retraining :class:`~repro.search.problem.SchedulingProblem` reads
        this so its nodes carry the old goal's penalty.
        """
        return self.old_goal

    def __call__(self, node: SearchNode) -> float:
        old_penalty = node.aux_penalty
        if old_penalty < 0.0:  # no auxiliary accumulator on this node
            old_penalty = self.old_goal.penalty(node.outcomes)
        old_partial = node.infra_cost + old_penalty
        return node.partial_cost + max(0.0, self.old_optimal_cost - old_partial)


@dataclass
class AdaptiveRetrainingReport:
    """Telemetry of one adaptive retraining run (used by Figure 16)."""

    goal: PerformanceGoal
    retraining_time: float
    #: Samples in the adapted training set, kept or searched.
    samples_retrained: int
    #: Samples dropped because their search ran out of budget.
    samples_skipped: int
    total_expansions: int
    #: Of ``samples_retrained``, those whose stored path was still optimal.
    samples_kept: int = 0


class AdaptiveModeler:
    """Derives models for stricter goals from an existing training run.

    Hold one modeler for a sequence of goals: each :meth:`retrain` is measured
    against the nearest goal already solved (see the module docstring), so a
    walk of small steps searches only the samples whose optimum moved.

    ``backend`` optionally overrides the execution backend the re-searches fan
    out through; by default they share the generator's (warm) backend, so
    consecutive retrainings never pay pool start-up.
    """

    def __init__(
        self,
        generator: ModelGenerator,
        base_result: TrainingResult,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if not base_result.workloads:
            raise TrainingError(
                "adaptive modeling requires the base TrainingResult to retain its "
                "sample workloads"
            )
        self._generator = generator
        self._base = base_result
        self._backend = backend
        #: Every goal solved so far (the base, then each ``retrain``), by its
        #: canonical JSON: the goal and, per sample workload, its solution — a
        #: cost and a label tuple, never a ``TrainingResult``.
        self._solved: dict[str, tuple[PerformanceGoal, list[SampleSolution | None]]] = {}
        # The base's samples skip workloads that ran out of budget: match by counts.
        by_counts = {self._freeze(sample.template_counts): sample for sample in base_result.samples}
        self._remember(
            base_result.goal,
            [
                by_counts.get(self._freeze(dict(workload.template_counts())))
                for workload in base_result.workloads
            ],
        )

    @property
    def backend(self) -> ExecutionBackend:
        """The backend retraining solves run through (the generator's by default)."""
        return self._backend if self._backend is not None else self._generator.backend

    @property
    def base_result(self) -> TrainingResult:
        """The original training run whose artefacts are being re-used."""
        return self._base

    # -- model derivation -------------------------------------------------------------

    def retrain(self, new_goal: PerformanceGoal) -> tuple[TrainingResult, AdaptiveRetrainingReport]:
        """Derive a model for *new_goal* from the stored samples.

        The reference is the strictest goal solved so far that *new_goal* is
        at least as strict as (:meth:`_reference`).  A sample the reference
        solved exactly keeps its path if it still costs the same and is
        otherwise re-searched under ``h'``; both are only sound against such a
        reference, so a goal no solved goal qualifies for (a relaxed one,
        another kind) is searched with the standard heuristic — the samples
        are still re-used, so workload generation is never repeated.
        """
        start_time = time.perf_counter()
        old_goal, solved = self._reference(new_goal)

        extractor = self._generator.extractor
        training_set = TrainingSet(extractor.feature_names)
        samples: list[SampleSolution] = []
        skipped = 0
        total_expansions = 0

        config = self._generator.config
        solver = SampleSolver(
            vm_types=self._generator.vm_types,
            goal=new_goal,
            latency_model=self._generator.latency_model,
            extractor=extractor,
            max_expansions=config.max_expansions,
            # The tenant's strategy and future-cost bound apply to re-searches
            # too: the aux-goal machinery (the second accumulator feeding
            # AdaptiveBound) is orthogonal to both, so they compose freely.
            search_strategy=config.search_strategy,
            future_bound=config.future_bound,
        )
        tasks = []
        for index, (workload, keep) in enumerate(zip(self._base.workloads, solved)):
            extra_bound = (
                None if keep is None else self._adaptive_bound(old_goal, keep.optimal_cost)
            )
            tasks.append((index, workload, extra_bound, keep))
        # The re-searches are as independent as fresh training solves, so they
        # fan out across the same (warm) backend (deterministic sample order).
        payloads = self.backend.map_tasks(solver, tasks)
        for payload in payloads:
            if payload is None:
                skipped += 1
                continue
            examples, solution = payload
            training_set.extend(examples)
            total_expansions += solution.expansions
            samples.append(solution)

        if not len(training_set):
            raise TrainingError(
                "adaptive retraining collected no examples; the shifted goal may be "
                "infeasible for the stored sample workloads"
            )

        fit_start = time.perf_counter()
        model = self._generator.fit_from_training_set(new_goal, training_set)
        fit_time = time.perf_counter() - fit_start
        retraining_time = time.perf_counter() - start_time
        model.metadata.num_training_samples = len(samples)
        model.metadata.training_time_seconds = retraining_time
        # An adapted model of a relaxed-strategy tenant is itself built from
        # relaxed re-solves: stamp its worst ratio so the degradation stays
        # visible on the persisted artifact, exactly as fresh training does.
        stamp_optimality_ratio(model.metadata, samples)

        result = TrainingResult(
            model=model,
            training_set=training_set,
            samples=samples,
            goal=new_goal,
            config=self._generator.config,
            training_time=retraining_time,
            search_time=fit_start - start_time,
            fit_time=fit_time,
            skipped_samples=skipped,
            workloads=list(self._base.workloads),
        )
        report = AdaptiveRetrainingReport(
            goal=new_goal,
            retraining_time=retraining_time,
            samples_retrained=len(samples),
            samples_skipped=skipped,
            total_expansions=total_expansions,
            # Only a kept sample expands nothing: a search expands its start vertex.
            samples_kept=sum(1 for sample in samples if sample.expansions == 0),
        )
        self._remember(new_goal, [payload and payload[1] for payload in payloads])
        return result, report

    def derive_model(self, new_goal: PerformanceGoal) -> DecisionModel:
        """Convenience wrapper returning only the adapted model."""
        result, _ = self.retrain(new_goal)
        return result.model

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _freeze(counts: dict[str, int]) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(counts.items()))

    def _remember(
        self, goal: PerformanceGoal, solutions: list[SampleSolution | None]
    ) -> None:
        """Record *goal* as solved; an equal goal solved earlier is replaced.

        *solutions* has one entry per sample workload (``None`` = ran out of
        budget).  Only samples solved *exactly* are recorded.  Lemma 5.1 needs the true
        old optimum: a sample solved by a relaxed strategy (``cost_lower_bound``
        set) may sit above it, which would make ``h'`` inadmissible and the
        keep test wrong — such a sample is searched afresh every time.
        """
        self._solved[json.dumps(goal.to_dict(), sort_keys=True)] = (
            goal,
            [
                solution
                if solution is not None and solution.cost_lower_bound is None
                else None
                for solution in solutions
            ],
        )

    def _reference(
        self, new_goal: PerformanceGoal
    ) -> tuple[PerformanceGoal | None, list[SampleSolution | None]]:
        """The strictest solved goal *new_goal* is at least as strict as, with its solutions.

        Strictest = earliest deadline, then highest penalty rate, then the
        canonical key: a pure function of the *set* of solved goals, not of
        the order they were solved in or of call order among equals.  Any
        qualifying goal is a sound reference; the nearest one keeps the most
        samples and gives the tightest ``h'``.  No goal and no solutions when
        none qualifies.
        """
        qualifying = [
            (goal.deadline, -goal.penalty_rate, key)
            for key, (goal, _) in self._solved.items()
            if new_goal.at_least_as_strict_as(goal)
        ]
        if not qualifying:
            return None, [None] * len(self._base.workloads)
        return self._solved[min(qualifying)[2]]

    @staticmethod
    def _adaptive_bound(old_goal: PerformanceGoal, old_optimal_cost: float) -> AdaptiveBound:
        """The improved adaptive-A* heuristic for one stored sample (picklable)."""
        return AdaptiveBound(old_goal=old_goal, old_optimal_cost=old_optimal_cost)
