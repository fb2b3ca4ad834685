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
premise.  So the path is walked under the new goal in O(m)
(:meth:`SchedulingProblem.walk <repro.search.problem.SchedulingProblem.walk>`,
through :meth:`FeatureExtractor.vertex_values
<repro.learning.features.FeatureExtractor.vertex_values>`, which records what
its rows need of each vertex on the way); if it still costs exactly what the
old optimum cost, every other schedule costs at least that much too, the path
is still optimal, what the walk recorded gives its training rows and nothing
is searched.  This is the paper's own account of
Figure 16: retraining grows with the shift "because more samples change their
optimal schedules".

**Otherwise: adaptive A*.**  A sample whose path got dearer is searched with

    h'(v) = max[ h(v), cost(R, g) - cost(R, v) ]

where ``R`` is the reference goal, ``g`` the reference's optimal goal vertex
for that sample, and ``cost(R, v)`` the cost of ``v``'s partial schedule under
the reference goal.  For max-latency and per-query goals the second term
never overestimates when the new goal is at least as strict (Lemma 5.1), so
the re-search stays exact while pruning more than a fresh search.  For
average and percentile goals that is not proven: ``h'`` overestimates at
some vertices (``tests/test_search_bounds.py`` holds the counts), so their
re-search is not guaranteed optimal, although no wrong optimum has been
observed.  Both steps need the reference's *true* optimum, so a sample
solved by a relaxed strategy (``cost_lower_bound`` recorded) gets neither.

**Reference choice.**  An :class:`AdaptiveModeler` remembers, for every goal
it has solved — the base, each :meth:`~AdaptiveModeler.retrain`, and every
result handed to :meth:`~AdaptiveModeler.remember` — each sample's cost and
path (label tuples and floats, never a ``TrainingResult``).  A retrain
measures against the *strictest* remembered goal the new goal is at least as
strict as: the online scheduler's 5-second shift steps, the recommender's
ladder and a service's successive adapts then compare each goal with its
neighbour, where almost every sample keeps its path, instead of with the
base.  The choice depends on the set of solved goals only, not on the order
they were solved in.  A goal that no remembered goal qualifies for (a relaxed
one, a lower penalty rate, another kind) is searched with the standard
heuristic.

Who holds a modeler decides what it can measure against.  The online
scheduler keeps its own, for one session's shifts.
:class:`~repro.service.service.WiSeDBService` keeps one per *base
fingerprint* (the tenant spec minus its goal), shared by every tenant of that
base and seeded with every registry artifact stored under it.  The sample
workloads are drawn from the templates and training configuration alone,
never from the goal, so every artifact under one base holds facts about the
same workloads: this sample, under this goal, has this optimal path and
cost.  Those facts stay true for as long as the templates, VM catalogue and
latency model hold, and the base fingerprint covers all three, so a
remembered fact never goes stale; deleting an artifact only removes a source
of facts.  A modeler serialises its retrains and ``remember`` calls behind
one lock, so tenants on several threads may share it.

**What is bit-identical and what is not.**  Fresh training is unchanged.  An
adapted sample's optimal *cost* equals a fresh search's (to the last ulp or
two: equal-cost schedules may sum in a different order; for average and
percentile goals as observed, not proven — see above), but a kept path can
differ from the equal-cost path a re-search's tie-break would return, so an
adapted *tree* may differ from one trained from scratch — and depends on
which goals the modeler solved before.  ``tests/test_adaptive_keep.py``
referees the costs against ``generate(goal, workloads=base.workloads)``.

A retrain is fresh training's own loop (``ModelGenerator._solve_and_fit``)
with different tasks: each sample carries its kept solution and ``h'``
(both picklable), the solves run through the generator's
:class:`~repro.parallel.backend.ExecutionBackend` and merge in sample order,
so output is identical for any ``n_jobs``.  One warm process pool serves
fresh training and every subsequent retraining — exactly the
many-small-retrainings pattern of Figure 16.

The retraining :class:`~repro.search.problem.SchedulingProblem` is built with
the :class:`AdaptiveBound` itself, and raises every f-value it computes to
``h'``, so each search strategy orders its frontier by ``max(h, h')``.  The
reference-goal penalty inside ``h'`` is computed *incrementally*: every node
of the search carries a second
:class:`~repro.sla.accumulators.ViolationAccumulator` for the bound's
:attr:`~AdaptiveBound.old_goal`, whatever its kind, and the problem prices
each child's old-goal penalty with the parent's ``violation_with``, so
:meth:`AdaptiveBound.__call__` receives an O(1) number.  It equals
``old_goal.penalty`` of the vertex's outcomes bit for bit
(``tests/test_search_tree.py`` checks every vertex of the oracle grid).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import TrainingError
from repro.learning.trainer import ModelGenerator, SampleSolution, TrainingResult
from repro.sla.base import PerformanceGoal


@dataclass(frozen=True)
class AdaptiveBound:
    """The Section-5 bound ``h'(v) = cost(R', v) + [cost(R, g) - cost(R, v)]``.

    A lower bound for max-latency and per-query goals (Lemma 5.1); for
    average and percentile goals it overestimates at some vertices (see the
    module docstring).

    ``cost(R', v)`` is the vertex's partial cost under the new goal;
    ``cost(R, v)`` is its infrastructure cost plus its penalty under
    :attr:`old_goal`, which the retraining problem carries incrementally on
    every node (an O(1) number per vertex).  A frozen dataclass rather than a
    closure so the bound can cross process boundaries when retraining runs
    in parallel.
    """

    old_goal: PerformanceGoal
    old_optimal_cost: float

    def __call__(self, infra_cost: float, penalty: float, aux_penalty: float) -> float:
        """``h'`` of a vertex from its infrastructure cost and new- and old-goal penalties."""
        old_partial = infra_cost + aux_penalty
        return infra_cost + penalty + max(0.0, self.old_optimal_cost - old_partial)


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
    walk of small steps searches only the samples whose optimum moved.  The
    re-searches share the generator's (warm) backend, so consecutive
    retrainings never pay pool start-up.
    """

    def __init__(self, generator: ModelGenerator, base_result: TrainingResult) -> None:
        if not base_result.workloads:
            raise TrainingError(
                "adaptive modeling requires the base TrainingResult to retain its "
                "sample workloads"
            )
        self._generator = generator
        self._base = base_result
        self._lock = threading.Lock()
        #: The key :meth:`remember` matches a result's samples to workloads by.
        self._workload_counts = [
            self._freeze(workload.template_counts()) for workload in base_result.workloads
        ]
        #: Every goal solved so far (the base, each ``retrain``, each
        #: ``remember``), by its canonical JSON: the goal and, per sample
        #: workload, its solution — a cost and a label tuple, never a
        #: ``TrainingResult``.
        self._solved: dict[str, tuple[PerformanceGoal, list[SampleSolution | None]]] = {}
        self.remember(base_result)

    @property
    def generator(self) -> ModelGenerator:
        """The generator whose specification every retrain compiles and uses."""
        return self._generator

    def remember(self, result: TrainingResult) -> None:
        """Record *result*'s exact sample solutions as solved for its goal.

        *result* must be a run over the same sample workloads — any goal, the
        same templates, catalogue, latency model and configuration.  A run
        drops samples that ran out of budget, so its samples are matched to
        the workloads by template counts.  A goal remembered earlier is
        replaced.
        """
        by_counts = {self._freeze(sample.template_counts): sample for sample in result.samples}
        with self._lock:
            self._remember(result.goal, [by_counts.get(key) for key in self._workload_counts])

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
        with self._lock:
            return self._retrain(new_goal)

    def _retrain(
        self, new_goal: PerformanceGoal
    ) -> tuple[TrainingResult, AdaptiveRetrainingReport]:
        started = time.perf_counter()
        old_goal, solved = self._reference(new_goal)
        # The generator's own training loop, with a kept path and h' per
        # sample the reference solved exactly (one warm backend serves both).
        tasks = [
            (
                index,
                workload,
                None if keep is None else self._adaptive_bound(old_goal, keep.optimal_cost),
                keep,
            )
            for index, (workload, keep) in enumerate(zip(self._base.workloads, solved))
        ]
        result, solutions = self._generator._solve_and_fit(
            new_goal, self._base.workloads, tasks, started
        )
        report = AdaptiveRetrainingReport(
            goal=new_goal,
            retraining_time=result.training_time,
            samples_retrained=len(result.samples),
            samples_skipped=result.skipped_samples,
            total_expansions=sum(sample.expansions for sample in result.samples),
            # Only a kept sample expands nothing: a search expands its start vertex.
            samples_kept=sum(1 for sample in result.samples if sample.expansions == 0),
        )
        self._remember(new_goal, solutions)
        return result, report

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _freeze(counts: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
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
