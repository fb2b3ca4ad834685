"""Adaptive model generation for shifted performance goals (Section 5).

Retraining a model from scratch for every candidate performance goal would be
expensive: the dominating cost is re-searching the scheduling graph of every
sample workload.  WiSeDB instead *adapts* an existing model: the sample
workloads are kept, their scheduling graphs get new edge weights (reflecting
the stricter goal), and the search is re-run with the adaptive-A* heuristic

    h'(v) = max[ h(v), cost(R, g) - cost(R, v) ]

where ``R`` is the original goal, ``g`` the original optimal goal vertex for
that sample, and ``cost(R, v)`` the cost of ``v``'s partial schedule under the
original goal.  The second term never overestimates when the new goal is
stricter (Lemma 5.1), so the re-search stays exact while pruning far more
aggressively than a fresh search.

Like fresh training, the per-sample re-searches are independent, so they run
through the same :class:`~repro.parallel.backend.ExecutionBackend` as
:meth:`repro.learning.trainer.ModelGenerator.generate` (the bound objects are
picklable) with results merged in sample order for bit-identical output.  The
backend defaults to the generator's — one warm process pool serves fresh
training and every subsequent retraining — which is exactly the
many-small-retrainings pattern of Figure 16.

The old-goal penalty inside ``h'`` is computed *incrementally*: search nodes
of a retraining problem carry a second, old-goal
:class:`~repro.sla.accumulators.ViolationAccumulator` (copy-on-write, exactly
like the primary one), so :meth:`AdaptiveBound.__call__` reads an O(1) cached
delta instead of re-evaluating the old goal over the node's full outcome
tuple.  ``REPRO_SLOW_PATH=1`` forces the legacy full re-evaluation; both
paths are bit-identical (asserted by the adaptive equivalence suite).
"""

from __future__ import annotations

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
    (externally constructed nodes, or ``REPRO_SLOW_PATH=1``).  Both paths are
    bit-identical: the accumulators agree with the batch penalty definition
    bit-for-bit.  A frozen dataclass rather than a closure so the bound can
    cross process boundaries when retraining runs in parallel.
    """

    old_goal: PerformanceGoal
    old_optimal_cost: float

    @property
    def aux_goal(self) -> PerformanceGoal:
        """The goal whose penalty search nodes should carry incrementally.

        :meth:`SampleSolver.solve` reads this to build the retraining
        :class:`~repro.search.problem.SchedulingProblem` with the old goal as
        its auxiliary goal.
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
    samples_retrained: int
    samples_skipped: int
    total_expansions: int


class AdaptiveModeler:
    """Derives models for stricter goals from an existing training run.

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
        """Derive a model for *new_goal* by re-searching the stored samples.

        The improved heuristic is only sound when *new_goal* is at least as
        strict as the base goal; for relaxed goals the method transparently
        falls back to the standard heuristic (the samples are still re-used,
        so workload generation is never repeated).
        """
        start_time = time.perf_counter()
        old_goal = self._base.goal
        use_adaptive_bound = self._is_stricter(new_goal, old_goal)

        extractor = self._generator.extractor
        training_set = TrainingSet(extractor.feature_names)
        samples: list[SampleSolution] = []
        skipped = 0
        total_expansions = 0

        solved = {self._freeze(s.template_counts): s for s in self._base.samples}
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
        for index, workload in enumerate(self._base.workloads):
            extra_bound = None
            if use_adaptive_bound:
                old_solution = solved.get(self._freeze(dict(workload.template_counts())))
                # Lemma 5.1 needs the *true* old optimum: a base sample solved
                # by a relaxed strategy (cost_lower_bound recorded) may sit
                # above it, which would make h' inadmissible — skip the bound
                # for that sample rather than risk pruning the new optimum.
                if old_solution is not None and old_solution.cost_lower_bound is None:
                    extra_bound = self._adaptive_bound(
                        old_goal, old_solution.optimal_cost
                    )
            tasks.append((index, workload, extra_bound))
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
        )
        return result, report

    def derive_model(self, new_goal: PerformanceGoal) -> DecisionModel:
        """Convenience wrapper returning only the adapted model."""
        result, _ = self.retrain(new_goal)
        return result.model

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _freeze(counts: dict[str, int]) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(counts.items()))

    @staticmethod
    def _is_stricter(new_goal: PerformanceGoal, old_goal: PerformanceGoal) -> bool:
        if new_goal.kind != old_goal.kind:
            return False
        return new_goal.deadline <= old_goal.deadline

    @staticmethod
    def _adaptive_bound(old_goal: PerformanceGoal, old_optimal_cost: float) -> AdaptiveBound:
        """The improved adaptive-A* heuristic for one stored sample (picklable)."""
        return AdaptiveBound(old_goal=old_goal, old_optimal_cost=old_optimal_cost)
