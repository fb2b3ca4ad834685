"""Strategy recommendation: a ladder of performance/cost trade-offs (Section 6.1).

Starting from the application's goal ``R``, the recommender

1. builds a sequence of candidate goals of increasing strictness with ``R`` as
   the median,
2. derives a decision model for every candidate through an
   :class:`~repro.adaptive.retraining.AdaptiveModeler` (Section 5) instead of
   training from scratch — each candidate measured against the nearest goal
   the modeler has solved, so a second ladder over the same modeler searches
   nothing,
3. calibrates a cost-estimation function and a per-template cost profile for
   every candidate by scheduling one large random workload with it, and
4. repeatedly drops the candidate whose cost profile is closest (by Earth
   Mover's Distance) to its stricter neighbour, until only ``k`` strategies
   with meaningfully different performance/cost trade-offs remain.

The surviving strategies are returned ordered from most relaxed (cheapest) to
strictest (most expensive), each bundled with its goal, model, and estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adaptive.emd import cost_profile_distance
from repro.adaptive.retraining import AdaptiveModeler
from repro.exceptions import SpecificationError
from repro.learning.model import DecisionModel
from repro.learning.trainer import TrainingResult
from repro.runtime.batch import BatchScheduler
from repro.runtime.estimator import CostEstimator, per_template_cost_profile
from repro.sla.base import PerformanceGoal
from repro.workloads.generator import WorkloadGenerator


@dataclass
class Strategy:
    """One recommended workload-execution strategy."""

    goal: PerformanceGoal
    model: DecisionModel
    training: TrainingResult
    estimator: CostEstimator
    profile: dict[str, float]
    #: Tightening fraction relative to the application goal (0 = the original goal).
    shift_fraction: float

    def describe(self) -> str:
        """One-line summary of the strategy."""
        return (
            f"Strategy(shift={self.shift_fraction:+.2f}, {self.goal.describe()}, "
            f"avg per-query cost {sum(self.profile.values()) / max(1, len(self.profile)):.2f}c)"
        )


class StrategyRecommender:
    """Generates and prunes alternative strategies around an application goal.

    Candidates are retrained through *modeler*; *base_result* — a run over
    the modeler's sample workloads — is the ladder's centre and is served as
    the unshifted candidate as it is.
    """

    def __init__(
        self,
        modeler: AdaptiveModeler,
        base_result: TrainingResult,
        num_candidates: int = 7,
        max_shift: float = 0.5,
        calibration_queries: int = 120,
        seed: int = 17,
    ) -> None:
        if num_candidates < 2:
            raise SpecificationError("num_candidates must be at least 2")
        if num_candidates % 2 == 0:
            # Keep the application goal exactly at the median of the ladder.
            num_candidates += 1
        if not 0 < max_shift < 1:
            raise SpecificationError("max_shift must lie strictly between 0 and 1")
        self._modeler = modeler
        self._base_result = base_result
        self._num_candidates = num_candidates
        self._max_shift = max_shift
        self._calibration_queries = calibration_queries
        self._seed = seed

    # -- ladder construction -------------------------------------------------------

    def candidate_fractions(self) -> list[float]:
        """Tightening fractions of the candidate goals (0 is the application goal)."""
        half = self._num_candidates // 2
        step = self._max_shift / half
        return [step * (i - half) for i in range(self._num_candidates)]

    def _candidate_goal(self, fraction: float) -> PerformanceGoal:
        templates = self._modeler.generator.templates
        if abs(fraction) < 1e-12:
            return self._base_result.goal
        return self._base_result.goal.tightened(fraction, templates)

    # -- recommendation ---------------------------------------------------------------

    def build_strategies(self) -> list[Strategy]:
        """Derive a strategy (model + estimator + profile) for every candidate goal."""
        generator = self._modeler.generator
        calibration = self._calibration_workload()
        strategies: list[Strategy] = []
        for fraction in self.candidate_fractions():
            goal = self._candidate_goal(fraction)
            if abs(fraction) < 1e-12:
                training = self._base_result
            else:
                training, _ = self._modeler.retrain(goal)
            schedule = BatchScheduler(training.model).schedule(calibration)
            profile = per_template_cost_profile(schedule, goal, generator.latency_model)
            estimator = CostEstimator(generator.templates, profile)
            strategies.append(
                Strategy(
                    goal=goal,
                    model=training.model,
                    training=training,
                    estimator=estimator,
                    profile=profile,
                    shift_fraction=fraction,
                )
            )
        return strategies

    def recommend(self, k: int = 3) -> list[Strategy]:
        """The ``k`` most distinct strategies, ordered from relaxed to strict."""
        if k < 1:
            raise SpecificationError("k must be at least 1")
        strategies = self.build_strategies()
        template_order = self._template_order()
        while len(strategies) > k:
            distances = [
                cost_profile_distance(
                    strategies[i].profile, strategies[i + 1].profile, template_order
                )
                for i in range(len(strategies) - 1)
            ]
            closest_pair = min(range(len(distances)), key=distances.__getitem__)
            # Drop the stricter member of the closest pair (R_{i+1} in the paper).
            del strategies[closest_pair + 1]
        return strategies

    # -- helpers -----------------------------------------------------------------------

    def _template_order(self) -> list[str]:
        templates = self._modeler.generator.templates
        return sorted(templates.names, key=lambda name: templates[name].base_latency)

    def _calibration_workload(self):
        generator = WorkloadGenerator(self._modeler.generator.templates, seed=self._seed)
        return generator.uniform(self._calibration_queries)
