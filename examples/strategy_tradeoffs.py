#!/usr/bin/env python3
"""Exploring performance/cost trade-offs with alternative strategies.

Section 6.1 of the paper: WiSeDB derives a ladder of models for stricter and
looser variants of the application's goal (re-using the original training
set), prunes them to a handful of meaningfully different strategies with the
Earth Mover's Distance, and hands each strategy to the user together with a
cost-estimation function.  The user can then price an upcoming workload under
every strategy before committing to one.

Run with ``python examples/strategy_tradeoffs.py``.
"""

from __future__ import annotations

from repro import TrainingConfig, WiSeDBService, tpch_templates, units
from repro.sla import PerQueryDeadlineGoal


def main() -> None:
    templates = tpch_templates(6)
    goal = PerQueryDeadlineGoal.from_factor(templates, factor=3.0)

    service = WiSeDBService()
    service.register("app", templates, goal, config=TrainingConfig.fast(seed=3))
    service.train("app")
    print(f"Application goal: {goal.describe()}")

    # Derive alternative strategies around the application goal.
    strategies = service.recommend_strategies(
        "app", k=3, num_candidates=5, max_shift=0.5
    )

    # The application expects a workload dominated by two templates next month.
    expected_counts = {"T1": 400, "T2": 150, "T3": 150, "T4": 100, "T5": 100, "T6": 100}
    print(f"\nExpected workload: {sum(expected_counts.values())} queries")
    print(f"{'strategy':<12} {'mean deadline':>14} {'estimated cost':>16}")
    for index, strategy in enumerate(strategies):
        estimate = strategy.estimator.estimate(expected_counts)
        label = f"tier-{index + 1}"
        deadline_minutes = units.seconds_to_minutes(strategy.goal.deadline)
        print(f"{label:<12} {deadline_minutes:>11.1f} min {units.format_dollars(estimate):>16}")

    print(
        "\nStricter tiers meet tighter deadlines but provision more VMs; the"
        " estimates let the application pick the trade-off before executing."
    )


if __name__ == "__main__":
    main()
