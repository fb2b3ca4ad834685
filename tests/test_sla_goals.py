"""Performance goals: violation periods, penalties, monotonicity, and algebra."""

from __future__ import annotations

import pytest

from repro import units
from repro.core.outcome import QueryOutcome
from repro.exceptions import GoalError
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.base import PerformanceGoal
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.sla.percentile import PercentileGoal


def outcome(template: str, latency: float, query_id: int = 0) -> QueryOutcome:
    """Build a batch-style outcome with the given observed latency."""
    return QueryOutcome(
        query_id=query_id,
        template_name=template,
        vm_index=0,
        vm_type_name="t2.medium",
        arrival_time=0.0,
        start_time=0.0,
        completion_time=latency,
        execution_time=latency,
    )


# ---------------------------------------------------------------------------
# Max latency
# ---------------------------------------------------------------------------


def test_max_goal_no_violation_within_deadline():
    goal = MaxLatencyGoal(deadline=units.minutes(10))
    outcomes = [outcome("T1", units.minutes(5)), outcome("T2", units.minutes(10))]
    assert goal.violation_period(outcomes) == 0.0


def test_max_goal_violation_sums_overages():
    goal = MaxLatencyGoal(deadline=units.minutes(10))
    outcomes = [outcome("T1", units.minutes(12)), outcome("T2", units.minutes(11))]
    assert goal.violation_period(outcomes) == pytest.approx(units.minutes(3))
    assert goal.penalty(outcomes) == pytest.approx(units.minutes(3) * goal.penalty_rate)


def test_max_goal_properties(small_templates):
    goal = MaxLatencyGoal.from_factor(small_templates, factor=2.5)
    assert goal.deadline == pytest.approx(units.minutes(10))
    assert goal.is_monotonic
    assert goal.is_linearly_shiftable
    assert goal.strictest_value(small_templates) == units.minutes(4)


def test_max_goal_rejects_bad_deadline():
    with pytest.raises(GoalError):
        MaxLatencyGoal(deadline=0.0)


# ---------------------------------------------------------------------------
# Per-query deadlines
# ---------------------------------------------------------------------------


def test_per_query_goal_uses_template_deadlines(small_templates):
    goal = PerQueryDeadlineGoal.from_factor(small_templates, factor=2.0)
    fine = [outcome("T1", units.minutes(2)), outcome("T3", units.minutes(8))]
    assert goal.violation_period(fine) == 0.0
    late = [outcome("T1", units.minutes(3))]  # deadline for T1 is 2 minutes
    assert goal.violation_period(late) == pytest.approx(units.minutes(1))


def test_per_query_goal_unknown_template_uses_mean_deadline(small_templates):
    goal = PerQueryDeadlineGoal.from_factor(small_templates, factor=2.0)
    unknown = [outcome("T9", goal.deadline + 30.0)]
    assert goal.violation_period(unknown) == pytest.approx(30.0)


def test_per_query_goal_shifted_tightens_each_deadline(small_templates):
    goal = PerQueryDeadlineGoal.from_factor(small_templates, factor=2.0)
    shifted = goal.shifted(60.0)
    for name in small_templates.names:
        assert shifted.deadline_for(name) == pytest.approx(goal.deadline_for(name) - 60.0)


def test_per_query_goal_with_deadline_scales_proportionally(small_templates):
    goal = PerQueryDeadlineGoal.from_factor(small_templates, factor=2.0)
    scaled = goal.with_deadline(goal.deadline / 2)
    assert scaled.deadline == pytest.approx(goal.deadline / 2)
    ratio = scaled.deadline_for("T3") / goal.deadline_for("T3")
    assert ratio == pytest.approx(0.5)


def test_per_query_goal_with_extra_deadline(small_templates):
    goal = PerQueryDeadlineGoal.from_factor(small_templates, factor=2.0)
    extended = goal.with_extra_deadline("T1+60s", 500.0)
    assert extended.deadline_for("T1+60s") == 500.0
    assert extended.deadline_for("T1") == goal.deadline_for("T1")


def test_per_query_goal_validation(small_templates):
    with pytest.raises(GoalError):
        PerQueryDeadlineGoal({})
    with pytest.raises(GoalError):
        PerQueryDeadlineGoal({"T1": -5.0})
    with pytest.raises(GoalError):
        PerQueryDeadlineGoal.from_factor(small_templates, factor=0.0)


# ---------------------------------------------------------------------------
# Average latency
# ---------------------------------------------------------------------------


def test_average_goal_violation_is_mean_overage():
    goal = AverageLatencyGoal(deadline=units.minutes(10))
    outcomes = [outcome("T1", units.minutes(8)), outcome("T2", units.minutes(16))]
    # Average latency is 12 minutes; overage is 2 minutes.
    assert goal.violation_period(outcomes) == pytest.approx(units.minutes(2))


def test_average_goal_not_monotonic_example():
    goal = AverageLatencyGoal(deadline=units.minutes(10))
    slow = [outcome("T1", units.minutes(14))]
    both = slow + [outcome("T2", units.minutes(2))]
    # Adding a fast query decreases the penalty: the defining non-monotonic case.
    assert goal.violation_period(both) < goal.violation_period(slow)
    assert not goal.is_monotonic
    assert not goal.is_linearly_shiftable


def test_average_goal_empty_outcomes():
    goal = AverageLatencyGoal(deadline=units.minutes(10))
    assert goal.violation_period([]) == 0.0


def test_average_goal_shift_raises():
    goal = AverageLatencyGoal(deadline=units.minutes(10))
    with pytest.raises(GoalError):
        goal.shifted(30.0)


# ---------------------------------------------------------------------------
# Percentile
# ---------------------------------------------------------------------------


def test_percentile_goal_ignores_allowed_stragglers():
    goal = PercentileGoal(percent=90.0, deadline=units.minutes(10))
    outcomes = [outcome("T1", units.minutes(5), query_id=i) for i in range(9)]
    outcomes.append(outcome("T2", units.minutes(60), query_id=9))
    # 90% of queries finish within the deadline: no violation.
    assert goal.violation_period(outcomes) == 0.0


def test_percentile_goal_violation_when_percentile_misses():
    goal = PercentileGoal(percent=50.0, deadline=units.minutes(10))
    outcomes = [
        outcome("T1", units.minutes(5), query_id=0),
        outcome("T1", units.minutes(20), query_id=1),
        outcome("T1", units.minutes(30), query_id=2),
    ]
    # The 50th-percentile latency is 20 minutes -> 10 minutes over.
    assert goal.violation_period(outcomes) == pytest.approx(units.minutes(10))


def test_percentile_goal_validation():
    with pytest.raises(GoalError):
        PercentileGoal(percent=0.0)
    with pytest.raises(GoalError):
        PercentileGoal(percent=101.0)
    with pytest.raises(GoalError):
        PercentileGoal(deadline=-5.0)


def test_percentile_goal_empty_outcomes():
    goal = PercentileGoal()
    assert goal.violation_period([]) == 0.0


# ---------------------------------------------------------------------------
# Goal algebra shared by all kinds
# ---------------------------------------------------------------------------


def test_tightened_moves_towards_strictest(small_templates, all_goals):
    for goal in all_goals.values():
        tightened = goal.tightened(0.5, small_templates)
        assert tightened.deadline < goal.deadline
        assert tightened.deadline >= goal.strictest_value(small_templates) - 1e-9


def test_tightened_full_reaches_strictest(small_templates, all_goals):
    for goal in all_goals.values():
        strictest = goal.tightened(1.0, small_templates)
        assert strictest.deadline == pytest.approx(goal.strictest_value(small_templates))


def test_tightened_negative_relaxes(small_templates, all_goals):
    for goal in all_goals.values():
        relaxed = goal.tightened(-0.5, small_templates)
        assert relaxed.deadline > goal.deadline


def test_strictness_factor(small_templates, all_goals):
    for goal in all_goals.values():
        stricter = goal.with_strictness_factor(0.2)
        relaxed = goal.with_strictness_factor(-0.2)
        assert stricter.deadline == pytest.approx(goal.deadline * 0.8)
        assert relaxed.deadline == pytest.approx(goal.deadline * 1.2)
    with pytest.raises(GoalError):
        goal.with_strictness_factor(1.5)


def test_at_least_as_strict_as(small_templates, all_goals, max_goal):
    tighter = max_goal.with_deadline(max_goal.deadline / 2)
    assert tighter.at_least_as_strict_as(max_goal)
    assert not max_goal.at_least_as_strict_as(tighter)
    assert not max_goal.at_least_as_strict_as(AverageLatencyGoal())
    for goal in all_goals.values():
        assert goal.at_least_as_strict_as(goal)
        assert goal.tightened(0.1, small_templates).at_least_as_strict_as(goal)
        assert not goal.tightened(-0.1, small_templates).at_least_as_strict_as(goal)


def test_at_least_as_strict_as_reads_everything_the_penalty_reads(per_query_goal):
    """A tighter scalar deadline is not enough: rate, every deadline, the percentile."""
    cheaper = MaxLatencyGoal(190.0, penalty_rate=0.001)
    assert not cheaper.at_least_as_strict_as(MaxLatencyGoal(200.0, penalty_rate=1.0))
    assert MaxLatencyGoal(190.0, penalty_rate=2.0).at_least_as_strict_as(
        MaxLatencyGoal(200.0, penalty_rate=1.0)
    )

    deadlines = dict(per_query_goal.deadlines)
    first = next(iter(deadlines))
    lower_mean = PerQueryDeadlineGoal(
        {name: value * (2.0 if name == first else 0.4) for name, value in deadlines.items()}
    )
    assert lower_mean.deadline < per_query_goal.deadline
    assert not lower_mean.at_least_as_strict_as(per_query_goal)
    assert per_query_goal.shifted(5.0).at_least_as_strict_as(per_query_goal)
    fewer = PerQueryDeadlineGoal({first: deadlines[first]})
    assert not fewer.at_least_as_strict_as(per_query_goal)
    # Same deadlines listed in another order (a goal restored from JSON).
    reordered = PerQueryDeadlineGoal(dict(sorted(deadlines.items(), reverse=True)))
    assert reordered.at_least_as_strict_as(per_query_goal)

    assert not PercentileGoal(80.0, 500.0).at_least_as_strict_as(PercentileGoal(90.0, 600.0))
    assert PercentileGoal(90.0, 500.0).at_least_as_strict_as(PercentileGoal(90.0, 600.0))


def test_penalty_rate_validation():
    with pytest.raises(GoalError):
        MaxLatencyGoal(deadline=10.0, penalty_rate=-1.0)


def test_default_goals_cover_all_kinds(small_templates):
    for kind in GOAL_KINDS:
        assert default_goal(kind, small_templates).kind == kind


def test_default_goal_unknown_kind(small_templates):
    with pytest.raises(ValueError):
        default_goal("p99", small_templates)


def test_describe_mentions_kind(all_goals):
    for kind, goal in all_goals.items():
        assert kind in goal.describe()


# ---------------------------------------------------------------------------
# Search guidance hooks
# ---------------------------------------------------------------------------


def test_only_non_monotonic_goals_override_the_future_cost_bound(all_goals):
    # The monotonic goals carry their penalty in the search's g-value, so
    # they keep the base default: an admissible float zero, whatever state
    # it is handed.  The others read their accumulator's state, and charge
    # for assigned queries this late.
    remaining = [units.minutes(30)] * 3
    for kind, goal in all_goals.items():
        overrides = (
            type(goal).future_cost_lower_bound
            is not PerformanceGoal.future_cost_lower_bound
        )
        assert overrides == (not goal.is_monotonic), kind
        if goal.is_monotonic:
            bound = goal.future_cost_lower_bound(None, remaining, 1.0)
            assert bound == 0.0 and type(bound) is float, kind
        else:
            accumulator = goal.accumulator()
            for latency in (units.minutes(60), units.minutes(90)):
                accumulator.add("T1", latency)
            bound = goal.future_cost_lower_bound(accumulator.state(), remaining, 1.0)
            assert bound > 0.0 and type(bound) is float, kind
