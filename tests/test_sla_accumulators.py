"""Incremental violation accumulators agree with the batch goal definitions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.outcome import QueryOutcome
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.sla.percentile import PercentileGoal


def outcome(template: str, latency: float, query_id: int = 0) -> QueryOutcome:
    return QueryOutcome(
        query_id=query_id,
        template_name=template,
        vm_index=0,
        vm_type_name="vm",
        arrival_time=0.0,
        start_time=0.0,
        completion_time=latency,
        execution_time=latency,
    )


TEMPLATES = ("T1", "T2", "T3")

latency_lists = st.lists(
    st.tuples(
        st.sampled_from(TEMPLATES),
        st.floats(min_value=1.0, max_value=3600.0, allow_nan=False),
    ),
    min_size=0,
    max_size=25,
)


def _goals():
    return [
        MaxLatencyGoal(deadline=units.minutes(8)),
        PerQueryDeadlineGoal({"T1": 120.0, "T2": 300.0, "T3": 700.0}),
        AverageLatencyGoal(deadline=units.minutes(5)),
        PercentileGoal(percent=80.0, deadline=units.minutes(6)),
    ]


@pytest.mark.parametrize("goal", _goals(), ids=lambda g: g.kind)
@given(pairs=latency_lists)
@settings(max_examples=60, deadline=None)
def test_accumulator_matches_batch_violation(goal, pairs):
    """Property: incrementally accumulated violation equals the batch definition."""
    accumulator = goal.accumulator()
    for template, latency in pairs:
        accumulator.add(template, latency)
    outcomes = [outcome(t, l, i) for i, (t, l) in enumerate(pairs)]
    assert accumulator.violation() == pytest.approx(
        goal.violation_period(outcomes), rel=1e-9, abs=1e-9
    )


@pytest.mark.parametrize("goal", _goals(), ids=lambda g: g.kind)
@given(pairs=latency_lists, extra=st.floats(min_value=1.0, max_value=3600.0))
@settings(max_examples=60, deadline=None)
def test_violation_with_matches_add(goal, pairs, extra):
    """Property: violation_with() predicts exactly what add() would produce."""
    accumulator = goal.accumulator()
    for template, latency in pairs:
        accumulator.add(template, latency)
    predicted = accumulator.violation_with("T2", extra)
    accumulator.add("T2", extra)
    assert predicted == pytest.approx(accumulator.violation(), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("goal", _goals(), ids=lambda g: g.kind)
@given(pairs=latency_lists, extra=st.floats(min_value=1.0, max_value=3600.0))
@settings(max_examples=60, deadline=None)
def test_violation_with_equals_branch_and_add_exactly(goal, pairs, extra):
    """Property: violation_with() is bit-identical to branch(); add(); violation().

    The search prices each child with violation_with() and builds the
    child's accumulator by branch() and add() only if the child is popped.
    """
    accumulator = goal.accumulator()
    for template, latency in pairs:
        accumulator.add(template, latency)
    predicted = accumulator.violation_with("T2", extra)
    branch = accumulator.branch()
    branch.add("T2", extra)
    assert predicted == branch.violation()


@pytest.mark.parametrize("goal", _goals(), ids=lambda g: g.kind)
@given(pairs=latency_lists, shrink=st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_stricter_goal_accumulates_at_least_the_old_penalty(goal, pairs, shrink):
    """Property: a stricter goal's accumulator never prices a stream below the old one's.

    Adaptive retraining carries the old goal's accumulator beside the new
    goal's; ``h'`` relies on the new partial penalty never falling below
    the old one (Lemma 5.1's premise, what ``at_least_as_strict_as`` promises).
    """
    stricter = goal.with_deadline(goal.deadline * shrink)
    assert stricter.at_least_as_strict_as(goal)
    old, new = goal.accumulator(), stricter.accumulator()
    for template, latency in pairs:
        old.add(template, latency)
        new.add(template, latency)
        assert stricter.penalty_rate * new.violation() >= goal.penalty_rate * old.violation()


@pytest.mark.parametrize("goal", _goals(), ids=lambda g: g.kind)
def test_copy_is_independent(goal):
    accumulator = goal.accumulator()
    accumulator.add("T1", 500.0)
    clone = accumulator.copy()
    clone.add("T3", 2000.0)
    assert accumulator.violation() != clone.violation() or goal.kind == "percentile"
    # The original must not have been mutated by operations on the clone.
    fresh = goal.accumulator()
    fresh.add("T1", 500.0)
    assert accumulator.violation() == pytest.approx(fresh.violation())


def test_monotonic_goal_accumulators_never_decrease():
    goal = MaxLatencyGoal(deadline=300.0)
    accumulator = goal.accumulator()
    rng = random.Random(5)
    previous = 0.0
    for _ in range(50):
        accumulator.add("T1", rng.uniform(1.0, 900.0))
        assert accumulator.violation() >= previous
        previous = accumulator.violation()


def test_average_accumulator_can_decrease():
    goal = AverageLatencyGoal(deadline=100.0)
    accumulator = goal.accumulator()
    accumulator.add("T1", 400.0)
    high = accumulator.violation()
    accumulator.add("T2", 10.0)
    assert accumulator.violation() < high


def test_percentile_accumulator_hypothetical_does_not_mutate():
    goal = PercentileGoal(percent=50.0, deadline=100.0)
    accumulator = goal.accumulator()
    for latency in (50.0, 150.0, 250.0):
        accumulator.add("T1", latency)
    before = accumulator.violation()
    accumulator.violation_with("T1", 500.0)
    assert accumulator.violation() == before
