"""Incremental violation accumulators agree with the batch goal definitions,
and their array twin of ``violation_with`` agrees with the scalar bit for bit."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.outcome import QueryOutcome
from repro.sla.accumulators import (
    AverageLatencyViolationAccumulator,
    MaxLatencyViolationAccumulator,
    PercentileViolationAccumulator,
    PerQueryViolationAccumulator,
)
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.base import left_sum
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.sla.percentile import PercentileGoal

from oracles import average_future_cost, percentile_future_cost


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


@pytest.mark.parametrize("goal", _goals()[2:], ids=lambda g: g.kind)
@given(
    pairs=latency_lists,
    remaining=st.lists(st.floats(min_value=1.0, max_value=3600.0), max_size=7),
    min_startup_cost=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=100, deadline=None)
def test_state_is_what_the_cost_to_go_reads(goal, pairs, remaining, min_startup_cost):
    """Property: a non-monotonic accumulator's state is its goal's cost-to-go input.

    The search prices a child's cost-to-go from its parent's ``state_with``
    and memoises it on the state, so the state must be what ``branch(); add()``
    leaves, bit for bit — average's total the placement sequence's left
    fold, percentile's the sorted latencies — and the goal's bound over it
    must equal the straight-line oracle over the placement sequence.
    """
    accumulator = goal.accumulator()
    sequence = []
    for template, latency in pairs:
        before = accumulator.state()
        predicted = accumulator.state_with(latency)
        child = accumulator.branch()
        child.add(template, latency)
        assert child.state() == predicted
        assert accumulator.state() == before
        accumulator = child
        sequence.append(latency)
    state = accumulator.state()
    bound = goal.future_cost_lower_bound(state, remaining, min_startup_cost)
    if goal.kind == "average":
        assert state == (left_sum(sequence), len(sequence))
        assert bound == average_future_cost(goal, sequence, remaining, min_startup_cost)
    else:
        assert state == tuple(sorted(sequence))
        assert bound == percentile_future_cost(goal, state, remaining, min_startup_cost)


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


# ---------------------------------------------------------------------------
# The array twin of violation_with, as training's block prices cost-of-X
# ---------------------------------------------------------------------------

#: ``T4`` is in no per-query deadline table: it reads the default deadline.
TWIN_TEMPLATES = ("T1", "T2", "T3", "T4")
_INF = float("inf")
#: Any float but NaN, with the values a sign or a rank slip shows on.
_twin_floats = st.one_of(
    st.floats(min_value=0.0, max_value=3600.0),
    st.sampled_from([0.0, -0.0, 1.0, _INF, -_INF]),
    st.floats(allow_nan=False),
)
_deadlines = st.one_of(
    st.floats(min_value=1.0, max_value=3600.0), st.sampled_from([0.0, -0.0, _INF])
)


@st.composite
def _twin_accumulator(draw, kind: str):
    """A fresh accumulator of *kind*, built directly (any deadline, any percent)."""
    if kind == "max":
        return MaxLatencyViolationAccumulator(draw(_deadlines))
    if kind == "per_query":
        table = {name: draw(_deadlines) for name in TWIN_TEMPLATES[:3] if draw(st.booleans())}
        return PerQueryViolationAccumulator(table, draw(_deadlines))
    if kind == "average":
        return AverageLatencyViolationAccumulator(draw(_deadlines))
    percent = draw(
        st.one_of(
            st.just(100.0),
            st.sampled_from([50.0, 75.0, 80.0, 95.0]),
            st.floats(min_value=0.0, max_value=100.0, exclude_min=True),
        )
    )
    return PercentileViolationAccumulator(percent, draw(_deadlines))


def _deadline_of(accumulator, name: str) -> float:
    if isinstance(accumulator, PerQueryViolationAccumulator):
        return accumulator._deadlines.get(name, accumulator._default_deadline)
    return accumulator._deadline


@pytest.mark.parametrize("kind", ("max", "per_query", "average", "percentile"))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_violation_with_array_is_violation_with_bit_for_bit(kind, data):
    """Property: for random states (the first one empty), every element of
    ``violation_with_array`` over the states' ``edge_summary`` rows equals the
    scalar ``violation_with`` of that state and template, compared as bytes
    (so ``-0.0`` for ``0.0`` fails).  Completions are any non-NaN float, a
    latency the row's state stores, or the column's deadline."""
    fresh = data.draw(_twin_accumulator(kind))
    states = [fresh.copy()]
    for adds in data.draw(
        st.lists(
            st.lists(st.tuples(st.sampled_from(TWIN_TEMPLATES), _twin_floats), max_size=9),
            max_size=5,
        )
    ):
        state = fresh.copy()
        for template, latency in adds:
            state.add(template, latency)
        states.append((state, [latency for _, latency in adds]))
    states[0] = (states[0], [])

    completions = np.empty((len(states), len(TWIN_TEMPLATES)))
    for row, (_, stored) in enumerate(states):
        for column, name in enumerate(TWIN_TEMPLATES):
            choices = [_twin_floats, st.just(_deadline_of(fresh, name))]
            if stored:
                choices.append(st.sampled_from(stored))
            completions[row, column] = data.draw(st.one_of(choices))

    expected = np.array(
        [
            [
                state.violation_with(name, float(completions[row, column]))
                for column, name in enumerate(TWIN_TEMPLATES)
            ]
            for row, (state, _) in enumerate(states)
        ],
        dtype=np.float64,
    )
    summaries = np.array([state.edge_summary() for state, _ in states], dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):  # as the scalar meets them too
        twin = fresh.violation_with_array(summaries, TWIN_TEMPLATES, completions)
    assert twin.dtype == np.float64 and twin.shape == expected.shape
    assert twin.tobytes() == expected.tobytes(), (summaries, completions, twin, expected)


@pytest.mark.parametrize("goal", _goals(), ids=lambda g: g.kind)
def test_violation_with_array_reads_zero_at_a_tie(goal):
    """A completion equal to a stored latency or to the deadline prices
    exactly what the scalar does, ``+0.0`` where nothing is late."""
    deadline = goal.query_deadline("T2") or goal.deadline
    fresh = goal.accumulator()
    state = fresh.copy()
    for latency in (deadline / 2.0, deadline, deadline / 3.0):
        state.add("T2", latency)
    summaries = np.array([fresh.edge_summary(), state.edge_summary()])
    completions = np.array([[deadline, deadline / 2.0], [deadline, deadline / 3.0]])
    twin = fresh.violation_with_array(summaries, ("T2", "T2"), completions)
    expected = np.array(
        [
            [accumulator.violation_with("T2", t) for t in completions[row].tolist()]
            for row, accumulator in enumerate((fresh, state))
        ]
    )
    assert twin.tobytes() == expected.tobytes()
    assert twin[0].tobytes() == np.zeros(2).tobytes()
