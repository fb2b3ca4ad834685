"""Property tests: serialization round-trips are bit-identical.

The model registry's correctness rests on one invariant: a decision model (or
goal, or training result) restored from ``to_dict → JSON → from_dict`` behaves
*bit-identically* to the original — same schedules, same costs, same
penalties.  These tests drive that invariant with generated workloads and
goal parameters rather than fixed examples.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.cost_model import CostModel
from repro.core.outcome import QueryOutcome
from repro.learning.model import DecisionModel
from repro.learning.trainer import TrainingResult
from repro.runtime.batch import BatchScheduler
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.factory import goal_from_dict
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.sla.percentile import PercentileGoal
from repro.workloads.workload import Workload


def _json_roundtrip(data: dict) -> dict:
    """Force the representation through actual JSON text."""
    return json.loads(json.dumps(data))


def _outcomes(latencies: list[float]) -> list[QueryOutcome]:
    names = ["T1", "T2", "T3"]
    return [
        QueryOutcome(
            query_id=index,
            template_name=names[index % len(names)],
            vm_index=0,
            vm_type_name="t2.medium",
            arrival_time=0.0,
            start_time=0.0,
            completion_time=latency,
            execution_time=latency,
        )
        for index, latency in enumerate(latencies)
    ]


# ---------------------------------------------------------------------------
# Goals
# ---------------------------------------------------------------------------


latency_lists = st.lists(
    st.floats(min_value=1.0, max_value=3600.0, allow_nan=False), min_size=1, max_size=12
)


@settings(max_examples=40, deadline=None)
@given(
    deadline=st.floats(min_value=1.0, max_value=7200.0, allow_nan=False),
    rate=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    latencies=latency_lists,
)
def test_simple_goal_roundtrip_bit_identical(deadline, rate, latencies):
    outcomes = _outcomes(latencies)
    for goal in (
        MaxLatencyGoal(deadline=deadline, penalty_rate=rate),
        AverageLatencyGoal(deadline=deadline, penalty_rate=rate),
        PercentileGoal(percent=90.0, deadline=deadline, penalty_rate=rate),
    ):
        restored = goal_from_dict(_json_roundtrip(goal.to_dict()))
        assert type(restored) is type(goal)
        assert restored.to_dict() == goal.to_dict()
        assert restored.penalty(outcomes) == goal.penalty(outcomes)
        assert restored.violation_period(outcomes) == goal.violation_period(outcomes)


@settings(max_examples=25, deadline=None)
@given(
    factors=st.lists(
        st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
        min_size=3,
        max_size=3,
    ),
    latencies=latency_lists,
)
def test_per_query_goal_roundtrip_bit_identical(small_templates, factors, latencies):
    deadlines = {
        template.name: factor * template.base_latency
        for template, factor in zip(small_templates, factors)
    }
    goal = PerQueryDeadlineGoal(deadlines, penalty_rate=1.0)
    restored = goal_from_dict(_json_roundtrip(goal.to_dict()))
    outcomes = _outcomes(latencies)
    assert restored.to_dict() == goal.to_dict()
    assert restored.penalty(outcomes) == goal.penalty(outcomes)


@settings(max_examples=20, deadline=None)
@given(percent=st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
def test_percentile_field_roundtrip(percent):
    goal = PercentileGoal(percent=percent, deadline=units.minutes(6))
    restored = goal_from_dict(_json_roundtrip(goal.to_dict()))
    assert restored.to_dict() == goal.to_dict()
    assert restored.deadline == goal.deadline


# ---------------------------------------------------------------------------
# Decision models: restored models schedule bit-identically
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def restored_max(trained_max):
    return DecisionModel.from_dict(_json_roundtrip(trained_max.model.to_dict()))


@settings(max_examples=25, deadline=None)
@given(names=st.data())
def test_model_roundtrip_schedules_bit_identical(
    trained_max, restored_max, small_templates, names
):
    chosen = names.draw(
        st.lists(st.sampled_from(small_templates.names), min_size=1, max_size=30)
    )
    workload = Workload.from_template_names(small_templates, chosen)
    original = BatchScheduler(trained_max.model).schedule(workload)
    restored = BatchScheduler(restored_max).schedule(workload)
    assert restored.signature() == original.signature()
    original_cost = CostModel(trained_max.model.latency_model).breakdown(
        original, trained_max.model.goal
    )
    restored_cost = CostModel(restored_max.latency_model).breakdown(
        restored, restored_max.goal
    )
    assert restored_cost == original_cost


def test_model_roundtrip_tree_and_metadata(trained_max, restored_max):
    original = trained_max.model
    assert restored_max.tree.to_dict() == original.tree.to_dict()
    assert restored_max.metadata.to_dict() == original.metadata.to_dict()
    assert restored_max._extractor.feature_names == original._extractor.feature_names
    assert restored_max.goal.to_dict() == original.goal.to_dict()


# ---------------------------------------------------------------------------
# Training results: the full artifact (model + samples + workloads)
# ---------------------------------------------------------------------------


def test_training_result_roundtrip(trained_max):
    restored = TrainingResult.from_dict(_json_roundtrip(trained_max.to_dict()))
    assert restored.num_examples == trained_max.num_examples
    assert restored.training_set.labels() == trained_max.training_set.labels()
    original_matrix, _ = trained_max.training_set.to_matrix()
    restored_matrix, _ = restored.training_set.to_matrix()
    assert (original_matrix == restored_matrix).all()
    assert [s.optimal_cost for s in restored.samples] == [
        s.optimal_cost for s in trained_max.samples
    ]
    assert len(restored.workloads) == len(trained_max.workloads)
    for original, recovered in zip(trained_max.workloads, restored.workloads):
        assert [q.query_id for q in recovered] == [q.query_id for q in original]
        assert dict(recovered.template_counts()) == dict(original.template_counts())


def test_training_result_rejects_foreign_payload():
    from repro.exceptions import TrainingError

    with pytest.raises(TrainingError):
        TrainingResult.from_dict({"format": "something-else"})


def test_model_rejects_foreign_payload():
    from repro.exceptions import ModelError

    with pytest.raises(ModelError):
        DecisionModel.from_dict({"format": "something-else"})
