"""Training sets and examples."""

from __future__ import annotations

import pytest

from repro.exceptions import TrainingError
from repro.learning.dataset import TrainingExample, TrainingSet


def example(label: str, **features: float) -> TrainingExample:
    return TrainingExample(features=dict(features), label=label)


def test_example_value_defaults_to_zero():
    ex = example("assign:T1", wait_time=5.0)
    assert ex.value("wait_time") == 5.0
    assert ex.value("missing") == 0.0


def test_training_set_add_and_len():
    ts = TrainingSet(["a", "b"])
    assert len(ts) == 0
    ts.add(example("x", a=1.0, b=2.0))
    ts.extend([example("y", a=0.0, b=1.0)])
    assert len(ts) == 2
    assert ts.labels() == ["x", "y"]


def test_to_matrix_orders_features():
    ts = TrainingSet(["a", "b"], [example("x", a=1.0, b=2.0), example("y", b=5.0)])
    matrix, labels = ts.to_matrix()
    assert matrix.shape == (2, 2)
    assert matrix[0].tolist() == [1.0, 2.0]
    assert matrix[1].tolist() == [0.0, 5.0]  # missing features become zero
    assert labels == ["x", "y"]


def test_to_matrix_empty_raises():
    with pytest.raises(TrainingError):
        TrainingSet(["a"]).to_matrix()


def test_without_features_drops_columns():
    ts = TrainingSet(["a", "b"], [example("x", a=1.0, b=2.0)])
    reduced = ts.without_features(["b"])
    assert reduced.feature_names == ("a",)
    assert "b" not in reduced.examples[0].features
    # Original unchanged.
    assert ts.feature_names == ("a", "b")


def test_indexing_and_iteration():
    ts = TrainingSet(["a"], [example("x", a=1.0), example("y", a=2.0)])
    assert ts[0].label == "x"
    assert [e.label for e in ts] == ["x", "y"]
