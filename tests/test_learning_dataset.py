"""Training sets: float64 row blocks plus one label per row."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import TrainingError
from repro.learning.dataset import TrainingSet


def test_extend_appends_blocks_and_labels():
    ts = TrainingSet(["a", "b"])
    assert len(ts) == 0
    ts.extend(np.array([[1.0, 2.0]]), ["x"])
    ts.extend(np.array([[0.0, 1.0], [3.0, 4.0]]), ("y", "z"))
    ts.extend(np.empty((0, 2)), ())
    assert len(ts) == 3
    assert ts.labels() == ["x", "y", "z"]
    matrix, labels = ts.to_matrix()
    assert matrix.dtype == np.float64
    assert matrix.tolist() == [[1.0, 2.0], [0.0, 1.0], [3.0, 4.0]]
    assert labels == ["x", "y", "z"]


def test_extend_rejects_rows_that_do_not_fit():
    ts = TrainingSet(["a", "b"])
    with pytest.raises(TrainingError, match="width"):
        ts.extend(np.zeros((1, 3)), ["x"])
    with pytest.raises(TrainingError, match="width"):
        ts.extend(np.zeros(2), ["x"])
    with pytest.raises(TrainingError, match="count"):
        ts.extend(np.zeros((2, 2)), ["x"])
    assert len(ts) == 0


def test_to_matrix_empty_raises():
    with pytest.raises(TrainingError):
        TrainingSet(["a"]).to_matrix()


def test_without_features_selects_columns():
    ts = TrainingSet(["a", "b", "c"])
    ts.extend(np.array([[1.0, 2.0, 3.0]]), ["x"])
    ts.extend(np.array([[4.0, 5.0, 6.0]]), ["y"])
    reduced = ts.without_features(["b", "missing"])
    assert reduced.feature_names == ("a", "c")
    assert reduced.to_matrix()[0].tolist() == [[1.0, 3.0], [4.0, 6.0]]
    assert reduced.labels() == ["x", "y"]
    # Original unchanged.
    assert ts.feature_names == ("a", "b", "c")
    assert ts.to_matrix()[0].shape == (2, 3)
    assert len(TrainingSet(["a", "b"]).without_features(["a"])) == 0


def test_dict_form_is_dense_values_rows_and_round_trips_exactly():
    rows = np.array([[0.1, -0.0, 1.0e12], [1.0 / 3.0, 2.0, 0.0]])
    ts = TrainingSet(["a", "b", "c"])
    ts.extend(rows, ["x", "y"])
    data = ts.to_dict()
    assert data == {
        "feature_names": ["a", "b", "c"],
        "examples": [
            {"label": "x", "values": [0.1, -0.0, 1.0e12]},
            {"label": "y", "values": [1.0 / 3.0, 2.0, 0.0]},
        ],
    }
    text = json.dumps(data)
    restored = TrainingSet.from_dict(json.loads(text))
    assert json.dumps(restored.to_dict()) == text
    assert restored.to_matrix()[0].tobytes() == rows.tobytes()
    empty = TrainingSet.from_dict(TrainingSet(["a"]).to_dict())
    assert (len(empty), empty.feature_names) == (0, ("a",))
