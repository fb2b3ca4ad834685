"""Training sets: float64 row blocks plus one label per row, stored as one
compressed float64 block."""

from __future__ import annotations

import base64
import json
import zlib

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


def test_dict_form_is_one_compressed_float64_block_and_round_trips_exactly():
    subnormal = 5e-324
    rows = np.array([[0.1, -0.0, 1.0e12], [1.0 / 3.0, 2.0, subnormal]])
    ts = TrainingSet(["a", "b", "c"])
    ts.extend(rows, ["x", "y"])
    data = ts.to_dict()
    assert set(data) == {"feature_names", "labels", "values"}
    assert data["feature_names"] == ["a", "b", "c"]
    assert data["labels"] == ["x", "y"]
    block = zlib.decompress(base64.b64decode(data["values"], validate=True))
    assert block == rows.astype("<f8").tobytes()
    text = json.dumps(data)
    restored = TrainingSet.from_dict(json.loads(text))
    assert json.dumps(restored.to_dict()) == text
    matrix, labels = restored.to_matrix()
    assert matrix.tobytes() == rows.tobytes()
    assert labels == ["x", "y"]
    assert np.signbit(matrix[0, 1]) and matrix[1, 2] == subnormal
    empty = TrainingSet.from_dict(TrainingSet(["a"]).to_dict())
    assert (len(empty), empty.feature_names) == (0, ("a",))


def test_version_1_rows_still_load():
    rows = [[0.1, -0.0, 1.0e12], [1.0 / 3.0, 2.0, 5e-324]]
    data = {
        "feature_names": ["a", "b", "c"],
        "examples": [
            {"label": "x", "values": rows[0]},
            {"label": "y", "values": rows[1]},
        ],
    }
    restored = TrainingSet.from_dict(json.loads(json.dumps(data)))
    matrix, labels = restored.to_matrix()
    assert matrix.tobytes() == np.array(rows).tobytes()
    assert labels == ["x", "y"]
    assert len(TrainingSet.from_dict({"feature_names": ["a"], "examples": []})) == 0


def _corrupted(data: dict, mutate) -> dict:
    block = bytearray(base64.b64decode(data["values"]))
    return {**data, "values": base64.b64encode(bytes(mutate(block))).decode("ascii")}


def _flip_last_byte(block: bytearray) -> bytearray:
    block[-1] ^= 0xFF
    return block


@pytest.mark.parametrize(
    "corrupt",
    (
        pytest.param(lambda data: _corrupted(data, lambda block: block[:-5]), id="truncated"),
        pytest.param(lambda data: _corrupted(data, _flip_last_byte), id="bit_flipped"),
        pytest.param(lambda data: {**data, "values": "not base64!"}, id="not_base64"),
        pytest.param(lambda data: {**data, "labels": data["labels"][:1]}, id="short_labels"),
        pytest.param(
            lambda data: {
                **data,
                "values": base64.b64encode(zlib.compress(b"\0" * 8)).decode("ascii"),
            },
            id="wrong_length",
        ),
    ),
)
def test_a_corrupt_block_raises_training_error(corrupt):
    ts = TrainingSet(["a", "b"])
    ts.extend(np.arange(6.0).reshape(3, 2), ["x", "y", "z"])
    with pytest.raises(TrainingError, match="training matrix block"):
        TrainingSet.from_dict(corrupt(ts.to_dict()))
