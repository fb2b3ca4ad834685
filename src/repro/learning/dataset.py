"""Training datasets: labelled feature rows harvested from optimal schedules.

The training set (Section 4.4) contains one example per edge of each sample
workload's optimal path: the features of the edge's origin vertex, labelled
with the action taken (place template X / provision a VM of type Y).

A set is held the way the tree fit reads it: float64 row blocks in the
canonical feature order — one per training pass, as
:meth:`FeatureExtractor.block <repro.learning.features.FeatureExtractor.block>`
wrote it — plus one label per row.  Nothing else is kept per row, and
:meth:`TrainingSet.to_matrix` is one stack of the blocks.  An artifact stores
the set the same way: the feature names, the labels, and the whole matrix as
one compressed little-endian float64 block (:meth:`TrainingSet.to_dict`).
"""

from __future__ import annotations

import base64
import binascii
import zlib
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import TrainingError

#: One fixed compression level, the fastest.  Level 6 makes a referee-sized
#: block half as large but triples the compress time of every put.
_ZLIB_LEVEL = 1


class TrainingSet:
    """Labelled feature rows with a fixed feature order."""

    def __init__(self, feature_names: Sequence[str]) -> None:
        self._feature_names = tuple(feature_names)
        self._blocks: list[np.ndarray] = []
        self._labels: list[str] = []

    def extend(self, rows: np.ndarray, labels: Sequence[str]) -> None:
        """Append a block of rows (one per label, in the canonical feature order).

        The set keeps *rows* as given when it is already a float64 array, so
        the caller must not write to it afterwards.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(self._feature_names):
            raise TrainingError("feature rows and feature_names disagree on width")
        if rows.shape[0] != len(labels):
            raise TrainingError("feature rows and labels disagree on example count")
        if len(labels):
            self._blocks.append(rows)
            self._labels.extend(labels)

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Feature order of every row."""
        return self._feature_names

    def labels(self) -> list[str]:
        """Label of every row, in insertion order."""
        return list(self._labels)

    def to_matrix(self) -> tuple[np.ndarray, list[str]]:
        """(feature matrix, label list) in the canonical feature order."""
        if not self._labels:
            raise TrainingError("cannot convert an empty training set to a matrix")
        return np.vstack(self._blocks), self.labels()

    def without_features(self, names: Iterable[str]) -> "TrainingSet":
        """A copy with the given feature columns removed (used by ablations)."""
        dropped = set(names)
        kept = [
            column for column, name in enumerate(self._feature_names) if name not in dropped
        ]
        reduced = TrainingSet([self._feature_names[column] for column in kept])
        if self._labels:
            reduced.extend(np.vstack(self._blocks)[:, kept], self._labels)
        return reduced

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation: feature names, labels, one matrix block.

        ``values`` is the base64 text of the zlib-compressed row-major matrix,
        stored as little-endian float64 so every host decodes the same floats.
        The decoded matrix and labels are the contract; the compressed bytes
        may differ between zlib builds.
        """
        width = len(self._feature_names)
        matrix = np.vstack(self._blocks) if self._blocks else np.empty((0, width))
        block = zlib.compress(matrix.astype("<f8", copy=False).tobytes(), _ZLIB_LEVEL)
        return {
            "feature_names": list(self._feature_names),
            "labels": list(self._labels),
            "values": base64.b64encode(block).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingSet":
        """Rebuild a training set from :meth:`to_dict` output.

        Version-1 artifacts stored one ``{"label", "values"}`` row per example
        under ``examples``; they still load.  A block that does not decompress
        to ``len(labels) x len(feature_names)`` floats raises
        :class:`~repro.exceptions.TrainingError`.
        """
        training_set = cls(data["feature_names"])
        width = len(training_set.feature_names)
        if "examples" in data:
            entries = data["examples"]
            labels = [entry["label"] for entry in entries]
            rows = np.array([entry["values"] for entry in entries], dtype=np.float64)
        else:
            labels = data["labels"]
            try:
                raw = zlib.decompress(base64.b64decode(data["values"], validate=True))
            except (binascii.Error, zlib.error) as error:
                raise TrainingError(f"training matrix block is corrupt: {error}") from error
            if len(raw) != len(labels) * width * 8:
                raise TrainingError(
                    f"training matrix block holds {len(raw)} bytes, not "
                    f"{len(labels)} x {width} float64 values"
                )
            rows = np.frombuffer(raw, dtype="<f8")
        training_set.extend(rows.reshape(len(labels), width), labels)
        return training_set
