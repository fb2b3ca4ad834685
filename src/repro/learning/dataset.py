"""Training datasets: (features, decision) pairs harvested from optimal schedules.

The training set (Section 4.4) contains one example per edge of each sample
workload's optimal path: the features of the edge's origin vertex, labelled
with the action taken (place template X / provision a VM of type Y).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import TrainingError


@dataclass(frozen=True)
class TrainingExample:
    """One labelled decision from an optimal schedule."""

    features: dict[str, float]
    label: str

    def value(self, feature_name: str) -> float:
        """Value of *feature_name* (0.0 when the feature is absent)."""
        return self.features.get(feature_name, 0.0)


def examples_from_matrix(
    feature_names: Sequence[str],
    matrix: np.ndarray,
    labels: Sequence[str],
) -> list[TrainingExample]:
    """Labelled examples from a dense feature matrix.

    The inverse of :meth:`TrainingSet.to_matrix`: row *i* becomes the feature
    mapping of example *i* in the canonical *feature_names* order.  Values
    round-trip through numpy bit-identically.
    """
    if matrix.shape[0] != len(labels):
        raise TrainingError("feature matrix and labels disagree on example count")
    if matrix.shape[1] != len(feature_names):
        raise TrainingError("feature matrix and feature_names disagree on width")
    names = tuple(feature_names)
    return [
        TrainingExample(features=dict(zip(names, row)), label=label)
        for row, label in zip(matrix.tolist(), labels)
    ]


class TrainingSet:
    """An ordered collection of training examples with a fixed feature order."""

    def __init__(
        self,
        feature_names: Sequence[str],
        examples: Iterable[TrainingExample] = (),
    ) -> None:
        self._feature_names = tuple(feature_names)
        self._examples: list[TrainingExample] = list(examples)

    # -- mutation ------------------------------------------------------------

    def add(self, example: TrainingExample) -> None:
        """Append one example."""
        self._examples.append(example)

    def extend(self, examples: Iterable[TrainingExample]) -> None:
        """Append many examples."""
        self._examples.extend(examples)

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._examples)

    def __iter__(self) -> Iterator[TrainingExample]:
        return iter(self._examples)

    def __getitem__(self, index: int) -> TrainingExample:
        return self._examples[index]

    # -- accessors ----------------------------------------------------------------

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Feature order used when converting to matrices."""
        return self._feature_names

    @property
    def examples(self) -> tuple[TrainingExample, ...]:
        """All examples, in insertion order."""
        return tuple(self._examples)

    def labels(self) -> list[str]:
        """Label of every example, in insertion order."""
        return [example.label for example in self._examples]

    def to_matrix(self) -> tuple[np.ndarray, list[str]]:
        """(feature matrix, label list) in the canonical feature order."""
        if not self._examples:
            raise TrainingError("cannot convert an empty training set to a matrix")
        matrix = np.asarray(
            [
                [example.features.get(name, 0.0) for name in self._feature_names]
                for example in self._examples
            ],
            dtype=float,
        )
        return matrix, self.labels()

    def without_features(self, names: Iterable[str]) -> "TrainingSet":
        """A copy with the given feature columns removed (used by ablations)."""
        dropped = set(names)
        kept = tuple(n for n in self._feature_names if n not in dropped)
        examples = [
            TrainingExample(
                features={k: v for k, v in example.features.items() if k not in dropped},
                label=example.label,
            )
            for example in self._examples
        ]
        return TrainingSet(kept, examples)

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation.

        Example features are stored as dense value rows in the canonical
        feature order; features absent from an example's mapping read as 0.0
        exactly as :meth:`to_matrix` treats them, so a restored set produces a
        bit-identical training matrix.
        """
        names = self._feature_names
        return {
            "feature_names": list(names),
            "examples": [
                {
                    "label": example.label,
                    "values": [example.features.get(name, 0.0) for name in names],
                }
                for example in self._examples
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingSet":
        """Rebuild a training set from :meth:`to_dict` output."""
        names = tuple(data["feature_names"])
        examples = [
            TrainingExample(
                features=dict(zip(names, entry["values"])), label=entry["label"]
            )
            for entry in data["examples"]
        ]
        return cls(names, examples)
