"""A from-scratch C4.5-style decision-tree classifier.

The paper trains its workload-management models with Weka's J48 learner, which
implements C4.5: greedy top-down induction with binary splits on numeric
attributes chosen by information gain ratio.  This module provides an
equivalent learner with no third-party ML dependency so the reproduction is
self-contained (scikit-learn is deliberately not required).

The learner handles exactly what the WiSeDB feature set needs:

* numeric (and 0/1 boolean) features with binary ``<= threshold`` splits;
* multi-class string labels (one class per template-placement or
  VM-provisioning action);
* simple regularisation (max depth, minimum leaf size, minimum gain) so the
  trees stay shallow — the paper reports heights below 30, which is what makes
  model-guided scheduling O(h·n).

Fitting has one path.  Every feature is sorted once per fit and the sorted row
orders are kept as one ``(features, rows)`` array that each split only
filters.  A node is scored in a single pass over all its features: one gather
of the sorted values and labels, one ``diff`` for the boundaries between
distinct values, one segmented ``bincount`` plus an integer ``cumsum`` for the
class counts left of every candidate of every feature, and one entropy call
per side — a few dozen numpy calls per node instead of a few dozen per (node,
feature), which is what a retrain inside the online loop used to spend most of
its time on.  The counts are integers and each gain, gain ratio and threshold
is the same elementwise expression on them that a one-feature-at-a-time scorer
evaluates, so the fitted trees are bit-identical to that formulation's; it
lives on as the oracle in ``tests/test_learning_decision_tree.py``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import TrainingError

#: Maximum number of candidate thresholds evaluated per feature per node.
_MAX_THRESHOLDS = 128


@dataclass
class TreeNode:
    """One node of a fitted decision tree."""

    #: Number of training examples that reached this node.
    samples: int
    #: Per-label counts of those examples.
    class_counts: dict[str, int]
    #: Majority label at this node (used by leaves and as a fallback).
    label: str
    #: Split definition for internal nodes (``None`` for leaves).
    feature_index: int | None = None
    feature_name: str | None = None
    threshold: float | None = None
    left: "TreeNode | None" = field(default=None, repr=False)
    right: "TreeNode | None" = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        """True when the node has no split."""
        return self.feature_index is None


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of a vector of class counts."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    probabilities = counts[counts > 0] / total
    return float(-(probabilities * np.log2(probabilities)).sum())


def _entropy_rows(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each row of a (rows, classes) count matrix.

    Vectorised counterpart of :func:`_entropy` used by the split search: one
    call scores one side of every candidate split of a node.  Each row is
    summed on its own, so a row's entropy does not depend on which other rows
    share the call; zero-count entries contribute exactly 0 to the row sums,
    matching the scalar version's filtered computation.
    """
    probabilities = counts / totals[:, None]
    terms = np.zeros_like(probabilities)
    mask = counts > 0
    terms[mask] = probabilities[mask] * np.log2(probabilities[mask])
    return -terms.sum(axis=1)


def _partition(
    orders: np.ndarray,
    features: np.ndarray,
    varying: np.ndarray,
    slot: int,
    position: int,
    in_left: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(left orders, right orders, features)`` of the children of one split.

    ``orders[slot]`` is sorted by the split feature, so its first
    ``position + 1`` rows are the left child; every other feature's order is
    divided by one boolean gather, which keeps it sorted — no re-sorting.
    Features that do not vary in this node cannot vary below it and are
    dropped.  ``in_left`` is an all-false mask over the training rows, used
    as scratch and handed back all-false.
    """
    left_rows = orders[slot, : position + 1]
    if not varying.all():
        orders, features = orders[varying], features[varying]
    in_left[left_rows] = True
    goes_left = in_left[orders]
    in_left[left_rows] = False
    return (
        orders[goes_left].reshape(len(orders), -1),
        orders[~goes_left].reshape(len(orders), -1),
        features,
    )


class CompiledTreeEvaluator:
    """A fitted tree flattened into parallel arrays for fast prediction.

    The node-object walk of :meth:`DecisionTreeClassifier.predict_vector`
    chases one Python object per level, reading four attributes per hop.  The
    compiled form stores the whole tree as parallel arrays indexed by a
    preorder node id — split feature column, threshold, left/right child ids,
    and a leaf-label id — so a prediction is a tight loop over flat lists
    (scalar path) or a vectorized level-synchronous descent over numpy arrays
    (matrix path).  Predictions are bit-identical to the node walk: same
    thresholds, same ``<=`` comparisons, same labels.

    ``feature_names`` optionally re-maps the tree's split columns onto an
    external feature order (e.g. a :class:`~repro.learning.features.FeatureExtractor`'s
    canonical row layout).  A split on a feature absent from that order is
    constant-folded the way :meth:`DecisionTreeClassifier.predict` treats
    missing features — the value reads as ``0.0``, so the branch is decided at
    compile time.
    """

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "leaf_label",
        "labels",
        "feature_names",
        "_feature_list",
        "_threshold_list",
        "_left_list",
        "_right_list",
        "_leaf_list",
    )

    def __init__(self, root: TreeNode, feature_names: Sequence[str]) -> None:
        column_of = {name: index for index, name in enumerate(feature_names)}
        features: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        leaf_labels: list[int] = []
        label_ids: dict[str, int] = {}

        def _flatten(node: TreeNode) -> int:
            while not node.is_leaf:
                assert node.feature_name is not None and node.threshold is not None
                column = column_of.get(node.feature_name)
                if column is not None:
                    break
                # Missing feature: reads as 0.0, so the branch is constant.
                assert node.left is not None and node.right is not None
                node = node.left if 0.0 <= node.threshold else node.right
            index = len(features)
            if node.is_leaf:
                features.append(-1)
                thresholds.append(0.0)
                lefts.append(-1)
                rights.append(-1)
                leaf_labels.append(label_ids.setdefault(node.label, len(label_ids)))
                return index
            assert node.left is not None and node.right is not None
            features.append(column_of[node.feature_name])
            thresholds.append(float(node.threshold))
            lefts.append(-1)
            rights.append(-1)
            leaf_labels.append(-1)
            lefts[index] = _flatten(node.left)
            rights[index] = _flatten(node.right)
            return index

        _flatten(root)
        self.feature_names = tuple(feature_names)
        self.labels: tuple[str, ...] = tuple(
            sorted(label_ids, key=label_ids.__getitem__)
        )
        # Plain lists for the scalar hot loop (Python list indexing beats
        # numpy item access), numpy arrays for the vectorized matrix descent.
        self._feature_list = features
        self._threshold_list = thresholds
        self._left_list = lefts
        self._right_list = rights
        self._leaf_list = leaf_labels
        self.feature = np.asarray(features, dtype=np.int64)
        self.threshold = np.asarray(thresholds, dtype=float)
        self.left = np.asarray(lefts, dtype=np.int64)
        self.right = np.asarray(rights, dtype=np.int64)
        self.leaf_label = np.asarray(leaf_labels, dtype=np.int64)

    @classmethod
    def from_arrays(
        cls,
        feature,
        threshold,
        left,
        right,
        leaf_label,
        labels: Sequence[str],
        feature_names: Sequence[str],
    ) -> "CompiledTreeEvaluator":
        """Rebuild an evaluator around existing flat arrays, without a tree.

        Used by :mod:`repro.learning.shm` to attach an evaluator to
        shared-memory views (and by tests/benches to clone one): the arrays
        are adopted as-is — no copy — and the scalar hot path indexes them
        directly in place of the list mirrors the compiling constructor
        builds, so an attached evaluator adds O(1) heap per process
        regardless of tree size.  Predictions are bit-identical to the
        compiling constructor's: same thresholds, same ``<=`` comparisons,
        same labels.
        """
        feature = np.asarray(feature)
        threshold = np.asarray(threshold)
        left = np.asarray(left)
        right = np.asarray(right)
        leaf_label = np.asarray(leaf_label)
        nodes = feature.shape[0] if feature.ndim == 1 else -1
        for array in (threshold, left, right, leaf_label):
            if array.ndim != 1 or array.shape[0] != nodes or nodes <= 0:
                raise TrainingError(
                    "from_arrays expects five equal-length one-dimensional arrays"
                )
        evaluator = object.__new__(cls)
        evaluator.feature = feature
        evaluator.threshold = threshold
        evaluator.left = left
        evaluator.right = right
        evaluator.leaf_label = leaf_label
        evaluator.labels = tuple(labels)
        evaluator.feature_names = tuple(feature_names)
        # The scalar path reads these slots by index only, which numpy arrays
        # support identically to lists — sharing the arrays keeps the attach
        # zero-copy.
        evaluator._feature_list = feature
        evaluator._threshold_list = threshold
        evaluator._left_list = left
        evaluator._right_list = right
        evaluator._leaf_list = leaf_label
        return evaluator

    def scalar_arrays(self):
        """``(feature, threshold, left, right, leaf label)`` as :meth:`predict_row` indexes them.

        For a caller that walks the tree itself and computes a row entry only
        when a node tests it (:meth:`~repro.learning.model.DecisionModel.decide`).
        Plain lists when compiled here, the adopted arrays after
        :meth:`from_arrays`.
        """
        return (
            self._feature_list,
            self._threshold_list,
            self._left_list,
            self._right_list,
            self._leaf_list,
        )

    def predict_row(self, row) -> str:
        """Label for one feature row in this evaluator's column order."""
        features = self._feature_list
        thresholds = self._threshold_list
        lefts = self._left_list
        rights = self._right_list
        index = 0
        column = features[0]
        while column >= 0:
            if row[column] <= thresholds[index]:
                index = lefts[index]
            else:
                index = rights[index]
            column = features[index]
        return self.labels[self._leaf_list[index]]

    def predict_matrix(self, matrix: np.ndarray) -> list[str]:
        """Labels for a ``(n_rows, n_features)`` matrix, one descent per level.

        All rows step down one tree level per iteration, so the loop runs
        ``height`` times regardless of row count instead of ``height`` times
        per row.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise TrainingError("predict_matrix expects a two-dimensional matrix")
        n_rows = matrix.shape[0]
        if n_rows == 0:
            return []
        positions = np.zeros(n_rows, dtype=np.int64)
        row_indices = np.arange(n_rows)
        while True:
            columns = self.feature[positions]
            active = columns >= 0
            if not active.any():
                break
            rows = row_indices[active]
            current = positions[rows]
            go_left = (
                matrix[rows, self.feature[current]] <= self.threshold[current]
            )
            positions[rows] = np.where(go_left, self.left[current], self.right[current])
        return [self.labels[index] for index in self.leaf_label[positions]]


class DecisionTreeClassifier:
    """C4.5-style classifier over numeric features and string labels."""

    def __init__(
        self,
        max_depth: int = 30,
        min_samples_leaf: int = 2,
        min_samples_split: int = 4,
        min_gain: float = 1e-9,
    ) -> None:
        if max_depth < 1:
            raise TrainingError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise TrainingError("min_samples_leaf must be >= 1")
        self._max_depth = max_depth
        self._min_samples_leaf = min_samples_leaf
        self._min_samples_split = max(min_samples_split, 2 * min_samples_leaf)
        self._min_gain = min_gain
        self._root: TreeNode | None = None
        self._feature_names: tuple[str, ...] = ()
        self._classes: tuple[str, ...] = ()
        #: feature-order key -> CompiledTreeEvaluator (reset whenever the
        #: fitted tree changes; compiling is O(nodes) but the evaluator is
        #: reused for every decision of a scheduling run).
        self._compiled_cache: dict[tuple[str, ...], CompiledTreeEvaluator] = {}

    # -- fitting ------------------------------------------------------------------

    def fit(
        self,
        matrix: np.ndarray,
        labels: Sequence[str],
        feature_names: Sequence[str],
    ) -> "DecisionTreeClassifier":
        """Fit the tree on a (n_examples, n_features) matrix and string labels.

        Every feature column is sorted once (stable, so ties keep original
        row order) and a node only ever *filters* its parent's orders, which
        leaves each of them equal to a fresh stable ``argsort`` of the node's
        rows.  Each node is then scored in one pass over all its features —
        see :meth:`_score_node` — and the candidate it picks, and every float
        stored in the tree, is the one the per-(node, feature) formulation
        kept as the oracle in ``tests/test_learning_decision_tree.py``
        produces.  Raises :class:`TrainingError` on mismatched shapes, an
        empty training set, or a NaN / infinite feature value.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise TrainingError("feature matrix must be two-dimensional")
        if matrix.shape[0] == 0:
            raise TrainingError("cannot fit a decision tree on an empty training set")
        if matrix.shape[0] != len(labels):
            raise TrainingError("feature matrix and labels disagree on example count")
        if matrix.shape[1] != len(feature_names):
            raise TrainingError("feature matrix and feature_names disagree on width")
        finite = np.isfinite(matrix)
        if not finite.all():
            # inf - inf = nan would hide a boundary from the diff below and
            # ``nan <= threshold`` is false for every threshold: neither can
            # be split on, and the extractor never emits them.
            column = int(np.argmin(finite.all(axis=0)))
            raise TrainingError(
                f"feature {feature_names[column]!r} (column {column}) holds a NaN "
                "or infinite value; decision-tree features must be finite"
            )

        self._feature_names = tuple(feature_names)
        self._classes = tuple(sorted(set(labels)))
        class_index = {label: i for i, label in enumerate(self._classes)}
        encoded = np.asarray([class_index[label] for label in labels], dtype=int)
        columns = np.ascontiguousarray(matrix.T)
        orders = np.argsort(columns, axis=1, kind="stable")
        self._root = self._grow(columns.ravel(), encoded, orders)
        self._compiled_cache.clear()
        return self

    def _node(self, counts: np.ndarray) -> TreeNode:
        """A node (a leaf until it is split) over examples with these class counts."""
        return TreeNode(
            samples=int(counts.sum()),
            class_counts={
                self._classes[i]: int(count) for i, count in enumerate(counts) if count
            },
            label=self._classes[int(np.argmax(counts))],
        )

    def _grow(
        self, flat_values: np.ndarray, encoded: np.ndarray, orders: np.ndarray
    ) -> TreeNode:
        """Induce the tree from the root's presorted orders; returns the root.

        A work item is ``(node, class counts, orders, features, depth)``:
        ``orders[s]`` lists the node's row ids sorted by feature
        ``features[s]``.  Nodes wait on an explicit stack rather than in
        recursive frames so that a split node's arrays are gone before its
        children are scored — what waits is only the orders of pending
        siblings, which partition the training rows between them.
        """
        counts = np.bincount(encoded, minlength=len(self._classes))
        root = self._node(counts)
        in_left = np.zeros(encoded.size, dtype=bool)
        pending = [(root, counts, orders, np.arange(orders.shape[0]), 0)]
        while pending:
            node, counts, orders, features, depth = pending.pop()
            if (
                depth >= self._max_depth
                or node.samples < self._min_samples_split
                or np.count_nonzero(counts) <= 1
            ):
                continue
            best = self._score_node(flat_values, encoded, orders, features, counts)
            if best is None:
                continue
            slot, position, threshold, left_counts, varying = best
            right_counts = counts - left_counts
            node.feature_index = int(features[slot])
            node.feature_name = self._feature_names[node.feature_index]
            node.threshold = threshold
            node.left = self._node(left_counts)
            node.right = self._node(right_counts)
            left_orders, right_orders, features = _partition(
                orders, features, varying, slot, position, in_left
            )
            pending.append((node.right, right_counts, right_orders, features, depth + 1))
            pending.append((node.left, left_counts, left_orders, features, depth + 1))
        return root

    def _score_node(
        self,
        flat_values: np.ndarray,
        encoded: np.ndarray,
        orders: np.ndarray,
        features: np.ndarray,
        counts: np.ndarray,
    ) -> tuple[int, int, float, np.ndarray, np.ndarray] | None:
        """The best split of one node, scored in one pass over all its features.

        Returns ``(slot, position, threshold, left class counts, varying)``:
        the split is on feature ``features[slot]`` and sends the first
        ``position + 1`` rows of ``orders[slot]`` left; ``varying[s]`` is
        false for a feature that is constant in this node (hence in its whole
        subtree).  ``None`` when no admissible candidate gains more than
        ``min_gain``.

        Candidates are the boundaries between distinct adjacent values of
        each feature, listed in (feature, position) order; a feature with
        more than ``_MAX_THRESHOLDS`` of them keeps an even subsample.  The
        class counts on either side of a candidate are integers, and every
        float derived from them is the elementwise expression a scorer taking
        one feature at a time evaluates on those integers, so scoring all
        features at once changes no gain, ratio or threshold.  The winner is
        the first candidate with the lexicographically largest (gain ratio,
        gain) — the one a feature-by-feature loop that keeps strict
        improvements arrives at.
        """
        n_slots, total = orders.shape
        n_classes = counts.size
        min_leaf = self._min_samples_leaf

        sorted_values = flat_values[(features * encoded.size)[:, None] + orders]
        slot_of, position = np.nonzero(np.diff(sorted_values, axis=1) > 0)
        per_slot = np.bincount(slot_of, minlength=n_slots)
        if per_slot.max(initial=0) > _MAX_THRESHOLDS:
            keep = np.ones(slot_of.size, dtype=bool)
            starts = np.cumsum(per_slot) - per_slot
            for crowded in np.nonzero(per_slot > _MAX_THRESHOLDS)[0]:
                start, size = int(starts[crowded]), int(per_slot[crowded])
                step = size / _MAX_THRESHOLDS
                picks = (np.arange(_MAX_THRESHOLDS) * step).astype(int)
                keep[start : start + size] = False
                keep[start + picks] = True
            slot_of, position = slot_of[keep], position[keep]

        left_sizes = position + 1
        admissible = (left_sizes >= min_leaf) & (total - left_sizes >= min_leaf)
        if not admissible.any():
            return None
        slot_of = slot_of[admissible]
        position = position[admissible]
        left_sizes = left_sizes[admissible]
        right_sizes = total - left_sizes

        # Left-side class counts of every candidate via one segmented
        # bincount over the features laid end to end: bucket k holds the
        # rows after candidate k-1 up to and including candidate k, so the
        # running sum at k counts everything up to it — ``slot_of[k]`` whole
        # features, each adding up to the node's ``counts``, plus the left
        # side of its own.  No (features, rows, classes) one-hot is built.
        num_candidates = slot_of.size
        marks = np.zeros(n_slots * total, dtype=np.intp)
        marks[slot_of * total + left_sizes] = 1
        buckets = np.bincount(
            np.cumsum(marks) * n_classes + encoded[orders].ravel(),
            minlength=(num_candidates + 1) * n_classes,
        ).reshape(num_candidates + 1, n_classes)
        left_counts = (
            np.cumsum(buckets[:num_candidates], axis=0) - slot_of[:, None] * counts
        )
        right_counts = counts - left_counts

        gains = _entropy(counts.astype(float)) - (
            left_sizes / total * _entropy_rows(left_counts, left_sizes.astype(float))
            + right_sizes / total * _entropy_rows(right_counts, right_sizes.astype(float))
        )
        useful = np.nonzero(gains > self._min_gain)[0]
        if useful.size == 0:
            return None
        gains = gains[useful]
        left_fraction = left_sizes[useful] / total
        right_fraction = right_sizes[useful] / total
        # Both sides are non-empty, so the split information is positive.
        split_info = -(
            left_fraction * np.log2(left_fraction)
            + right_fraction * np.log2(right_fraction)
        )
        gain_ratios = gains / split_info
        top = np.nonzero(gain_ratios == gain_ratios.max())[0]
        pick = useful[top[int(np.argmax(gains[top]))]]
        slot, boundary = int(slot_of[pick]), int(position[pick])

        left_value = float(sorted_values[slot, boundary])
        right_value = float(sorted_values[slot, boundary + 1])
        threshold = (left_value + right_value) / 2.0
        if not (left_value <= threshold < right_value):
            # The midpoint of adjacent distinct values can collapse onto the
            # right value (denormal underflow: mean(-5e-324, 0.0) == -0.0,
            # and 0.0 <= -0.0 is True) or escape the interval entirely
            # (overflow to ±inf).  A ``<= threshold`` test must keep the
            # left value on the left and the right value on the right, and
            # the left value itself always satisfies that.
            threshold = left_value
        return slot, boundary, threshold, left_counts[pick].copy(), per_slot > 0

    # -- prediction ----------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has been called."""
        return self._root is not None

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Feature names, in the column order the tree was fitted on."""
        return self._feature_names

    @property
    def classes(self) -> tuple[str, ...]:
        """The distinct labels seen during fitting."""
        return self._classes

    def _require_fitted(self) -> TreeNode:
        if self._root is None:
            raise TrainingError("the decision tree has not been fitted")
        return self._root

    def predict_vector(self, vector: Sequence[float]) -> str:
        """Predict the label for a feature vector in canonical column order."""
        node = self._require_fitted()
        while not node.is_leaf:
            assert node.feature_index is not None and node.threshold is not None
            if vector[node.feature_index] <= node.threshold:
                assert node.left is not None
                node = node.left
            else:
                assert node.right is not None
                node = node.right
        return node.label

    def predict(self, features: Mapping[str, float]) -> str:
        """Predict the label for a feature mapping (missing features read as 0)."""
        vector = [features.get(name, 0.0) for name in self._feature_names]
        return self.predict_vector(vector)

    def compiled(
        self, feature_names: Sequence[str] | None = None
    ) -> CompiledTreeEvaluator:
        """The tree flattened into a :class:`CompiledTreeEvaluator` (cached).

        *feature_names* selects the column order the evaluator's rows use; it
        defaults to the order the tree was fitted on.  Evaluators are cached
        per order and invalidated when the tree is refitted.
        """
        root = self._require_fitted()
        key = tuple(feature_names) if feature_names is not None else self._feature_names
        evaluator = self._compiled_cache.get(key)
        if evaluator is None:
            evaluator = CompiledTreeEvaluator(root, key)
            self._compiled_cache[key] = evaluator
        return evaluator

    def predict_matrix(self, matrix: np.ndarray) -> list[str]:
        """Labels for a matrix in the tree's fitted column order (vectorized)."""
        return self.compiled().predict_matrix(matrix)

    def decision_path(self, features: Mapping[str, float]) -> list[TreeNode]:
        """The internal nodes and leaf visited while classifying *features*."""
        node = self._require_fitted()
        path = [node]
        vector = [features.get(name, 0.0) for name in self._feature_names]
        while not node.is_leaf:
            assert node.feature_index is not None and node.threshold is not None
            node = node.left if vector[node.feature_index] <= node.threshold else node.right
            assert node is not None
            path.append(node)
        return path

    # -- introspection ----------------------------------------------------------------

    def depth(self) -> int:
        """Height of the fitted tree (a single leaf has depth 0)."""

        def _depth(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            assert node.left is not None and node.right is not None
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self._require_fitted())

    def node_count(self) -> int:
        """Total number of nodes (internal plus leaves)."""

        def _count(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            assert node.left is not None and node.right is not None
            return 1 + _count(node.left) + _count(node.right)

        return _count(self._require_fitted())

    def leaf_count(self) -> int:
        """Number of leaves."""

        def _count(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            assert node.left is not None and node.right is not None
            return _count(node.left) + _count(node.right)

        return _count(self._require_fitted())

    def feature_importances(self) -> dict[str, float]:
        """Fraction of training examples routed through splits on each feature."""
        root = self._require_fitted()
        importances: Counter[str] = Counter()

        def _walk(node: TreeNode) -> None:
            if node.is_leaf:
                return
            assert node.feature_name is not None
            importances[node.feature_name] += node.samples
            assert node.left is not None and node.right is not None
            _walk(node.left)
            _walk(node.right)

        _walk(root)
        total = sum(importances.values())
        if total == 0:
            return {}
        return {name: count / total for name, count in importances.items()}

    def to_text(self) -> str:
        """ASCII rendering of the tree (useful for debugging and the examples)."""
        root = self._require_fitted()
        lines: list[str] = []

        def _render(node: TreeNode, indent: str) -> None:
            if node.is_leaf:
                lines.append(f"{indent}-> {node.label}  (n={node.samples})")
                return
            lines.append(f"{indent}{node.feature_name} <= {node.threshold:.3f}?")
            assert node.left is not None and node.right is not None
            _render(node.left, indent + "  ")
            lines.append(f"{indent}{node.feature_name} > {node.threshold:.3f}?")
            _render(node.right, indent + "  ")

        _render(root, "")
        return "\n".join(lines)

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation of the fitted tree.

        Thresholds and counts round-trip exactly (floats survive JSON
        bit-for-bit), so a restored tree predicts identically to the original.
        """
        def _node(node: TreeNode) -> dict:
            data: dict = {
                "samples": node.samples,
                "class_counts": node.class_counts,
                "label": node.label,
            }
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                data["feature_index"] = node.feature_index
                data["threshold"] = node.threshold
                data["left"] = _node(node.left)
                data["right"] = _node(node.right)
            return data

        return {
            "max_depth": self._max_depth,
            "min_samples_leaf": self._min_samples_leaf,
            "min_samples_split": self._min_samples_split,
            "min_gain": self._min_gain,
            "feature_names": list(self._feature_names),
            "classes": list(self._classes),
            "root": _node(self._require_fitted()),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTreeClassifier":
        """Rebuild a fitted tree from :meth:`to_dict` output."""
        tree = cls(
            max_depth=data["max_depth"],
            min_samples_leaf=data["min_samples_leaf"],
            min_samples_split=data["min_samples_split"],
            min_gain=data["min_gain"],
        )
        tree._feature_names = tuple(data["feature_names"])
        tree._classes = tuple(data["classes"])
        feature_names = tree._feature_names

        def _node(entry: dict) -> TreeNode:
            node = TreeNode(
                samples=entry["samples"],
                class_counts=dict(entry["class_counts"]),
                label=entry["label"],
            )
            if "feature_index" in entry:
                node.feature_index = entry["feature_index"]
                node.feature_name = feature_names[entry["feature_index"]]
                node.threshold = entry["threshold"]
                node.left = _node(entry["left"])
                node.right = _node(entry["right"])
            return node

        tree._root = _node(data["root"])
        return tree

    def accuracy(self, matrix: np.ndarray, labels: Sequence[str]) -> float:
        """Training/holdout accuracy of the fitted tree on (matrix, labels)."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape[0] == 0:
            return math.nan
        correct = sum(
            1
            for row, label in zip(matrix, labels)
            if self.predict_vector(row) == label
        )
        return correct / matrix.shape[0]
