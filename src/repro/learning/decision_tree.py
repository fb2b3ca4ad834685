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

Fitting has one path.  Every feature is sorted once per fit and the tree grows
one depth at a time — SLIQ's breadth-first growth on presorted orders: the
sorted orders of every node still open at a depth lie end to end in one flat
array, one segment per (node, feature), which each split only filters.  One
pass of numpy calls scores every open node of a depth: one gather of the
sorted values and labels, one comparison for the boundaries between distinct
values, one segmented ``bincount`` plus an integer ``cumsum`` for the class
counts left of every candidate of every node, one entropy call per side, and
one ``reduceat`` per criterion for each node's winner.  The numpy call count of
a fit thus grows with the tree's depth, not with its node count; per-node
call overhead is what a retrain inside the online loop used to spend most of
its fit on.  The counts are integers and each gain, gain ratio and threshold
is the same elementwise expression on them that a one-node,
one-feature-at-a-time scorer evaluates, so the fitted trees are bit-identical
to that formulation's; it lives on as the oracle in
``tests/test_learning_decision_tree.py``.
"""

from __future__ import annotations

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


class CompiledTreeEvaluator:
    """A fitted tree flattened into parallel arrays for fast prediction.

    A walk over the :class:`TreeNode` objects (the reference the tests hold
    predictions against) chases one Python object per level, reading four
    attributes per hop.  The compiled form stores the whole tree as parallel arrays indexed by a
    preorder node id — split feature column, threshold, left/right child ids,
    and a leaf-label id — so a prediction is a tight loop over flat lists.
    Predictions are bit-identical to the node walk: same thresholds, same
    ``<=`` comparisons, same labels.  The lists are the only copy:
    :func:`~repro.learning.shm.pack_evaluator` builds numpy arrays from them
    when it packs a segment.

    ``feature_names`` optionally re-maps the tree's split columns onto an
    external feature order (e.g. a :class:`~repro.learning.features.FeatureExtractor`'s
    canonical row layout).  A split on a feature absent from that order is
    constant-folded: a missing feature reads as ``0.0``, as in
    :meth:`DecisionTreeClassifier.decision_path`, so the branch is decided at
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
        # Plain lists: Python list indexing beats numpy item access.
        self.feature = features
        self.threshold = thresholds
        self.left = lefts
        self.right = rights
        self.leaf_label = leaf_labels

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
        shared-memory views (and by tests to clone one): the arrays are
        adopted as-is — no copy — and :meth:`predict_row` indexes them in
        place of the lists the compiling constructor builds.  Predictions are
        bit-identical to the compiling constructor's: same thresholds, same
        ``<=`` comparisons, same labels.
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
        return evaluator

    def scalar_arrays(self):
        """``(feature, threshold, left, right, leaf label)`` as :meth:`predict_row` indexes them.

        For a caller that walks the tree itself and computes a row entry only
        when a node tests it (the function
        :class:`~repro.learning.model.DecisionModel` generates from them).
        Plain lists when compiled here, the adopted arrays after
        :meth:`from_arrays`.
        """
        return self.feature, self.threshold, self.left, self.right, self.leaf_label

    def predict_row(self, row) -> str:
        """Label for one feature row in this evaluator's column order."""
        features = self.feature
        thresholds = self.threshold
        lefts = self.left
        rights = self.right
        index = 0
        column = features[0]
        while column >= 0:
            if row[column] <= thresholds[index]:
                index = lefts[index]
            else:
                index = rights[index]
            column = features[index]
        return self.labels[self.leaf_label[index]]


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
        rows.  The tree then grows one depth at a time: every open node of a
        depth is scored in one pass — see :meth:`_best_splits` — and the
        candidate each node picks, and every float stored in the tree, is the
        one the per-(node, feature) formulation kept as the oracle in
        ``tests/test_learning_decision_tree.py`` produces.  Raises
        :class:`TrainingError` on mismatched shapes, an empty training set,
        or a NaN / infinite feature value.
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
            # A NaN compares false with every value, which hides boundaries
            # from the split search, and ``nan <= threshold`` is false for
            # every threshold; infinities, whose midpoints are not finite,
            # are refused with it.  The extractor never emits either.
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

    def _node(self, counts: list[int]) -> TreeNode:
        """A node (a leaf until it is split) over examples with these class counts."""
        return TreeNode(
            samples=sum(counts),
            class_counts={
                label: count for label, count in zip(self._classes, counts) if count
            },
            label=self._classes[counts.index(max(counts))],
        )

    def _opens(self, node: TreeNode, depth: int) -> bool:
        """Whether a node at this depth is scored: the stop rules."""
        return (
            depth < self._max_depth
            and node.samples >= self._min_samples_split
            and len(node.class_counts) > 1
        )

    def _grow(
        self, flat_values: np.ndarray, encoded: np.ndarray, orders: np.ndarray
    ) -> TreeNode:
        """Induce the tree from the root's presorted orders; returns the root.

        The tree grows one depth at a time.  A depth's open nodes are
        ``nodes``, with class ``counts`` and ``sizes`` (one row / entry per
        node); their orders lie end to end in the flat array ``rows`` as
        *segments* of their node's size: segment ``s`` lists node
        ``seg_node[s]``'s row ids sorted by feature ``seg_feature[s]``, and a
        node's segments are adjacent and in feature order.  Splitting a depth
        cuts every split node's segments with one boolean gather, which keeps
        each of them sorted — no re-sorting — and drops the segments that
        :meth:`_best_splits` finds no descendant can split on.
        """
        n_rows = encoded.size
        counts = np.bincount(encoded, minlength=len(self._classes))
        root = self._node(counts.tolist())
        if not self._opens(root, 0):
            return root
        nodes = [root]
        counts = counts[None, :]
        sizes = np.array([n_rows])
        seg_node = np.zeros(orders.shape[0], dtype=np.intp)
        seg_feature = np.arange(orders.shape[0])
        rows = orders.ravel()
        del orders
        in_left = np.zeros(n_rows, dtype=bool)
        depth = 0
        while nodes:
            seg_sizes = sizes[seg_node]
            seg_starts = np.cumsum(seg_sizes) - seg_sizes
            seg_of = np.repeat(np.arange(seg_node.size), seg_sizes)
            values = flat_values[np.repeat(seg_feature * n_rows, seg_sizes) + rows]
            best = self._best_splits(
                values, encoded, rows, seg_of, seg_starts, seg_node, counts, sizes
            )
            if best is None:
                break
            split, cuts, left_counts, keep = best
            cut_segs = seg_of[cuts]

            # The split nodes' children; the open ones form the next depth,
            # every open left child first, then every open right child.
            depth += 1
            lefts, rights, moved = [], [], []  # (node, class counts) of open children
            left_of, right_of = [-1] * len(nodes), [-1] * len(nodes)
            for node_id, feature, start, cut, low, high, left, right in zip(
                split.tolist(),
                seg_feature[cut_segs].tolist(),
                seg_starts[cut_segs].tolist(),
                cuts.tolist(),
                values[cuts].tolist(),
                values[cuts + 1].tolist(),
                left_counts.tolist(),
                (counts[split] - left_counts).tolist(),
            ):
                threshold = (low + high) / 2.0
                if not (low <= threshold < high):
                    # The midpoint of adjacent distinct values can collapse
                    # onto the right value (denormal underflow: mean(-5e-324,
                    # 0.0) == -0.0, and 0.0 <= -0.0 is True) or escape the
                    # interval entirely (overflow to ±inf).  A ``<= threshold``
                    # test must keep the low value on the left and the high
                    # value on the right, and the low value itself always
                    # satisfies that.
                    threshold = low
                node = nodes[node_id]
                node.feature_index = feature
                node.feature_name = self._feature_names[feature]
                node.threshold = threshold
                node.left = self._node(left)
                node.right = self._node(right)
                if self._opens(node.left, depth):
                    left_of[node_id] = len(lefts)
                    lefts.append((node.left, left))
                if self._opens(node.right, depth):
                    right_of[node_id] = len(rights)
                    rights.append((node.right, right))
                # The winning segment's rows up to the cut go left.
                moved.append(rows[start : cut + 1])

            # One lookup of the rows that go left divides every other
            # segment of a split node, keeping each sorted.
            moved = np.concatenate(moved)
            in_left[moved] = True
            goes_left = in_left[rows]
            in_left[moved] = False
            left_child = np.array(left_of)
            right_child = np.array([-1 if i < 0 else i + len(lefts) for i in right_of])
            keep_left = keep & (left_child[seg_node] >= 0)
            keep_right = keep & (right_child[seg_node] >= 0)
            rows = np.concatenate(
                (rows[goes_left & keep_left[seg_of]], rows[~goes_left & keep_right[seg_of]])
            )
            seg_node = np.concatenate(
                (left_child[seg_node[keep_left]], right_child[seg_node[keep_right]])
            )
            seg_feature = np.concatenate((seg_feature[keep_left], seg_feature[keep_right]))
            children = lefts + rights
            nodes = [node for node, _ in children]
            counts = np.array([class_counts for _, class_counts in children])
            sizes = np.array([node.samples for node in nodes], dtype=np.intp)
        return root

    def _best_splits(
        self,
        values: np.ndarray,
        encoded: np.ndarray,
        rows: np.ndarray,
        seg_of: np.ndarray,
        seg_starts: np.ndarray,
        seg_node: np.ndarray,
        counts: np.ndarray,
        sizes: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """The best split of every open node of one depth, in one pass.

        ``values`` holds the feature values along the depth's flat ``rows``
        (see :meth:`_grow`), ``encoded`` every training row's class index and
        ``seg_of`` each flat position's segment.  Returns ``(split, cuts,
        left_counts, keep)``: node ``split[i]`` splits after flat position
        ``cuts[i]`` of its winning segment, with ``left_counts[i]`` on the
        left; ``keep[s]`` is false for a segment with no admissible boundary,
        whose feature no descendant of its node can split on either.  Nodes
        without an admissible candidate gaining more than ``min_gain`` are
        absent; ``None`` when no node splits.

        Candidates are the boundaries between distinct adjacent values inside
        a segment, listed in (node, feature, position) order; a segment with
        more than ``_MAX_THRESHOLDS`` of them keeps an even subsample.  The
        class counts on either side of a candidate are integers, and every
        float derived from them is the elementwise expression a scorer taking
        one node and one feature at a time evaluates on those integers — each
        node's parent entropy is its own :func:`_entropy` call, and
        :func:`_entropy_rows` sums each row on its own — so scoring a whole
        depth at once changes no gain, ratio or threshold.  A node's winner is
        its first candidate with the lexicographically largest (gain ratio,
        gain) — the one a feature-by-feature loop that keeps strict
        improvements arrives at; candidates of different nodes are never
        compared.
        """
        n_classes = counts.shape[1]
        min_leaf = self._min_samples_leaf

        rising = values[1:] > values[:-1]
        rising[seg_starts[1:] - 1] = False  # no boundary across two segments
        cuts = np.flatnonzero(rising)
        cut_segs = seg_of[cuts]
        per_seg = np.bincount(cut_segs, minlength=seg_node.size)
        if per_seg.max(initial=0) > _MAX_THRESHOLDS:
            sampled = np.ones(cuts.size, dtype=bool)
            firsts = np.cumsum(per_seg) - per_seg
            for crowded in np.flatnonzero(per_seg > _MAX_THRESHOLDS):
                start, size = int(firsts[crowded]), int(per_seg[crowded])
                step = size / _MAX_THRESHOLDS
                picks = (np.arange(_MAX_THRESHOLDS) * step).astype(int)
                sampled[start : start + size] = False
                sampled[start + picks] = True
            cuts, cut_segs = cuts[sampled], cut_segs[sampled]

        cut_nodes = seg_node[cut_segs]
        totals = sizes[cut_nodes]
        left_sizes = cuts + 1 - seg_starts[cut_segs]
        admissible = np.flatnonzero((left_sizes >= min_leaf) & (totals - left_sizes >= min_leaf))
        if admissible.size == 0:
            return None
        cuts = cuts[admissible]
        cut_segs = cut_segs[admissible]
        # A feature whose every boundary in a node leaves fewer than
        # ``min_samples_leaf`` rows on one side holds one value on all but
        # those few rows, so it has no admissible boundary in any descendant
        # either.  A subsampled segment is kept whatever its sample holds.
        keep = per_seg > _MAX_THRESHOLDS
        keep[cut_segs] = True
        cut_nodes = cut_nodes[admissible]
        totals = totals[admissible]
        left_sizes = left_sizes[admissible]
        right_sizes = totals - left_sizes

        # Left-side class counts of every candidate via one segmented
        # bincount over the whole depth: bucket k holds the positions after
        # candidate k-1 up to and including candidate k, so the running sum
        # at k counts everything up to it — every earlier segment whole, each
        # adding up to its node's counts, plus the left side of its own.  No
        # (positions, classes) one-hot is built.
        num_candidates = cuts.size
        edges = np.empty(num_candidates + 2, dtype=np.intp)
        edges[0], edges[1:-1], edges[-1] = 0, cuts + 1, rows.size
        buckets = np.repeat(
            np.arange(0, (num_candidates + 1) * n_classes, n_classes), np.diff(edges)
        )
        buckets += encoded[rows]
        buckets = np.bincount(
            buckets, minlength=(num_candidates + 1) * n_classes
        ).reshape(num_candidates + 1, n_classes)
        seg_counts = counts[seg_node]
        earlier = np.cumsum(seg_counts, axis=0) - seg_counts
        left_counts = np.cumsum(buckets[:num_candidates], axis=0) - earlier[cut_segs]
        right_counts = counts[cut_nodes] - left_counts

        parent = np.array([_entropy(row) for row in counts.astype(float)])
        gains = parent[cut_nodes] - (
            left_sizes / totals * _entropy_rows(left_counts, left_sizes.astype(float))
            + right_sizes / totals * _entropy_rows(right_counts, right_sizes.astype(float))
        )
        useful = np.flatnonzero(gains > self._min_gain)
        if useful.size == 0:
            return None
        gains = gains[useful]
        totals = totals[useful]
        left_fraction = left_sizes[useful] / totals
        right_fraction = right_sizes[useful] / totals
        # Both sides are non-empty, so the split information is positive.
        split_info = -(
            left_fraction * np.log2(left_fraction)
            + right_fraction * np.log2(right_fraction)
        )
        gain_ratios = gains / split_info

        # One group of candidates per node that still has one.
        nodes = cut_nodes[useful]
        new = np.empty(nodes.size, dtype=bool)
        new[0] = True
        np.not_equal(nodes[1:], nodes[:-1], out=new[1:])
        firsts = np.flatnonzero(new)
        group = np.cumsum(new) - 1
        top = gain_ratios == np.maximum.reduceat(gain_ratios, firsts)[group]
        best = top & (
            gains == np.maximum.reduceat(np.where(top, gains, -np.inf), firsts)[group]
        )
        position = np.arange(nodes.size)
        picks = useful[np.minimum.reduceat(np.where(best, position, nodes.size), firsts)]
        return cut_nodes[picks], cuts[picks], left_counts[picks], keep

    # -- prediction ----------------------------------------------------------------

    def _require_fitted(self) -> TreeNode:
        if self._root is None:
            raise TrainingError("the decision tree has not been fitted")
        return self._root

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
