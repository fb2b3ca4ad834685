"""The from-scratch C4.5-style decision tree."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TrainingConfig
from repro.exceptions import TrainingError
from repro.learning import decision_tree
from repro.learning.decision_tree import DecisionTreeClassifier
from repro.learning.trainer import ModelGenerator
from repro.sla.max_latency import MaxLatencyGoal
from repro.workloads.templates import tpch_templates


def fit_tree(matrix, labels, names, **kwargs):
    tree = DecisionTreeClassifier(**kwargs)
    return tree.fit(np.asarray(matrix, dtype=float), labels, names)


def test_single_class_yields_leaf():
    tree = fit_tree([[0.0], [1.0], [2.0]], ["a", "a", "a"], ["x"])
    assert tree.depth() == 0
    assert tree.leaf_count() == 1
    assert tree.predict({"x": 5.0}) == "a"


def test_simple_threshold_split():
    matrix = [[0.0], [1.0], [10.0], [11.0]]
    labels = ["low", "low", "high", "high"]
    tree = fit_tree(matrix, labels, ["x"], min_samples_leaf=1, min_samples_split=2)
    assert tree.predict({"x": 0.5}) == "low"
    assert tree.predict({"x": 12.0}) == "high"
    assert tree.depth() == 1


def test_two_feature_conjunction():
    # label "b" only when both features are high: needs a two-level tree.
    matrix = [[0, 0], [0, 1], [1, 0], [1, 1]] * 5
    labels = ["b" if x == 1 and y == 1 else "a" for x, y in [(r[0], r[1]) for r in matrix]]
    tree = fit_tree(matrix, labels, ["x", "y"], min_samples_leaf=1, min_samples_split=2)
    assert tree.predict({"x": 0, "y": 1}) == "a"
    assert tree.predict({"x": 1, "y": 0}) == "a"
    assert tree.predict({"x": 1, "y": 1}) == "b"
    assert tree.depth() == 2


def test_training_accuracy_on_separable_data():
    rng = np.random.default_rng(0)
    xs = rng.uniform(0, 1, size=(200, 3))
    labels = ["pos" if row[0] + row[1] > 1.0 else "neg" for row in xs]
    tree = fit_tree(xs, labels, ["a", "b", "c"], min_samples_leaf=1, min_samples_split=2)
    assert tree.accuracy(xs, labels) > 0.95


def test_max_depth_limits_tree():
    rng = np.random.default_rng(1)
    xs = rng.uniform(0, 1, size=(100, 2))
    labels = ["pos" if row[0] > row[1] else "neg" for row in xs]
    shallow = fit_tree(xs, labels, ["a", "b"], max_depth=2)
    assert shallow.depth() <= 2


def test_min_samples_leaf_respected():
    matrix = [[float(i)] for i in range(10)]
    labels = ["a"] * 5 + ["b"] * 5
    tree = fit_tree(matrix, labels, ["x"], min_samples_leaf=5, min_samples_split=10)

    def leaves(node):
        if node.is_leaf:
            return [node]
        return leaves(node.left) + leaves(node.right)

    assert all(leaf.samples >= 5 for leaf in leaves(tree._root))


def test_predict_vector_and_mapping_agree():
    matrix = [[0.0, 1.0], [5.0, 0.0], [9.0, 3.0], [2.0, 8.0]]
    labels = ["a", "b", "b", "a"]
    tree = fit_tree(matrix, labels, ["x", "y"], min_samples_leaf=1, min_samples_split=2)
    for row in matrix:
        assert tree.predict_vector(row) == tree.predict({"x": row[0], "y": row[1]})


def test_missing_features_default_to_zero():
    tree = fit_tree([[0.0], [10.0]], ["a", "b"], ["x"], min_samples_leaf=1, min_samples_split=2)
    assert tree.predict({}) == "a"


def test_decision_path_ends_in_leaf():
    matrix = [[float(i)] for i in range(20)]
    labels = ["a" if i < 10 else "b" for i in range(20)]
    tree = fit_tree(matrix, labels, ["x"], min_samples_leaf=1, min_samples_split=2)
    path = tree.decision_path({"x": 3.0})
    assert path[-1].is_leaf
    assert len(path) == tree.depth() + 1 or path[-1].is_leaf


def test_feature_importances_identify_informative_feature():
    rng = np.random.default_rng(2)
    informative = rng.uniform(0, 1, size=300)
    noise = rng.uniform(0, 1, size=300)
    matrix = np.column_stack([informative, noise])
    labels = ["pos" if value > 0.5 else "neg" for value in informative]
    tree = fit_tree(matrix, labels, ["signal", "noise"])
    importances = tree.feature_importances()
    assert importances.get("signal", 0.0) > importances.get("noise", 0.0)


def test_unfitted_tree_raises():
    tree = DecisionTreeClassifier()
    assert not tree.is_fitted
    with pytest.raises(TrainingError):
        tree.predict({"x": 1.0})


def test_fit_validates_shapes():
    tree = DecisionTreeClassifier()
    with pytest.raises(TrainingError):
        tree.fit(np.zeros((0, 2)), [], ["a", "b"])
    with pytest.raises(TrainingError):
        tree.fit(np.zeros((2, 2)), ["a"], ["a", "b"])
    with pytest.raises(TrainingError):
        tree.fit(np.zeros((2, 2)), ["a", "b"], ["a"])


def test_constructor_validation():
    with pytest.raises(TrainingError):
        DecisionTreeClassifier(max_depth=0)
    with pytest.raises(TrainingError):
        DecisionTreeClassifier(min_samples_leaf=0)


def test_to_text_contains_feature_names():
    tree = fit_tree([[0.0], [10.0]], ["a", "b"], ["wait_time"], min_samples_leaf=1, min_samples_split=2)
    text = tree.to_text()
    assert "wait_time" in text
    assert "->" in text


def test_node_count_consistency():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0, 1, size=(150, 2))
    labels = ["a" if row[0] > 0.3 else "b" for row in xs]
    tree = fit_tree(xs, labels, ["a", "b"])
    assert tree.node_count() == 2 * tree.leaf_count() - 1


@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=4,
        max_size=60,
    )
)
@settings(max_examples=40, deadline=None)
def test_property_predictions_are_known_labels(data):
    """Property: the tree only ever predicts labels it has seen during training."""
    labels = ["big" if a + b > 100 else "small" for a, b in data]
    tree = fit_tree([list(row) for row in data], labels, ["a", "b"], min_samples_leaf=1, min_samples_split=2)
    for a, b in data:
        assert tree.predict({"a": a, "b": b}) in set(labels)


@given(
    values=st.lists(st.floats(min_value=-1000, max_value=1000, allow_nan=False), min_size=6, max_size=40)
)
@settings(max_examples=40, deadline=None)
def test_property_perfectly_separable_single_feature(values):
    """Property: a single-feature threshold concept is learned exactly on training data."""
    values = sorted(set(values))
    if len(values) < 4:
        return
    threshold = values[len(values) // 2]
    labels = ["ge" if v >= threshold else "lt" for v in values]
    if len(set(labels)) < 2:
        return
    tree = fit_tree([[v] for v in values], labels, ["x"], min_samples_leaf=1, min_samples_split=2)
    assert tree.accuracy(np.asarray([[v] for v in values]), labels) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Inputs the split search cannot order, and midpoints that leave their interval
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_non_finite_features_are_rejected_by_column_name(poison):
    """inf - inf hides a boundary and ``nan <= t`` is never true: refuse both."""
    matrix = np.arange(12, dtype=float).reshape(6, 2)
    matrix[[1, 4], 1] = poison
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from np.diff on the way
        with pytest.raises(TrainingError, match=r"'second' \(column 1\)"):
            DecisionTreeClassifier().fit(matrix, list("aabbab"), ["first", "second"])


def test_denormal_midpoint_that_collapses_onto_the_right_value_keeps_the_split():
    # mean(-5e-324, 0.0) == -0.0 and 0.0 <= -0.0, which would send both rows left.
    tree = fit_tree(
        [[-5e-324], [0.0]], ["neg", "zero"], ["x"], min_samples_leaf=1, min_samples_split=2
    )
    assert tree.predict({"x": -5e-324}) == "neg"
    assert tree.predict({"x": 0.0}) == "zero"


def test_midpoint_that_overflows_keeps_the_split():
    # 1e308 + 1.7e308 overflows to inf, which would send both rows left.
    tree = fit_tree(
        [[1e308], [1.7e308]], ["low", "high"], ["x"], min_samples_leaf=1, min_samples_split=2
    )
    assert math.isfinite(tree._root.threshold)
    assert tree.predict({"x": 1e308}) == "low"
    assert tree.predict({"x": 1.7e308}) == "high"


# ---------------------------------------------------------------------------
# The oracle: the fit before a node was scored in one pass over all features
# ---------------------------------------------------------------------------
#
# Straight-line C4.5 as the repository grew it until the node-level scorer
# replaced it: a stable argsort per (node, feature), one feature scored at a
# time, the first feature with a strictly larger (gain ratio, gain) wins.  It
# shares no code with ``repro.learning.decision_tree`` and the sweep below
# requires *exact* equality with it — thresholds, counts and structure — since
# goldens and registry fingerprints hang on those floats.

_MAX_THRESHOLDS = 128
_MIN_GAIN = 1e-9  # the constructor's default


def _reference_entropy(counts):
    probabilities = counts[counts > 0] / counts.sum()
    return float(-(probabilities * np.log2(probabilities)).sum())


def _reference_entropy_rows(counts, totals):
    probabilities = counts / totals[:, None]
    terms = np.zeros_like(probabilities)
    mask = counts > 0
    terms[mask] = probabilities[mask] * np.log2(probabilities[mask])
    return -terms.sum(axis=1)


def _reference_score_feature(sorted_values, sorted_labels, counts, min_leaf, events):
    """Best ``(gain_ratio, gain, threshold)`` of one feature sorted by value."""
    total = sorted_labels.size
    n_classes = counts.size
    boundaries = np.nonzero(np.diff(sorted_values) > 0)[0]
    if boundaries.size == 0:
        events["constant"] += 1
        return None
    if boundaries.size > _MAX_THRESHOLDS:
        events["subsampled"] += 1
        step = boundaries.size / _MAX_THRESHOLDS
        picks = (np.arange(_MAX_THRESHOLDS) * step).astype(int)
        boundaries = boundaries[picks]

    left_sizes = boundaries + 1
    right_sizes = total - left_sizes
    admissible = (left_sizes >= min_leaf) & (right_sizes >= min_leaf)
    if not admissible.any():
        events["inadmissible"] += 1
        return None
    boundaries = boundaries[admissible]
    left_sizes = left_sizes[admissible]
    right_sizes = right_sizes[admissible]

    num_boundaries = boundaries.size
    segments = np.searchsorted(boundaries, np.arange(total), side="left")
    buckets = np.bincount(
        segments * n_classes + sorted_labels,
        minlength=(num_boundaries + 1) * n_classes,
    ).reshape(num_boundaries + 1, n_classes)
    left_counts = np.cumsum(buckets[:num_boundaries], axis=0)
    right_counts = counts - left_counts
    gains = _reference_entropy(counts.astype(float)) - (
        left_sizes / total * _reference_entropy_rows(left_counts, left_sizes.astype(float))
        + right_sizes
        / total
        * _reference_entropy_rows(right_counts, right_sizes.astype(float))
    )
    useful = gains > _MIN_GAIN
    if not useful.any():
        return None
    boundaries = boundaries[useful]
    gains = gains[useful]
    left_fraction = left_sizes[useful] / total
    right_fraction = right_sizes[useful] / total
    split_info = -(
        left_fraction * np.log2(left_fraction)
        + right_fraction * np.log2(right_fraction)
    )
    gain_ratios = gains / split_info

    top = np.nonzero(gain_ratios == gain_ratios.max())[0]
    pick = top[int(np.argmax(gains[top]))]
    boundary = int(boundaries[pick])
    left_value = float(sorted_values[boundary])
    right_value = float(sorted_values[boundary + 1])
    threshold = (left_value + right_value) / 2.0
    if not (left_value <= threshold < right_value):
        threshold = left_value
    return (float(gain_ratios[pick]), float(gains[pick]), threshold)


def _reference_node(matrix, encoded, classes, max_depth, min_leaf, seen, depth=0):
    counts = np.bincount(encoded, minlength=len(classes))
    node = {
        "samples": int(encoded.size),
        "class_counts": {classes[i]: int(c) for i, c in enumerate(counts) if c},
        "label": classes[int(np.argmax(counts))],
    }
    if (
        depth >= max_depth
        or encoded.size < max(4, 2 * min_leaf)
        or np.count_nonzero(counts) <= 1
    ):
        return node

    events = Counter()
    candidates = []
    for feature_index in range(matrix.shape[1]):
        column = matrix[:, feature_index]
        order = np.argsort(column, kind="stable")
        scored = _reference_score_feature(
            column[order], encoded[order], counts, min_leaf, events
        )
        if scored is not None:
            candidates.append((scored[0], scored[1], feature_index, scored[2]))
    best = None
    for candidate in candidates:
        if best is None or candidate[:2] > best[:2]:
            best = candidate

    # What the sweep must keep reaching (see its ``seen`` assertion).
    seen["threshold subsampling"] += events["subsampled"] > 0
    seen["node with boundaries but none admissible"] += (
        events["inadmissible"] > 0
        and events["inadmissible"] + events["constant"] == matrix.shape[1]
    )
    if best is None:
        return node
    seen["cross-feature tie for the best split"] += (
        sum(candidate[:2] == best[:2] for candidate in candidates) > 1
    )
    seen["split node with constant columns to drop"] += events["constant"] > 0

    feature_index, threshold = best[2], best[3]
    mask = matrix[:, feature_index] <= threshold
    node["feature_index"] = feature_index
    node["threshold"] = threshold
    node["left"] = _reference_node(
        matrix[mask], encoded[mask], classes, max_depth, min_leaf, seen, depth + 1
    )
    node["right"] = _reference_node(
        matrix[~mask], encoded[~mask], classes, max_depth, min_leaf, seen, depth + 1
    )
    return node


def reference_root(matrix, labels, max_depth, min_samples_leaf, seen=None):
    """``to_dict()["root"]`` of the tree the oracle grows."""
    classes = sorted(set(labels))
    encoded = np.asarray([classes.index(label) for label in labels], dtype=int)
    return _reference_node(
        np.asarray(matrix, dtype=float),
        encoded,
        classes,
        max_depth,
        min_samples_leaf,
        Counter() if seen is None else seen,
    )


def _sweep_case(seed):
    """One seeded, deliberately tie-heavy training set and its hyper-parameters."""
    rng = np.random.default_rng(seed)
    n = int(round(np.exp(rng.uniform(np.log(5), np.log(1400)))))
    f = int(rng.integers(1, 13))
    kinds = (
        lambda: np.full(n, rng.normal()),  # constant
        lambda: rng.integers(0, 2, size=n).astype(float),  # binary
        lambda: rng.integers(0, 6, size=n).astype(float),  # six levels
        lambda: np.round(rng.uniform(0, 10, size=n), 1),  # one decimal
        lambda: rng.normal(size=n),  # continuous: > _MAX_THRESHOLDS boundaries
    )
    matrix = np.column_stack([kinds[int(rng.integers(0, 5))]() for _ in range(f)])
    twin = None
    if f >= 2:  # two identical columns: every split on one ties with the other
        low, high = sorted(rng.choice(f, size=2, replace=False))
        matrix[:, high] = matrix[:, low]
        twin = int(high)

    n_classes = int(rng.integers(2, 9))
    score = matrix @ rng.normal(size=f) + rng.normal(scale=0.5, size=n)
    cuts = np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1])
    classes = np.searchsorted(cuts, score)
    noisy = rng.random(n) < 0.2
    classes[noisy] = rng.integers(0, n_classes, size=int(noisy.sum()))
    if n >= 10:  # a duplicated block of rows, with or without its labels
        block = int(rng.integers(1, n // 2))
        source, target = (int(v) for v in rng.integers(0, n - block, size=2))
        matrix[target : target + block] = matrix[source : source + block].copy()
        if rng.random() < 0.5:
            classes[target : target + block] = classes[source : source + block].copy()

    return (
        matrix,
        [f"L{c}" for c in classes],
        [f"f{j}" for j in range(f)],
        {
            "min_samples_leaf": int(rng.integers(1, 8)),
            "max_depth": int(rng.integers(1, 20)),
        },
        twin,
    )


def _split_features(node):
    if "feature_index" not in node:
        return set()
    return (
        {node["feature_index"]}
        | _split_features(node["left"])
        | _split_features(node["right"])
    )


def test_node_pass_fit_is_bit_identical_to_the_oracle():
    """300 seeded matrices, 5-1,400 rows: the same tree, to the last bit."""
    seen = Counter()
    for seed in range(300):
        matrix, labels, names, params, twin = _sweep_case(seed)
        fitted = DecisionTreeClassifier(**params).fit(matrix, labels, names).to_dict()
        case_seen = Counter()
        assert fitted["root"] == reference_root(
            matrix, labels, seen=case_seen, **params
        ), (seed, matrix.shape, params)
        assert fitted["classes"] == sorted(set(labels))
        # Identical columns tie on every candidate; the lower index must win.
        assert twin not in _split_features(fitted["root"]), (seed, twin)
        seen.update({reached: count > 0 for reached, count in case_seen.items()})
    # The sweep must reach the cases it was written for.
    assert all(seen.values()) and len(seen) == 4, seen


# ---------------------------------------------------------------------------
# Deterministic work and memory guards on a benchmark-shaped training set
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_shaped_set():
    """What one ``benchmarks/perf`` tenant trains on: ~430 examples x 41 features."""
    templates = tpch_templates(10)
    config = TrainingConfig(
        num_samples=40, queries_per_sample=8, seed=0, min_samples_leaf=5, max_depth=30
    )
    result = ModelGenerator(templates, config=config).generate(
        MaxLatencyGoal.from_factor(templates)
    )
    matrix, labels = result.training_set.to_matrix()
    return matrix, labels, result.training_set.feature_names, result.model.tree


def test_a_node_costs_two_entropy_calls_not_two_per_feature(
    benchmark_shaped_set, monkeypatch
):
    matrix, labels, names, trained = benchmark_shaped_set
    calls = []
    real = decision_tree._entropy_rows

    def counting(counts, totals):
        calls.append(len(totals))
        return real(counts, totals)

    monkeypatch.setattr(decision_tree, "_entropy_rows", counting)
    tree = DecisionTreeClassifier(max_depth=30, min_samples_leaf=5).fit(matrix, labels, names)
    internal_nodes = tree.node_count() - tree.leaf_count()
    assert internal_nodes >= 40  # a ~100-node tree, not a stump
    assert 0 < len(calls) <= 2 * internal_nodes
    assert tree.to_dict() == trained.to_dict()  # the trainer's own fit, again
    assert tree.to_dict()["root"] == reference_root(
        matrix, labels, max_depth=30, min_samples_leaf=5
    )


def test_fit_memory_stays_a_small_multiple_of_the_matrix(benchmark_shaped_set):
    """Node-local arrays are released before the children are grown.

    Holding every ancestor's gathers alive down the tree reads ~30x the
    matrix here; one node's working set plus the pending siblings' orders
    reads well under half the bound.
    """
    base, base_labels, names, _ = benchmark_shaped_set
    repeats = -(-7000 // base.shape[0])
    rng = np.random.default_rng(0)
    matrix = np.tile(base, (repeats, 1))
    continuous = [j for j in range(base.shape[1]) if np.unique(base[:, j]).size > 12]
    matrix[:, continuous] *= 1 + rng.uniform(
        -0.05, 0.05, size=(matrix.shape[0], len(continuous))
    )
    labels = list(base_labels) * repeats
    assert matrix.shape[0] >= 7000 and continuous

    tracemalloc.start()
    try:
        tree = DecisionTreeClassifier(max_depth=30, min_samples_leaf=5).fit(
            matrix, labels, names
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 14 * matrix.nbytes, peak / matrix.nbytes
    assert tree.to_dict()["root"] == reference_root(
        matrix, labels, max_depth=30, min_samples_leaf=5
    )
