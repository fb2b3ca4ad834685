"""An online retrain under a shifted goal below a template's latency stays cheap.

Figure 18's ``max`` row at 90 s between arrivals (``bench_fig18``, small
scale) shifts the max-latency goal by each query's wait, until the deadline
sits below the longest templates' own latency.  Those queries then miss it
wherever they run, and a provisioning bound that ignored that unavoidable
overage left the search to discover it vertex by vertex: the stream's seven
retrains expanded 1,332,551 vertices, one sample 1.25M of them.
:class:`~repro.search.bounds.ProvisioningBound` now charges it, so the same
retrains expand 119,190.  This is a count, not a time.

The retrains of one online session mostly fit training sets that order like
an earlier retrain's: same labels and, in every column, the same stable
order and ties.  Their trees re-threshold that fit's splits instead of
growing (:meth:`DecisionTreeClassifier.fit
<repro.learning.decision_tree.DecisionTreeClassifier.fit>`), bit-identical
to a fit without the memo.  How many do is pinned below, also a count.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.adaptive.retraining import AdaptiveModeler
from repro.config import TrainingConfig
from repro.evaluation.harness import build_environment, uniform_workloads
from repro.learning.decision_tree import DecisionTreeClassifier
from repro.learning.trainer import ModelGenerator
from repro.runtime.online import OnlineOptimizations, OnlineScheduler
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.templates import tpch_templates

#: ``benchmarks/conftest.py``'s small-scale training configuration.
FIG18_TRAINING = TrainingConfig(
    num_samples=60,
    queries_per_sample=8,
    seed=0,
    max_expansions=120_000,
    min_samples_leaf=5,
    max_depth=30,
)


def test_fig18_max_stream_at_90s_retrains_within_150k_expansions(monkeypatch):
    environment = build_environment(
        "max",
        templates=tpch_templates(10),
        config=FIG18_TRAINING,
        seed=GOAL_KINDS.index("max"),
    )
    reports = []
    retrain = AdaptiveModeler.retrain

    def recording_retrain(self, goal):
        result, report = retrain(self, goal)
        reports.append(report)
        return result, report

    monkeypatch.setattr(AdaptiveModeler, "retrain", recording_retrain)
    generator = ModelGenerator(
        templates=environment.templates,
        vm_types=environment.vm_types,
        latency_model=environment.latency_model,
        config=FIG18_TRAINING,
    )
    base_workload = uniform_workloads(environment.templates, 1, 12, seed=180)[0]
    workload = WorkloadGenerator(environment.templates, seed=181).with_fixed_arrivals(
        base_workload, 90.0
    )
    scheduler = OnlineScheduler(
        base_training=environment.training,
        generator=generator,
        optimizations=OnlineOptimizations.all(),
        wait_resolution=30.0,
    )
    outcome = scheduler.run(workload)

    assert reports, "the 90 s stream shifts the goal, so it must retrain"
    assert sum(report.total_expansions for report in reports) < 150_000
    assert all(report.samples_skipped == 0 for report in reports)
    assert all(
        report.samples_retrained == FIG18_TRAINING.num_samples for report in reports
    )
    # The cost before the bound charged the overage (cents); no dearer now.
    assert outcome.total_cost <= 4.633333333333334


# ---------------------------------------------------------------------------
# Re-thresholding: an ``online_retrain``-shaped stream at small scale
# ---------------------------------------------------------------------------

#: ``benchmarks/perf``'s tenant configuration at its smoke scale (12 samples).
SHIFT_TRAINING = TrainingConfig(
    num_samples=12,
    queries_per_sample=8,
    seed=0,
    max_expansions=120_000,
    min_samples_leaf=5,
    max_depth=30,
)


def _counting(monkeypatch, name):
    """Count calls of ``DecisionTreeClassifier.<name>`` from now on."""
    calls = []
    real = getattr(DecisionTreeClassifier, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(DecisionTreeClassifier, name, counted)
    return calls


@pytest.fixture(scope="module")
def shift_stream():
    """A ``max`` tenant, 300 Poisson arrivals 10 s apart, 5 s wait buckets."""
    templates = tpch_templates(10)
    generator = ModelGenerator(templates, config=SHIFT_TRAINING)
    base = generator.generate(default_goal("max", templates))
    stream = poisson_arrivals(templates, 300, rate=0.1, seed=97, tenant="max")
    return generator, base, stream


def test_most_retrains_of_a_shift_stream_rethreshold_an_earlier_fit(
    shift_stream, monkeypatch
):
    generator, base, stream = shift_stream
    retrained = []
    retrain = AdaptiveModeler.retrain

    def recording_retrain(self, goal):
        outcome = retrain(self, goal)
        retrained.append(outcome)
        return outcome

    monkeypatch.setattr(AdaptiveModeler, "retrain", recording_retrain)
    grows = _counting(monkeypatch, "_grow")
    scheduler = OnlineScheduler(base_training=base, generator=generator, wait_resolution=5.0)
    session = scheduler.session()
    for query in stream:
        session.submit([query])
    session.finalize()

    reused = [report.tree_reused for _, report in retrained]
    assert len(retrained) == 38
    assert reused.count(True) == 31
    assert len(grows) == reused.count(False)  # a re-threshold grows nothing
    monkeypatch.undo()
    for result, _ in retrained:
        matrix, labels = result.training_set.to_matrix()
        fresh = DecisionTreeClassifier(
            max_depth=SHIFT_TRAINING.max_depth,
            min_samples_leaf=SHIFT_TRAINING.min_samples_leaf,
        ).fit(matrix, labels, result.training_set.feature_names)
        assert result.model.tree.to_dict() == fresh.to_dict()


def test_fresh_training_computes_no_signature(shift_stream, monkeypatch):
    generator, base, _ = shift_stream
    signatures = _counting(monkeypatch, "_signature")
    grows = _counting(monkeypatch, "_grow")
    result = generator.generate(base.goal.shifted(5.0), workloads=base.workloads)
    assert signatures == [] and grows == ["_grow"]
    AdaptiveModeler(generator, result).retrain(base.goal.shifted(10.0))
    assert signatures == ["_signature"]


def test_a_memo_entry_holds_little_beyond_the_ranks_it_is_keyed_by(shift_stream):
    """Under tracemalloc: the key's bytes, 64 bytes a node and 4 KiB of containers.

    The key holds each column's dense ranks, one byte a matrix entry while a
    column has at most 256 distinct values (an eighth of the float64
    matrix), and the labels as bytes; the splits are narrow integer arrays.
    Holding the grown tree's nodes instead would cost some 300 bytes a node.
    """
    _, base, _ = shift_stream
    matrix, labels = base.training_set.to_matrix()
    names = base.training_set.feature_names
    rows, columns = matrix.shape
    memo = {}
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = DecisionTreeClassifier(
            max_depth=SHIFT_TRAINING.max_depth,
            min_samples_leaf=SHIFT_TRAINING.min_samples_leaf,
        ).fit(matrix, labels, names, memo=memo)
        nodes = tree.node_count()
        del tree
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(memo) == 1 and nodes >= 15
    key_bytes = rows * columns + rows
    assert retained <= key_bytes + 64 * nodes + 4096, (retained, key_bytes, nodes)
