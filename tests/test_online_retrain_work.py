"""An online retrain under a shifted goal below a template's latency stays cheap.

Figure 18's ``max`` row at 90 s between arrivals (``bench_fig18``, small
scale) shifts the max-latency goal by each query's wait, until the deadline
sits below the longest templates' own latency.  Those queries then miss it
wherever they run, and a provisioning bound that ignored that unavoidable
overage left the search to discover it vertex by vertex: the stream's seven
retrains expanded 1,332,551 vertices, one sample 1.25M of them.
:class:`~repro.search.bounds.ProvisioningBound` now charges it, so the same
retrains expand 119,190.  This is a count, not a time.
"""

from __future__ import annotations

from repro.adaptive.retraining import AdaptiveModeler
from repro.config import TrainingConfig
from repro.evaluation.harness import build_environment, uniform_workloads
from repro.learning.trainer import ModelGenerator
from repro.runtime.online import OnlineOptimizations, OnlineScheduler
from repro.sla.factory import GOAL_KINDS
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
