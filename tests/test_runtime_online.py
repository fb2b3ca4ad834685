"""Online scheduling: arrivals, aged templates, and the retraining optimizations."""

from __future__ import annotations

import pytest

from repro import TrainingConfig, WiSeDBService, tpch_templates
from repro.core.cost_model import CostModel
from repro.runtime.batch import BatchScheduler
from repro.runtime.online import OnlineOptimizations, OnlineScheduler
from repro.sla.factory import default_goal
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.query import Query
from repro.workloads.workload import Workload


@pytest.fixture(scope="module")
def arrival_workload(small_templates):
    generator = WorkloadGenerator(small_templates, seed=21)
    workload = generator.uniform(10)
    return generator.with_fixed_arrivals(workload, delay=30.0)


def _scheduler(trained, generator, optimizations):
    return OnlineScheduler(
        base_training=trained,
        generator=generator,
        optimizations=optimizations,
        wait_resolution=60.0,
    )


def test_optimization_labels():
    assert OnlineOptimizations.none().describe() == "None"
    assert OnlineOptimizations.reuse_only().describe() == "Reuse"
    assert OnlineOptimizations.shift_only().describe() == "Shift"
    assert OnlineOptimizations.all().describe() == "Shift + Reuse"


def test_online_schedules_every_query(trained_max, model_generator, arrival_workload):
    scheduler = _scheduler(trained_max, model_generator, OnlineOptimizations.all())
    report = scheduler.run_report(arrival_workload)
    assert len(report.outcomes) == len(arrival_workload)
    scheduled_ids = {outcome.query_id for outcome in report.outcomes}
    assert scheduled_ids == {q.query_id for q in arrival_workload}


def test_online_queries_start_after_arrival(trained_max, model_generator, arrival_workload):
    scheduler = _scheduler(trained_max, model_generator, OnlineOptimizations.all())
    report = scheduler.run_report(arrival_workload)
    arrivals = {q.query_id: q.arrival_time for q in arrival_workload}
    for outcome in report.outcomes:
        assert outcome.start_time >= arrivals[outcome.query_id] - 1e-9


def test_online_report_accounting(trained_max, model_generator, arrival_workload):
    scheduler = _scheduler(trained_max, model_generator, OnlineOptimizations.all())
    report = scheduler.run_report(arrival_workload)
    assert report.num_vms >= 1
    assert report.total_cost > 0.0
    assert len(report.scheduling_overheads) == len(arrival_workload)
    assert report.average_overhead >= 0.0
    assert report.total_overhead == pytest.approx(sum(report.scheduling_overheads))


def test_online_batch_arrivals_match_batch_scheduler_cost_scale(
    trained_max, model_generator, small_templates
):
    """With all arrivals at t=0 the online run degenerates to batch scheduling.

    Simultaneous arrivals form a single epoch, so the whole workload is
    scheduled in one pass with the base model — exactly what the batch
    scheduler does — and the costs agree to the cent.
    """
    workload = WorkloadGenerator(small_templates, seed=22).uniform(12)
    scheduler = _scheduler(trained_max, model_generator, OnlineOptimizations.all())
    report = scheduler.run_report(workload)
    batch_schedule = BatchScheduler(trained_max.model).schedule(workload)
    batch_cost = CostModel(trained_max.model.latency_model).total_cost(
        batch_schedule, trained_max.goal
    )
    assert report.total_cost == pytest.approx(batch_cost)
    assert report.retrains == 0
    assert report.base_model_uses == 1
    assert len(report.scheduling_overheads) == 1


def test_online_simultaneous_arrivals_form_one_epoch(
    trained_max, model_generator, small_templates
):
    """Bursts sharing a timestamp are scheduled in one pass; a session fed one
    query per epoch (the per-arrival loop) still schedules every query, one
    pass each, through epochs that share a timestamp."""
    generator = WorkloadGenerator(small_templates, seed=25)
    workload = generator.uniform(6)
    burst = workload.with_queries(
        q.with_arrival_time(30.0 * (index // 2)) for index, q in enumerate(workload)
    )
    report = _scheduler(
        trained_max, model_generator, OnlineOptimizations.all()
    ).run_report(burst)
    assert len(report.outcomes) == len(burst)
    assert len(report.scheduling_overheads) == 3  # one per distinct arrival time

    session = _scheduler(trained_max, model_generator, OnlineOptimizations.all()).session()
    for query in sorted(burst, key=lambda q: (q.arrival_time, q.query_id)):
        session.submit([query])
    per_query = session.finalize()
    assert {o.query_id for o in per_query.outcomes} == {q.query_id for q in burst}
    assert len(per_query.scheduling_overheads) == len(burst)


def test_shift_optimization_triggers_for_shiftable_goal(
    trained_max, model_generator, small_templates
):
    generator = WorkloadGenerator(small_templates, seed=23)
    # Long inter-arrival gaps force waits beyond the resolution for queued queries.
    workload = generator.with_fixed_arrivals(generator.uniform(6), delay=90.0)
    scheduler = _scheduler(trained_max, model_generator, OnlineOptimizations.shift_only())
    report = scheduler.run_report(workload)
    assert len(report.outcomes) == len(workload)


def test_reuse_caches_models(trained_average, model_generator, small_templates):
    """For non-shiftable goals the reuse cache avoids repeated retraining."""
    generator = WorkloadGenerator(small_templates, seed=24)
    workload = generator.with_fixed_arrivals(generator.uniform(8), delay=90.0)
    with_reuse = OnlineScheduler(
        base_training=trained_average,
        generator=model_generator,
        optimizations=OnlineOptimizations.reuse_only(),
        wait_resolution=1000.0,
    )
    report = with_reuse.run_report(workload)
    assert len(report.outcomes) == len(workload)
    # With a coarse wait resolution every wait rounds to the same signature,
    # so at most a couple of models are ever trained.
    assert report.retrains <= 2


def test_run_and_run_report_share_one_execution(
    trained_max, model_generator, arrival_workload
):
    """run() + run_report() on the same workload must not double the work.

    Historically each method ran its own arrival loop, so overhead counters
    (and retrains) doubled when both were consulted.  The pass is memoized per
    workload object; a different workload still triggers a fresh pass.
    """
    scheduler = _scheduler(trained_max, model_generator, OnlineOptimizations.all())
    outcome = scheduler.run(arrival_workload)
    report = scheduler.run_report(arrival_workload)
    assert outcome.query_outcomes == report.outcomes
    assert outcome.cost == report.cost
    assert outcome.overhead.retrains == report.retrains
    # One pass: the report's wall-clock overheads are the outcome's, verbatim.
    assert outcome.overhead.wall_time_seconds == report.total_overhead
    assert outcome.overhead.decisions == len(report.scheduling_overheads)

    # A distinct workload object starts a fresh execution.
    other = WorkloadGenerator(
        arrival_workload.templates, seed=26
    ).with_fixed_arrivals(
        WorkloadGenerator(arrival_workload.templates, seed=26).uniform(4), delay=50.0
    )
    fresh = scheduler.run_report(other)
    assert len(fresh.outcomes) == len(other)


def test_online_rejects_bad_resolution(trained_max, model_generator):
    with pytest.raises(Exception):
        OnlineScheduler(
            base_training=trained_max,
            generator=model_generator,
            wait_resolution=0.0,
        )


def test_zero_wait_stream_never_formats_an_aged_name(
    trained_max, model_generator, small_templates, monkeypatch
):
    """Queries pulled back with a wait that rounds to zero stay fresh instances.

    The aged name (an f-string and a ``round``) used to be built for every
    pending query on every pass before the wait was looked at, and the wait
    rounded twice per pass; now a wait is rounded once and only a positive
    one names an aged template.
    """
    generator = WorkloadGenerator(small_templates, seed=23)
    workload = generator.with_fixed_arrivals(generator.uniform(12), delay=1.0)
    scheduler = OnlineScheduler(
        base_training=trained_max, generator=model_generator, wait_resolution=1e9
    )
    rounded: list[float] = []
    round_wait = scheduler._round_wait

    def fail(template_name, waited):
        raise AssertionError(f"aged name built for a {waited} s wait")

    monkeypatch.setattr(OnlineScheduler, "_aged_name", staticmethod(fail))
    monkeypatch.setattr(
        scheduler, "_round_wait", lambda waited: rounded.append(waited) or round_wait(waited)
    )
    session = scheduler.session()
    pulled_back = 0
    for epoch in scheduler._arrival_epochs(workload):
        before = len(rounded)
        decision = session.submit(epoch)
        # One rounding per pulled-back query per pass, none for the arrival.
        assert len(rounded) - before == len(decision.placements) - len(epoch)
        pulled_back += len(decision.placements) - len(epoch)
    assert pulled_back > 0 and all(waited > 0.0 for waited in rounded)
    assert session.finalize().base_model_uses == len(workload)


def test_aged_names_keep_whole_seconds_and_tell_fractions_apart():
    aged = OnlineScheduler._aged_name
    # Integral waits keep the names goldens and model caches were built with.
    assert aged("T1", 60.0) == "T1+60s"
    assert aged("T1", 2.0) == "T1+2s"
    assert aged("T1", 30) == "T1+30s"
    assert aged("T1", 1.5) == "T1+1.5s"
    for resolution in (0.1, 0.25, 0.5):
        waits = {k * resolution for k in range(1, 400)}
        assert len({aged("T1", waited) for waited in waits}) == len(waits)


@pytest.mark.parametrize("kind", ["average", "percentile"])
def test_sub_second_waits_age_into_distinct_templates(kind):
    """At a 0.5 s resolution, waits of 1.5 s and 2.0 s are two aged templates.

    Both used to be named ``T1+2s``, so the augmented template set was
    refused as holding duplicate names.
    """
    templates = tpch_templates(4)
    service = WiSeDBService(n_jobs=1)
    service.register(
        kind, templates, default_goal(kind, templates), config=TrainingConfig.tiny(seed=1)
    )
    workload = Workload(
        templates,
        [
            Query(name, arrival_time=when)
            for when in (0.0, 0.5, 2.0)
            for name in ("T1", "T2") * 6
        ],
    )
    outcome = service.online_scheduler(kind, wait_resolution=0.5).run(workload)
    assert sorted(o.query_id for o in outcome.query_outcomes) == sorted(
        query.query_id for query in workload
    )
    assert outcome.overhead.retrains >= 1
    service.close()
