"""The incremental :class:`~repro.runtime.online.OnlineSession`.

The session is the only arrival loop, so the headline property — feeding
epochs one ``submit`` at a time produces bit-identical reports and outcomes to
``run()`` on the equivalent workload, with or without a fault plan — is
checked directly here (the serving equivalence suite re-checks the fault-free
half through the whole async engine).  The rest pins the session contract:
epoch validation, placement reporting, idempotent finalization, a failed epoch
leaving the session intact, and per-stream state staying bounded.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.adaptive.retraining import AdaptiveModeler
from repro.exceptions import SpecificationError, TrainingError
from repro.faults import (
    BackoffPolicy,
    FaultPlan,
    SlowStart,
    SpotRevocation,
    VMFailure,
)
from repro.runtime.online import OnlineScheduler, OnlineSession
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.query import Query


@pytest.fixture()
def scheduler(trained_max, model_generator) -> OnlineScheduler:
    return OnlineScheduler(
        base_training=trained_max, generator=model_generator, wait_resolution=60.0
    )


@pytest.fixture()
def arrival_workload(workload_generator):
    return workload_generator.with_fixed_arrivals(workload_generator.uniform(8), 45.0)


def _epochs(scheduler: OnlineScheduler, workload):
    return list(scheduler._arrival_epochs(workload))


class TestRunEquivalence:
    def test_submit_stream_matches_run(
        self, scheduler, trained_max, model_generator, arrival_workload
    ):
        session = scheduler.session()
        decisions = [
            session.submit(epoch) for epoch in _epochs(scheduler, arrival_workload)
        ]
        streamed = session.outcome()
        fresh = OnlineScheduler(
            base_training=trained_max, generator=model_generator, wait_resolution=60.0
        )
        direct = fresh.run(arrival_workload)
        assert streamed.cost == direct.cost
        assert streamed.query_outcomes == direct.query_outcomes
        assert [vm.vm_type.name for vm in streamed.schedule] == [
            vm.vm_type.name for vm in direct.schedule
        ]
        assert [
            [query.query_id for query in vm.queries] for vm in streamed.schedule
        ] == [[query.query_id for query in vm.queries] for vm in direct.schedule]
        assert streamed.overhead.retrains == direct.overhead.retrains
        assert streamed.overhead.cache_hits == direct.overhead.cache_hits
        # Every epoch places all of its arrivals (pull-back re-placements of
        # still-waiting queries ride along), and the union covers the workload.
        for decision in decisions:
            placed = {placement.query_id for placement in decision.placements}
            assert placed >= set(decision.arrivals)
        all_placed = {
            placement.query_id
            for decision in decisions
            for placement in decision.placements
        }
        assert all_placed == {query.query_id for query in arrival_workload}

    def test_same_timestamp_arrivals_are_one_epoch(self, scheduler):
        session = scheduler.session()
        queries = [Query("T1", arrival_time=5.0), Query("T2", arrival_time=5.0)]
        decision = session.submit(queries)
        assert session.epochs == 1
        assert decision.arrivals == tuple(
            sorted(query.query_id for query in queries)
        )
        assert len(decision.placements) == 2


@pytest.fixture()
def fault_workload(small_templates):
    # Its own seeded generator (the shared one is stateful across tests): the
    # plans below are timed against this exact stream, whose eight epochs
    # fall at 0, 45, 90, ... 315 seconds.
    generator = WorkloadGenerator(small_templates, seed=15)
    return generator.with_fixed_arrivals(generator.uniform(8), 45.0)


FAULT_PLANS = {
    "between_epochs": FaultPlan(events=(VMFailure(at=100.0, vm_index=0),)),
    "at_an_epoch": FaultPlan(events=(VMFailure(at=90.0, vm_index=0),)),
    "after_the_last_arrival": FaultPlan(
        events=(VMFailure(at=340.0, vm_index=0), VMFailure(at=400.0, vm_index=1))
    ),
    "spot_revocation": FaultPlan(
        events=(
            SpotRevocation(at=130.0, vm_index=0),
            SpotRevocation(at=130.0, vm_index=1),
        )
    ),
    "slow_start": FaultPlan(
        events=(
            SlowStart(vm_index=0, delay=10.0, start_failures=3),
            VMFailure(at=0.0, vm_index=1),
        ),
        backoff=BackoffPolicy(base_delay=2.0, multiplier=2.0, max_delay=4.0),
    ),
    "seeded_storm": FaultPlan.from_rates(
        seed=21, crash_rate=8.0, start_failure_chance=0.2
    ),
}


class TestFaultPlanEquivalence:
    @pytest.mark.parametrize("kind", ["max", "per_query", "average", "percentile"])
    @pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
    def test_session_matches_run_under_faults(
        self, kind, plan_name, all_trained, model_generator, fault_workload
    ):
        def faulty() -> OnlineScheduler:
            return OnlineScheduler(
                all_trained[kind],
                model_generator,
                wait_resolution=60.0,
                fault_plan=FAULT_PLANS[plan_name],
            )

        direct = faulty().run(fault_workload)
        # The plan bites, so the grid compares real failure handling.
        assert direct.overhead.vm_failures + direct.overhead.retries > 0

        scheduler = faulty()
        session = scheduler.session()
        decisions = [
            session.submit(epoch) for epoch in _epochs(scheduler, fault_workload)
        ]
        streamed = session.outcome()
        assert streamed.schedule == direct.schedule
        assert streamed.cost == direct.cost
        assert streamed.query_outcomes == direct.query_outcomes
        assert dataclasses.replace(
            streamed.overhead, wall_time_seconds=0.0
        ) == dataclasses.replace(direct.overhead, wall_time_seconds=0.0)
        assert streamed.cost.total == pytest.approx(
            streamed.cost.failure_free_cost + streamed.cost.wasted_cost
        )
        assert sorted(o.query_id for o in streamed.query_outcomes) == sorted(
            query.query_id for query in fault_workload
        )
        # Orphans re-placed by a failure pass are reported by the submit that
        # ran it, next to that epoch's own arrivals.
        for decision in decisions:
            placed = {placement.query_id for placement in decision.placements}
            assert placed >= set(decision.arrivals)


def _failing_retrain(self, goal):
    raise TrainingError("simulated: retrain failed")


class TestFailedEpoch:
    """A model derivation that raises must not cost already-placed queries."""

    @pytest.fixture()
    def placed(self, scheduler):
        session = scheduler.session()
        first = [Query("T3", arrival_time=0.0) for _ in range(12)]
        session.submit(first)
        return session, first

    def test_outcome_still_prices_every_placed_query(self, placed, monkeypatch):
        session, first = placed
        monkeypatch.setattr(AdaptiveModeler, "retrain", _failing_retrain)
        with pytest.raises(TrainingError):
            session.submit([Query("T1", arrival_time=45.0)])
        assert sorted(o.query_id for o in session.outcome().query_outcomes) == sorted(
            query.query_id for query in first
        )

    def test_the_same_epoch_can_be_submitted_again(self, placed, monkeypatch):
        session, first = placed
        second = [Query("T1", arrival_time=45.0)]
        with monkeypatch.context() as patch:
            patch.setattr(AdaptiveModeler, "retrain", _failing_retrain)
            with pytest.raises(TrainingError):
                session.submit(second)
        assert session.submit(second).retrained
        assert sorted(o.query_id for o in session.outcome().query_outcomes) == sorted(
            query.query_id for query in first + second
        )


class TestBoundedState:
    def test_per_stream_state_is_bounded_by_the_wait_queue(self, scheduler):
        session = scheduler.session()
        largest_pending = 0
        for index in range(2000):
            # One arrival a second against one-minute queries: a standing
            # wait queue, every epoch pulling it back.
            decision = session.submit([Query("T1", arrival_time=float(index))])
            largest_pending = max(largest_pending, len(decision.placements))
            assert len(scheduler._batch_query_cache) <= largest_pending
        assert 1 < largest_pending < 2000
        assert len(session.finalize().outcomes) == 2000


class TestEpochDecision:
    def test_placements_reference_real_vms(self, scheduler):
        session = scheduler.session()
        decision = session.submit([Query("T3", arrival_time=0.0)])
        assert decision.new_vms >= 1
        assert session.num_vms >= decision.new_vms
        placement = decision.placement_for(decision.arrivals[0])
        assert 0 <= placement.vm_index < session.num_vms
        assert placement.completion_time > placement.start_time >= 0.0
        assert placement.template_name == "T3"

    def test_placement_for_unknown_query_raises(self, scheduler):
        session = scheduler.session()
        decision = session.submit([Query("T1", arrival_time=0.0)])
        with pytest.raises(SpecificationError):
            decision.placement_for(-1)

    def test_overhead_is_recorded_per_epoch(self, scheduler):
        session = scheduler.session()
        first = session.submit([Query("T1", arrival_time=0.0)])
        second = session.submit([Query("T2", arrival_time=10.0)])
        assert first.overhead_seconds >= 0.0
        assert second.overhead_seconds >= 0.0
        assert len(session.finalize().scheduling_overheads) == 2


class TestValidation:
    def test_empty_epoch_rejected(self, scheduler):
        with pytest.raises(SpecificationError):
            scheduler.session().submit([])

    def test_mixed_timestamps_rejected(self, scheduler):
        session = scheduler.session()
        with pytest.raises(SpecificationError):
            session.submit(
                [Query("T1", arrival_time=1.0), Query("T2", arrival_time=2.0)]
            )

    def test_time_must_not_decrease(self, scheduler):
        session = scheduler.session()
        session.submit([Query("T1", arrival_time=10.0)])
        with pytest.raises(SpecificationError):
            session.submit([Query("T2", arrival_time=5.0)])

    def test_equal_times_across_epochs_are_allowed(self, scheduler):
        # The slow-path reference submits singleton epochs that share
        # timestamps; the session must accept non-decreasing, not strictly
        # increasing, epoch times.
        session = scheduler.session()
        session.submit([Query("T1", arrival_time=10.0)])
        session.submit([Query("T2", arrival_time=10.0)])
        assert session.epochs == 2

    def test_submit_after_finalize_rejected(self, scheduler):
        session = scheduler.session()
        session.submit([Query("T1", arrival_time=0.0)])
        session.finalize()
        assert session.finalized
        with pytest.raises(SpecificationError):
            session.submit([Query("T2", arrival_time=1.0)])

    def test_finalize_is_idempotent(self, scheduler):
        session = scheduler.session()
        session.submit([Query("T1", arrival_time=0.0)])
        assert session.finalize() is session.finalize()

    def test_empty_fault_plan_still_allows_sessions(
        self, trained_max, model_generator
    ):
        scheduler = OnlineScheduler(
            base_training=trained_max,
            generator=model_generator,
            fault_plan=FaultPlan.empty(),
        )
        assert isinstance(scheduler.session(), OnlineSession)


class TestCounters:
    def test_counters_progress_with_waits(self, scheduler, workload_generator):
        workload = workload_generator.with_fixed_arrivals(
            workload_generator.uniform(6), 45.0
        )
        session = scheduler.session()
        for epoch in _epochs(scheduler, workload):
            session.submit(epoch)
        report = session.finalize()
        assert session.epochs == 6
        assert report.retrains == session.retrains
        assert report.cache_hits == session.cache_hits
        assert report.num_vms == session.num_vms
