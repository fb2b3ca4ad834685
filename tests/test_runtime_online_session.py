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
from collections import Counter

import pytest

from repro.adaptive.retraining import AdaptiveModeler
from repro.core.schedule import Schedule
from repro.exceptions import ScheduleError, SpecificationError, TrainingError
from repro.faults import (
    BackoffPolicy,
    FaultPlan,
    SlowStart,
    SpotRevocation,
    VMFailure,
)
from repro.learning.model import DecisionModel
from repro.learning.trainer import TrainingResult
from repro.runtime.batch import BatchScheduler, PlacementKernel
from repro.runtime.online import OnlineScheduler, OnlineSession
from repro.search.problem import ProblemTables, VertexStepper
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.query import Query
from repro.workloads.workload import Workload


@pytest.fixture()
def scheduler(trained_max, model_generator) -> OnlineScheduler:
    return OnlineScheduler(
        base_training=trained_max, generator=model_generator, wait_resolution=60.0
    )


@pytest.fixture()
def arrival_workload(small_templates):
    generator = WorkloadGenerator(small_templates, seed=44)
    return generator.with_fixed_arrivals(generator.uniform(8), 45.0)


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
        decisions = []
        for epoch in _epochs(scheduler, fault_workload):
            decisions.append(session.submit(epoch))
            # What a pass pulls back is each VM's unstarted suffix, which
            # holds only while every VM's records start in order.
            for vm in session._vms:
                starts = [record.start_time for record in vm.records]
                assert starts == sorted(starts)
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


def _bursts(count: int, names=("T3", "T1", "T3", "T1")) -> list[list[Query]]:
    """*count* epochs a minute apart, one query per name: a standing wait queue."""
    return [
        [Query(name, arrival_time=60.0 * index) for name in names]
        for index in range(count)
    ]


class TestFailedKernelPass:
    """A kernel that raises part-way through a pass must leave nothing behind."""

    @pytest.mark.parametrize("kind", ["max", "average"])
    @pytest.mark.parametrize("then", ["resubmit", "move_on"])
    def test_the_session_ends_as_if_the_pass_never_ran(
        self, then, kind, all_trained, model_generator, monkeypatch
    ):
        epochs = _bursts(8)
        # The failing epoch is all T2, which no other epoch holds, so a stale
        # remaining count would outlive it.  Submitted again, it counts;
        # skipped, it never existed.
        epochs[4] = [Query("T2", arrival_time=240.0) for _ in range(4)]
        kept = epochs if then == "resubmit" else epochs[:4] + epochs[5:]

        def online() -> OnlineScheduler:
            return OnlineScheduler(
                base_training=all_trained[kind],
                generator=model_generator,
                wait_resolution=60.0,
            )

        reference = online().session()
        for epoch in kept:
            reference.submit(epoch)

        session = online().session()
        for epoch in epochs[:4]:
            session.submit(epoch)
        decide = DecisionModel.decide
        calls = []

        def third_call_raises(self, node):
            calls.append(None)
            if len(calls) == 3:
                raise ScheduleError("simulated: the kernel failed part-way")
            return decide(self, node)

        with monkeypatch.context() as patch:
            patch.setattr(DecisionModel, "decide", third_call_raises)
            with pytest.raises(ScheduleError):
                session.submit(epochs[4])
        assert len(calls) == 3  # two decisions landed before the failure
        assert session.epochs == 4
        for epoch in kept[4:]:
            session.submit(epoch)

        streamed, direct = session.outcome(), reference.outcome()
        assert streamed.schedule == direct.schedule
        assert streamed.cost == direct.cost
        assert streamed.query_outcomes == direct.query_outcomes
        assert streamed.overhead.decisions == direct.overhead.decisions


def _container_sizes(owner: object) -> dict[str, int]:
    """Entries held by each container attribute of *owner*, one level deep."""
    sizes = {}
    for name, value in vars(owner).items():
        if isinstance(value, (dict, list, set, tuple)):
            sizes[name] = len(value)
            if isinstance(value, dict):
                sizes[name] += sum(
                    len(inner) for inner in value.values() if isinstance(inner, dict)
                )
    return sizes


class TestBoundedState:
    def test_no_per_scheduler_state_grows_with_the_stream(self, scheduler):
        session = scheduler.session()
        largest_pending = 0
        warm = None
        for index in range(2000):
            # One arrival a second against one-minute queries: a standing
            # wait queue, every epoch pulling it back.
            decision = session.submit([Query("T1", arrival_time=float(index))])
            largest_pending = max(largest_pending, len(decision.placements))
            if index == 199:
                warm = _container_sizes(scheduler)
        assert 1 < largest_pending < 2000
        assert _container_sizes(scheduler) == warm
        assert len(session.finalize().outcomes) == 2000

    def test_no_per_session_state_grows_while_models_alternate(self, scheduler):
        """The session keeps one kernel, and the kernel one vertex stepper,
        over whichever model's tables each pass picks.

        Everything the session holds is bounded by the wait queue, except its
        two records of the run: one entry per VM and one per pass.
        """
        session = scheduler.session()
        kernel = session._kernel
        stepper = None
        tables = []
        largest = {}
        for index, epoch in enumerate(_bursts(600, ("T3", "T1", "T2", "T3"))):
            session.submit(epoch)
            assert session._kernel is kernel
            stepper = stepper or kernel._stepper
            assert kernel._stepper is stepper
            if stepper.tables is not (tables[-1] if tables else None):
                tables.append(stepper.tables)
            sizes = _container_sizes(session)
            sizes.update(
                (f"_kernel._stepper.{name}", size)
                for name, size in _container_sizes(kernel._stepper).items()
            )
            del sizes["_vms"], sizes["_overheads"]
            if index == 199:
                warm = dict(largest)
                warm_scheduler = _container_sizes(scheduler)
            for name, size in sizes.items():
                largest[name] = max(largest.get(name, 0), size)
        assert session.retrains > 1
        assert len({id(table) for table in tables}) > 2
        assert len(tables) > 100  # the pass's model changes nearly every epoch
        assert largest == warm
        assert _container_sizes(scheduler) == warm_scheduler


def _counting_constructors(monkeypatch, classes) -> Counter:
    """Count every construction of *classes* from here on, by class name."""
    counts: Counter = Counter()
    for cls in classes:

        def counting(self, *args, _original=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


class TestWorkGuard:
    def test_a_fault_free_no_retrain_submit_builds_no_batch_problem(
        self, trained_max, model_generator, small_templates, monkeypatch
    ):
        """The pass hands the wait queue to the kernel as pools of the
        original queries: no clone, no workload, no schedule, no scheduler."""
        scheduler = OnlineScheduler(
            base_training=trained_max, generator=model_generator, wait_resolution=1e9
        )
        generator = WorkloadGenerator(small_templates, seed=46)
        workload = generator.with_fixed_arrivals(generator.uniform(30), 1.0)
        epochs = _epochs(scheduler, workload)
        session = scheduler.session()
        counts = _counting_constructors(
            monkeypatch, (Query, Workload, Schedule, BatchScheduler)
        )
        pulled_back = 0
        for epoch in epochs:
            decision = session.submit(epoch)
            pulled_back += len(decision.placements) - len(epoch)
        assert not counts
        assert pulled_back > 0
        assert session.retrains == 0

    def test_a_no_retrain_session_builds_one_kernel(
        self, trained_max, model_generator, small_templates, monkeypatch
    ):
        """A session builds one kernel, the kernel one vertex stepper, and the
        model one set of problem tables, which every decision prices with:
        passes reset them instead of rebuilding."""
        counts = _counting_constructors(
            monkeypatch, (PlacementKernel, VertexStepper, ProblemTables)
        )
        # A model loaded here: loading builds its one set of tables, as its
        # training pass does, and no decision builds another.
        base = TrainingResult.from_dict(trained_max.to_dict())
        scheduler = OnlineScheduler(
            base_training=base, generator=model_generator, wait_resolution=1e9
        )
        generator = WorkloadGenerator(small_templates, seed=46)
        workload = generator.with_fixed_arrivals(generator.uniform(30), 1.0)
        epochs = _epochs(scheduler, workload)
        session = scheduler.session()
        for epoch in epochs:
            session.submit(epoch)
        assert session.epochs == 30
        assert session.retrains == 0
        assert counts == {"PlacementKernel": 1, "VertexStepper": 1, "ProblemTables": 1}
        assert session._kernel._stepper.tables is base.model.tables


class TestEpochDecision:
    def test_placements_reference_real_vms(self, scheduler):
        session = scheduler.session()
        decision = session.submit([Query("T3", arrival_time=0.0)])
        assert decision.new_vms >= 1
        assert len(session._vms) >= decision.new_vms
        placement = decision.placement_for(decision.arrivals[0])
        assert 0 <= placement.vm_index < len(session._vms)
        assert placement.completion_time > placement.start_time >= 0.0
        assert placement.template_name == "T3"

    def test_placement_for_unknown_query_raises(self, scheduler):
        session = scheduler.session()
        decision = session.submit([Query("T1", arrival_time=0.0)])
        with pytest.raises(SpecificationError):
            decision.placement_for(-1)

    def test_a_query_placed_twice_in_one_submit_resolves_to_its_last_placement(
        self, trained_max, model_generator
    ):
        # VM 0 dies at t=10; the submit at t=20 first re-places its orphans
        # at t=10, then its own pass pulls back the orphans that have not
        # started by t=20 and places them again.
        scheduler = OnlineScheduler(
            base_training=trained_max,
            generator=model_generator,
            wait_resolution=60.0,
            fault_plan=FaultPlan(events=(VMFailure(at=10.0, vm_index=0),)),
        )
        session = scheduler.session()
        session.submit([Query("T3", arrival_time=0.0) for _ in range(12)])
        decision = session.submit([Query("T1", arrival_time=20.0)])
        last: dict[int, object] = {}
        twice = set()
        for placement in decision.placements:
            if placement.query_id in last:
                twice.add(placement.query_id)
            last[placement.query_id] = placement
        assert twice
        final = {o.query_id: o for o in session.outcome().query_outcomes}
        for query_id in twice:
            placement = decision.placement_for(query_id)
            assert placement is last[query_id]
            assert placement.start_time == final[query_id].start_time
            assert placement.vm_index == final[query_id].vm_index
        # The index is derived, not a field: equality and repr ignore it.
        assert decision == dataclasses.replace(decision)
        assert "_placements_by_query" not in repr(decision)

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
    def test_counters_progress_with_waits(self, scheduler, small_templates):
        generator = WorkloadGenerator(small_templates, seed=45)
        workload = generator.with_fixed_arrivals(generator.uniform(6), 45.0)
        session = scheduler.session()
        for epoch in _epochs(scheduler, workload):
            session.submit(epoch)
        report = session.finalize()
        assert session.epochs == 6
        assert report.retrains == session.retrains
        assert report.cache_hits == session.cache_hits
        assert report.num_vms == len(session._vms)
