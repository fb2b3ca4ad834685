"""Fault-injection framework tests: determinism, no-op emptiness, exactly-once.

The contracts pinned here are the ones ISSUE-level acceptance depends on:

* an **empty plan is a strict no-op** — online runs are bit-identical to
  fault-free runs (the golden-digest suite independently asserts the same at
  the scenario level);
* a **fixed seed is fully reproducible** — two fresh schedulers consuming the
  same plan produce identical outcomes, counters, and costs;
* **no query is lost or double-completed** under arbitrary revocation
  streams, for every goal kind (property-tested with hypothesis);
* **retries respect the capped exponential backoff**, and the cost breakdown
  reconciles: ``total == failure_free_cost + wasted_cost``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.simulator import ScheduleSimulator
from repro.cloud.vm import spot_variant, t2_medium
from repro.core.cost_model import CostBreakdown, breakdown_from_trace
from repro.exceptions import SpecificationError
from repro.faults import (
    CRASH,
    REVOCATION,
    BackoffPolicy,
    FaultPlan,
    FaultRates,
    SlowStart,
    SpotRevocation,
    VMFailure,
)
from repro.learning.trainer import ModelGenerator
from repro.runtime.batch import BatchScheduler
from repro.runtime.online import OnlineScheduler
from repro.sla.max_latency import MaxLatencyGoal
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import spot_revocation_scenario


def _normalized(outcome):
    """A SchedulingOutcome minus wall-clock noise, for equality assertions."""
    return (
        outcome.cost,
        outcome.query_outcomes,
        dataclasses.replace(outcome.overhead, wall_time_seconds=0.0),
        outcome.schedule,
    )


def _assert_exactly_once(outcome, workload):
    completed = sorted(o.query_id for o in outcome.query_outcomes)
    assert completed == sorted(q.query_id for q in workload)


def _assert_reconciles(cost: CostBreakdown):
    assert cost.total == pytest.approx(cost.failure_free_cost + cost.wasted_cost)


# ---------------------------------------------------------------------------
# Plan-level units
# ---------------------------------------------------------------------------


class TestBackoffPolicy:
    def test_delays_grow_exponentially_until_the_cap(self):
        policy = BackoffPolicy(base_delay=2.0, multiplier=2.0, max_delay=10.0)
        assert policy.delays(5) == (2.0, 4.0, 8.0, 10.0, 10.0)
        assert policy.total_delay(5) == pytest.approx(34.0)

    def test_every_delay_respects_the_cap(self):
        policy = BackoffPolicy(base_delay=3.0, multiplier=4.0, max_delay=60.0)
        for attempt in range(20):
            assert policy.delay_for_attempt(attempt) <= 60.0

    def test_zero_failures_mean_zero_delay(self):
        assert BackoffPolicy().total_delay(0) == 0.0

    def test_validation(self):
        with pytest.raises(SpecificationError):
            BackoffPolicy(base_delay=-1.0)
        with pytest.raises(SpecificationError):
            BackoffPolicy(multiplier=0.5)


class TestFaultPlan:
    def test_empty_plan_is_empty(self):
        assert FaultPlan.empty().is_empty
        assert FaultPlan().is_empty

    def test_zero_rates_are_empty(self):
        plan = FaultPlan(
            rates=FaultRates(
                seed=3, crash_rate=0.0, start_failure_chance=0.0, revocation_scale=0.0
            )
        )
        assert plan.is_empty

    def test_any_event_or_active_rate_is_not_empty(self):
        assert not FaultPlan(events=(VMFailure(at=5.0, vm_index=0),)).is_empty
        assert not FaultPlan.from_rates(seed=0, crash_rate=0.1).is_empty
        assert not FaultPlan.from_rates(seed=0).is_empty  # revocation_scale=1

    def test_profile_for_is_pure(self):
        plan = FaultPlan.from_rates(
            seed=11, crash_rate=2.0, start_failure_chance=0.3
        )
        vm = t2_medium()
        assert plan.profile_for(4, vm, 100.0) == plan.profile_for(4, vm, 100.0)

    def test_explicit_event_is_clamped_to_provision_time(self):
        plan = FaultPlan(events=(VMFailure(at=5.0, vm_index=0),))
        profile = plan.profile_for(0, t2_medium(), provision_time=50.0)
        assert profile.fail_time == 50.0
        assert profile.fail_kind == CRASH

    def test_earliest_explicit_event_wins(self):
        plan = FaultPlan(
            events=(
                SpotRevocation(at=40.0, vm_index=1),
                VMFailure(at=20.0, vm_index=1),
            )
        )
        profile = plan.profile_for(1, t2_medium(), provision_time=0.0)
        assert profile.fail_time == 20.0
        assert profile.fail_kind == CRASH

    def test_slow_starts_aggregate(self):
        plan = FaultPlan(
            events=(
                SlowStart(vm_index=2, delay=10.0, start_failures=1),
                SlowStart(vm_index=2, delay=5.0, start_failures=1),
            )
        )
        profile = plan.profile_for(2, t2_medium(), provision_time=0.0)
        assert profile.startup_delay == 15.0
        assert profile.start_failures == 2
        backoff = plan._backoff
        assert plan.provisioning_delay(profile) == pytest.approx(
            15.0 + backoff.total_delay(2)
        )

    def test_revocations_only_hit_spot_types(self):
        plan = FaultPlan.from_rates(seed=9)  # revocation_scale=1, nothing else
        on_demand = plan.profile_for(0, t2_medium(), 0.0)
        assert on_demand.fail_time is None
        spot = plan.profile_for(0, spot_variant(t2_medium(), revocation_rate=50.0), 0.0)
        assert spot.fail_time is not None
        assert spot.fail_kind == REVOCATION

    def test_rate_draws_beyond_horizon_are_dropped(self):
        plan = FaultPlan.from_rates(seed=9, horizon=1e-6)
        spot = spot_variant(t2_medium(), revocation_rate=50.0)
        assert plan.profile_for(0, spot, 0.0).fail_time is None

    def test_event_validation(self):
        with pytest.raises(SpecificationError):
            VMFailure(at=-1.0, vm_index=0)
        with pytest.raises(SpecificationError):
            SpotRevocation(at=1.0, vm_index=-1)
        with pytest.raises(SpecificationError):
            SlowStart(vm_index=0, delay=-5.0)


# ---------------------------------------------------------------------------
# Simulator integration (the simulator is fault-free: it never wastes spend)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def batch_schedule(trained_max, small_workload):
    return BatchScheduler(trained_max.model).schedule(small_workload)


class TestSimulatorFaults:
    def test_fault_free_breakdown_keeps_zero_waste(
        self, batch_schedule, latency_model, max_goal
    ):
        simulator = ScheduleSimulator(latency_model)
        cost = breakdown_from_trace(
            batch_schedule, simulator.run(batch_schedule), max_goal
        )
        assert cost.wasted_cost == 0.0
        assert cost.total == pytest.approx(cost.failure_free_cost)


# ---------------------------------------------------------------------------
# Online scheduler integration
# ---------------------------------------------------------------------------


def _online(training, generator, plan=None):
    return OnlineScheduler(
        training, generator, wait_resolution=60.0, fault_plan=plan
    )


@pytest.fixture(scope="module")
def arrival_workload(small_templates):
    """Nine arrivals 45 s apart from this module's own seeded generator, so the
    stream does not depend on which tests drew from a shared one first."""
    generator = WorkloadGenerator(small_templates, seed=43)
    return generator.with_fixed_arrivals(generator.uniform(9), delay=45.0)


class TestOnlineFaults:
    @pytest.mark.parametrize(
        "kind", ["max", "per_query", "average", "percentile"]
    )
    def test_empty_plan_is_bit_identical_for_every_goal(
        self, kind, all_trained, model_generator, arrival_workload
    ):
        training = all_trained[kind]
        clean = _online(training, model_generator).run(arrival_workload)
        empty = _online(training, model_generator, FaultPlan.empty()).run(
            arrival_workload
        )
        assert _normalized(clean) == _normalized(empty)

    def test_fixed_seed_is_fully_reproducible(
        self, trained_max, model_generator, arrival_workload
    ):
        plan = FaultPlan.from_rates(seed=21, crash_rate=8.0)
        runs = [
            _online(trained_max, model_generator, plan).run(arrival_workload)
            for _ in range(2)
        ]
        assert _normalized(runs[0]) == _normalized(runs[1])
        assert runs[0].overhead.vm_failures > 0

    def test_explicit_failure_requeues_and_completes(
        self, trained_max, model_generator, arrival_workload
    ):
        plan = FaultPlan(events=(VMFailure(at=100.0, vm_index=0),))
        outcome = _online(trained_max, model_generator, plan).run(arrival_workload)
        _assert_exactly_once(outcome, arrival_workload)
        assert outcome.overhead.vm_failures == 1
        assert outcome.overhead.requeues >= 1
        assert outcome.cost.wasted_startup_cost > 0.0
        _assert_reconciles(outcome.cost)

    def test_start_failures_count_as_retries_with_capped_backoff(
        self, trained_max, model_generator, arrival_workload
    ):
        backoff = BackoffPolicy(base_delay=2.0, multiplier=2.0, max_delay=4.0)
        plan = FaultPlan(
            events=(SlowStart(vm_index=0, start_failures=5),), backoff=backoff
        )
        outcome = _online(trained_max, model_generator, plan).run(arrival_workload)
        _assert_exactly_once(outcome, arrival_workload)
        assert outcome.overhead.retries == 5
        # 2 + 4 + 4 + 4 + 4: the cap bounds every retry past the second.
        first_start = min(
            o.start_time for o in outcome.query_outcomes if o.vm_index == 0
        )
        clean = _online(trained_max, model_generator).run(arrival_workload)
        clean_first = min(
            o.start_time for o in clean.query_outcomes if o.vm_index == 0
        )
        assert first_start == pytest.approx(clean_first + 18.0)

    @pytest.mark.parametrize("delay", [30.0, 7.5])
    def test_slow_start_shifts_the_vms_first_start(
        self, delay, trained_max, model_generator, arrival_workload
    ):
        plan = FaultPlan(events=(SlowStart(vm_index=0, delay=delay),))
        outcome = _online(trained_max, model_generator, plan).run(arrival_workload)
        _assert_exactly_once(outcome, arrival_workload)
        clean = _online(trained_max, model_generator).run(arrival_workload)
        first_start, clean_first = (
            min(o.start_time for o in run.query_outcomes if o.vm_index == 0)
            for run in (outcome, clean)
        )
        assert first_start == clean_first + delay

    def test_rescheduling_delay_lands_in_the_penalty(
        self, trained_max, model_generator, small_templates
    ):
        """A VM failure never lowers the SLA penalty below the clean run's.

        Per-query completion times are *not* monotone under a failure — the
        requeue re-bundles the queue, so an untouched query can finish
        earlier — which is why the claim is about the penalty, over the
        test's own seeded streams (not the order-dependent session generator).
        """
        plan = FaultPlan(events=(VMFailure(at=100.0, vm_index=0),))
        requeues = 0
        for seed in range(8):
            generator = WorkloadGenerator(small_templates, seed=seed)
            workload = generator.with_fixed_arrivals(generator.uniform(9), delay=45.0)
            faulty = _online(trained_max, model_generator, plan).run(workload)
            clean = _online(trained_max, model_generator).run(workload)
            assert faulty.cost.penalty_cost >= clean.cost.penalty_cost - 1e-9, seed
            _assert_exactly_once(faulty, workload)
            _assert_reconciles(faulty.cost)
            assert faulty.overhead.vm_failures == 1
            requeues += faulty.overhead.requeues
        assert requeues > 0

    def test_spot_scenario_end_to_end(self, small_templates, tiny_config):
        scenario = spot_revocation_scenario(
            small_templates, seed=3, num_queries=8, revocation_scale=20.0
        )
        generator = ModelGenerator(
            templates=scenario.templates,
            vm_types=scenario.vm_types,
            config=tiny_config,
        )
        training = generator.generate(
            MaxLatencyGoal.from_factor(small_templates, factor=2.5)
        )
        outcomes = [
            _online(training, generator, scenario.fault_plan).run(scenario.workload)
            for _ in range(2)
        ]
        assert _normalized(outcomes[0]) == _normalized(outcomes[1])
        _assert_exactly_once(outcomes[0], scenario.workload)
        _assert_reconciles(outcomes[0].cost)


# ---------------------------------------------------------------------------
# Property: exactly-once completion under arbitrary revocation streams
# ---------------------------------------------------------------------------


revocation_streams = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1200.0, allow_nan=False),
        st.integers(min_value=0, max_value=6),
    ),
    max_size=6,
)


class TestExactlyOnceProperty:
    @pytest.mark.parametrize(
        "kind", ["max", "per_query", "average", "percentile"]
    )
    @given(stream=revocation_streams, data=st.data())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_query_completes_exactly_once(
        self, kind, stream, data, all_trained, model_generator, arrival_workload
    ):
        events = tuple(
            SpotRevocation(at=at, vm_index=vm_index) for at, vm_index in stream
        )
        maybe_slow = data.draw(
            st.one_of(
                st.none(),
                st.builds(
                    SlowStart,
                    vm_index=st.integers(min_value=0, max_value=3),
                    delay=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
                    start_failures=st.integers(min_value=0, max_value=3),
                ),
            )
        )
        if maybe_slow is not None:
            events = events + (maybe_slow,)
        plan = FaultPlan(events=events)
        outcome = _online(all_trained[kind], model_generator, plan).run(
            arrival_workload
        )
        _assert_exactly_once(outcome, arrival_workload)
        _assert_reconciles(outcome.cost)
        assert outcome.overhead.requeues >= outcome.overhead.vm_failures
