"""One-pass outcome pricing: bit-identical to the straight-line version, linear work.

``ExecutionTrace.outcomes_by_vm`` groups a trace's outcomes by VM once; the
cost estimator reads that grouping, and ``breakdown_from_trace`` never does
(each VM's busy time is its rental's).
The version they replaced — filter every outcome per VM, then sum — lives on
below as the reference: the sweep and the property require *exact* equality
with it (no tolerance: per-VM sums must add the same floats in the same
order), and the work guards count attribute reads, latency-model calls and
groupings so neither a per-VM rescan nor a per-query lookup can come back
unnoticed behind a passing wall-clock.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.cloud.simulator import ExecutionTrace, ScheduleSimulator
from repro.core.cost_model import CostBreakdown, CostModel, breakdown_from_trace
from repro.core.outcome import QueryOutcome
from repro.core.scheduler import simulated_outcome
from repro.core.schedule import Schedule, VMAssignment
from repro.runtime.estimator import _attribute_costs, per_template_cost_profile
from repro.workloads.query import Query

# ---------------------------------------------------------------------------
# The straight-line reference (the implementation before the grouping)
# ---------------------------------------------------------------------------


def reference_outcomes_for_vm(trace, vm_index):
    return tuple(o for o in trace.outcomes if o.vm_index == vm_index)


def reference_breakdown(schedule, trace, goal):
    startup = execution = 0.0
    for vm_index, vm in enumerate(schedule):
        busy = sum(o.execution_time for o in reference_outcomes_for_vm(trace, vm_index))
        execution += vm.vm_type.running_cost * busy
        startup += vm.vm_type.startup_cost
    return CostBreakdown(
        startup_cost=startup,
        execution_cost=execution,
        penalty_cost=goal.penalty(trace.outcomes),
    )


def reference_per_query_costs(schedule, trace, goal):
    costs = defaultdict(float)
    for vm_index, vm in enumerate(schedule):
        outcomes = reference_outcomes_for_vm(trace, vm_index)
        if not outcomes:
            continue
        busy = sum(o.execution_time for o in outcomes)
        vm_cost = vm.vm_type.startup_cost + vm.vm_type.running_cost * busy
        for o in outcomes:
            share = o.execution_time / busy if busy > 0 else 1.0 / len(outcomes)
            costs[o.query_id] += vm_cost * share
    penalty = goal.penalty(trace.outcomes)
    if penalty > 0 and trace.outcomes:
        total_latency = sum(o.latency for o in trace.outcomes)
        for o in trace.outcomes:
            share = (
                o.latency / total_latency
                if total_latency > 0
                else 1.0 / len(trace.outcomes)
            )
            costs[o.query_id] += penalty * share
    return dict(costs)


def reference_profile(schedule, trace, goal):
    query_costs = reference_per_query_costs(schedule, trace, goal)
    totals, counts = defaultdict(float), defaultdict(int)
    for o in trace.outcomes:
        totals[o.template_name] += query_costs.get(o.query_id, 0.0)
        counts[o.template_name] += 1
    return {name: totals[name] / counts[name] for name in totals}


# ---------------------------------------------------------------------------
# Bit-identity sweep
# ---------------------------------------------------------------------------


def _random_schedule(rng, vm_types, arrivals):
    """0-8 VMs of mixed types, 0-5 queries each (an empty queue completes nothing)."""
    vms = []
    for _ in range(rng.randint(0, 8)):
        queries = tuple(
            Query(
                template_name=rng.choice(("T1", "T2", "T3")),
                arrival_time=rng.uniform(0.0, units.minutes(6)) if arrivals else 0.0,
            )
            for _ in range(rng.randint(0, 5))
        )
        vms.append(VMAssignment(rng.choice(vm_types), queries))
    return Schedule(vms)


def _cases(vm_types, count=60):
    rng = random.Random(1706)
    for _ in range(count):
        yield _random_schedule(rng, vm_types, arrivals=rng.random() < 0.5)
    yield Schedule(())


def test_one_pass_pricing_is_bit_identical_to_the_reference(
    two_type_catalog, latency_model, all_goals
):
    simulator = ScheduleSimulator(latency_model)
    seen = Counter()
    for schedule in _cases(list(two_type_catalog)):
        trace = simulator.run(schedule)
        for vm_index in range(len(schedule) + 1):  # one past the end: ()
            assert trace.outcomes_by_vm.get(vm_index, ()) == (
                reference_outcomes_for_vm(trace, vm_index)
            )
        for goal in all_goals.values():
            assert breakdown_from_trace(schedule, trace, goal) == reference_breakdown(
                schedule, trace, goal
            )
        # The sweep must reach the cases it was written for.
        seen["VM completing nothing"] += any(
            i not in trace.outcomes_by_vm for i in range(len(schedule))
        )
        seen["several VM types"] += len({vm.vm_type.name for vm in schedule}) > 1
        seen["non-zero arrivals"] += any(o.arrival_time > 0 for o in trace.outcomes)
        seen["empty schedule"] += len(schedule) == 0
    assert all(seen.values()) and len(seen) == 4, seen


def test_estimator_is_bit_identical_to_the_reference_and_simulates_once(
    two_type_catalog, latency_model, all_goals, monkeypatch
):
    runs = []
    real_run = ScheduleSimulator.run

    def counting_run(self, schedule):
        runs.append(schedule)
        return real_run(self, schedule)

    monkeypatch.setattr(ScheduleSimulator, "run", counting_run)
    for schedule in _cases(list(two_type_catalog), count=20):
        trace = ScheduleSimulator(latency_model).run(schedule)
        for goal in all_goals.values():
            assert _attribute_costs(schedule, trace, goal) == (
                reference_per_query_costs(schedule, trace, goal)
            )
            before = len(runs)
            profile = per_template_cost_profile(schedule, goal, latency_model)
            assert profile == reference_profile(schedule, trace, goal)
            assert len(runs) == before + 1


# ---------------------------------------------------------------------------
# Linear work
# ---------------------------------------------------------------------------


def test_pricing_reads_each_outcome_a_constant_number_of_times(
    latency_model, max_goal, vm_catalog, monkeypatch
):
    """400 queries on 200 VMs: no caller may scan every outcome once per VM."""
    reads = Counter()
    fields = set(QueryOutcome._fields)

    class CountingOutcome(QueryOutcome):
        def __getattribute__(self, name):
            if name in fields:
                reads[name] += 1
            return super().__getattribute__(name)

    vm_type = vm_catalog.default
    schedule = Schedule(
        VMAssignment(vm_type, (Query(template_name="T1"), Query(template_name="T3")))
        for _ in range(200)
    )
    real = ScheduleSimulator(latency_model).run(schedule)
    num_queries = len(real.outcomes)
    assert (num_queries, len(real.rentals)) == (400, 200)

    def counting_trace():
        trace = ExecutionTrace(
            outcomes=tuple(
                CountingOutcome(**{f: getattr(o, f) for f in fields})
                for o in real.outcomes
            ),
            rentals=real.rentals,
        )
        reads.clear()  # construction validates (reads) a few fields
        return trace

    def constant_reads_per_outcome():
        # A per-VM rescan reads vm_index 200 times per outcome.
        most_read = max(reads.values())
        return reads["vm_index"] == num_queries and most_read <= 4 * num_queries

    trace = counting_trace()
    assert breakdown_from_trace(schedule, trace, max_goal) == reference_breakdown(
        schedule, real, max_goal
    )
    assert constant_reads_per_outcome(), reads
    for vm_index in range(len(schedule) + 1):
        trace.outcomes_by_vm.get(vm_index)
    assert constant_reads_per_outcome(), reads  # the grouping is not rebuilt

    trace = counting_trace()
    for vm_index in range(len(schedule) + 1):
        trace.outcomes_by_vm.get(vm_index)
    assert constant_reads_per_outcome(), reads

    trace = counting_trace()
    monkeypatch.setattr(ScheduleSimulator, "run", lambda self, schedule: trace)
    assert per_template_cost_profile(schedule, max_goal, latency_model) == (
        reference_profile(schedule, real, max_goal)
    )
    assert constant_reads_per_outcome(), reads


def test_grouping_is_derived_state_not_a_field(latency_model, vm_catalog):
    schedule = Schedule([VMAssignment(vm_catalog.default, (Query(template_name="T2"),))])
    simulator = ScheduleSimulator(latency_model)
    priced, untouched = simulator.run(schedule), simulator.run(schedule)
    assert priced.outcomes_by_vm[0] == priced.outcomes
    assert priced == untouched and hash(priced) == hash(untouched)
    assert "outcomes_by_vm" not in repr(priced)


# ---------------------------------------------------------------------------
# Light pass: one latency row per VM type, busy time from the rental
# ---------------------------------------------------------------------------


def _two_queries_on_each_of_200_vms(vm_type):
    return Schedule(
        VMAssignment(vm_type, (Query(template_name="T1"), Query(template_name="T3")))
        for _ in range(200)
    )


class _CountingLatency:
    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def latency(self, template_name, vm_type):
        self.calls[vm_type.name, template_name] += 1
        return self.inner.latency(template_name, vm_type)


def test_run_asks_the_latency_model_once_per_vm_type_and_template(
    latency_model, vm_catalog
):
    schedule = _two_queries_on_each_of_200_vms(vm_catalog.default)
    counting = _CountingLatency(latency_model)
    trace = ScheduleSimulator(counting).run(schedule)
    assert len(trace.outcomes) == 400
    assert set(counting.calls.values()) == {1}, counting.calls
    assert len(counting.calls) == 2


def test_pricing_a_fault_free_trace_never_groups_outcomes(
    latency_model, max_goal, vm_catalog, monkeypatch
):
    schedule = _two_queries_on_each_of_200_vms(vm_catalog.default)
    trace = ScheduleSimulator(latency_model).run(schedule)
    assert breakdown_from_trace(schedule, trace, max_goal) == reference_breakdown(
        schedule, trace, max_goal
    )
    assert "outcomes_by_vm" not in vars(trace)

    grouped = []
    build = ExecutionTrace.outcomes_by_vm.func

    def spy(self):
        grouped.append(self)
        return build(self)

    monkeypatch.setattr(ExecutionTrace, "outcomes_by_vm", property(spy))
    priced = CostModel(latency_model).breakdown(schedule, max_goal)
    outcome = simulated_outcome("spy", schedule, max_goal, latency_model)
    assert grouped == [] and outcome.cost == priced


_random_vms = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.lists(
            st.tuples(
                st.sampled_from(("T1", "T2", "T3")),
                st.just(0.0) | st.floats(0.0, units.minutes(6)),
            ),
            max_size=5,
        ),
    ),
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(vms=_random_vms)
def test_pricing_equals_the_reference_on_random_schedules(
    two_type_catalog, latency_model, all_goals, vms
):
    vm_types = list(two_type_catalog)
    schedule = Schedule(
        VMAssignment(
            vm_types[type_index],
            tuple(Query(template_name=name, arrival_time=at) for name, at in queries),
        )
        for type_index, queries in vms
    )
    trace = ScheduleSimulator(latency_model).run(schedule)
    for goal in all_goals.values():
        assert breakdown_from_trace(schedule, trace, goal) == reference_breakdown(
            schedule, trace, goal
        )
