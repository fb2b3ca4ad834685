"""One-pass outcome pricing: bit-identical to the straight-line version, linear work.

``ExecutionTrace.outcomes_by_vm`` groups a trace's outcomes by VM once;
``outcomes_for_vm``, ``breakdown_from_trace`` and the cost estimator all read
that grouping.  The version they replaced — filter every outcome per VM, then
sum — lives on below as the reference: the sweep requires *exact* equality
with it (no tolerance: per-VM sums must add the same floats in the same
order), and the work guard counts attribute reads so a per-VM rescan cannot
come back unnoticed behind a passing wall-clock.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict

from repro import units
from repro.cloud.simulator import ExecutionTrace, ScheduleSimulator
from repro.core.cost_model import CostBreakdown, breakdown_from_trace
from repro.core.outcome import QueryOutcome
from repro.core.schedule import Schedule, VMAssignment
from repro.faults import FaultPlan, SlowStart, VMFailure
from repro.runtime.estimator import per_query_costs, per_template_cost_profile
from repro.workloads.query import Query

# ---------------------------------------------------------------------------
# The straight-line reference (the implementation before the grouping)
# ---------------------------------------------------------------------------


def reference_outcomes_for_vm(trace, vm_index):
    return tuple(o for o in trace.outcomes if o.vm_index == vm_index)


def reference_breakdown(schedule, trace, goal):
    startup = execution = wasted_startup = wasted_execution = 0.0
    for vm_index, vm in enumerate(schedule):
        busy = sum(o.execution_time for o in reference_outcomes_for_vm(trace, vm_index))
        execution += vm.vm_type.running_cost * busy
        rental = trace.rentals[vm_index]
        if rental.failed:
            wasted_startup += vm.vm_type.startup_cost
            wasted_execution += vm.vm_type.running_cost * rental.wasted_busy_time
        else:
            startup += vm.vm_type.startup_cost
    return CostBreakdown(
        startup_cost=startup,
        execution_cost=execution,
        penalty_cost=goal.penalty(trace.outcomes),
        wasted_startup_cost=wasted_startup,
        wasted_execution_cost=wasted_execution,
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


def _random_fault_plan(rng, num_vms):
    """No plan, or crashes (mid-query, at birth) and a slow start on random VMs."""
    if num_vms == 0 or rng.random() < 0.25:
        return None
    # Mid-run: some query is usually in flight, so its partial run is wasted.
    mid_run = rng.uniform(10.0, units.minutes(8))
    events = [VMFailure(at=mid_run, vm_index=rng.randrange(num_vms))]
    if rng.random() < 0.5:
        # Dies the instant it is provisioned: a VM that completes nothing.
        events.append(VMFailure(at=0.0, vm_index=rng.randrange(num_vms)))
    if rng.random() < 0.5:
        delay = rng.uniform(1.0, 90.0)
        events.append(SlowStart(vm_index=rng.randrange(num_vms), delay=delay))
    return FaultPlan(events=tuple(events))


def _cases(vm_types, count=60):
    rng = random.Random(1706)
    for _ in range(count):
        schedule = _random_schedule(rng, vm_types, arrivals=rng.random() < 0.5)
        yield (
            schedule,
            rng.choice((0.0, units.minutes(2))),
            _random_fault_plan(rng, len(schedule)),
        )
    yield Schedule.empty(), 0.0, None


def test_one_pass_pricing_is_bit_identical_to_the_reference(
    two_type_catalog, latency_model, all_goals
):
    simulator = ScheduleSimulator(latency_model)
    seen = Counter()
    for schedule, provision_time, plan in _cases(list(two_type_catalog)):
        trace = simulator.run(schedule, provision_time=provision_time, fault_plan=plan)
        for vm_index in range(len(schedule) + 1):  # one past the end: ()
            assert trace.outcomes_for_vm(vm_index) == reference_outcomes_for_vm(
                trace, vm_index
            )
        for goal in all_goals.values():
            assert breakdown_from_trace(schedule, trace, goal) == reference_breakdown(
                schedule, trace, goal
            )
        # The sweep must reach the cases it was written for.
        seen["wasted partial execution"] += trace.total_wasted_time > 0
        seen["VM completing nothing"] += any(
            not trace.outcomes_for_vm(i) for i in range(len(schedule))
        )
        seen["failed VM"] += bool(trace.failed_vm_indices)
        seen["several VM types"] += len({vm.vm_type.name for vm in schedule}) > 1
        seen["non-zero arrivals"] += any(o.arrival_time > 0 for o in trace.outcomes)
        seen["empty schedule"] += len(schedule) == 0
    assert all(seen.values()) and len(seen) == 6, seen


def test_estimator_is_bit_identical_to_the_reference_and_simulates_once(
    two_type_catalog, latency_model, all_goals, monkeypatch
):
    runs = []
    real_run = ScheduleSimulator.run

    def counting_run(self, schedule, **kwargs):
        runs.append(schedule)
        return real_run(self, schedule, **kwargs)

    monkeypatch.setattr(ScheduleSimulator, "run", counting_run)
    for schedule, _, _ in _cases(list(two_type_catalog), count=20):
        trace = ScheduleSimulator(latency_model).run(schedule)
        for goal in all_goals.values():
            assert per_query_costs(schedule, goal, latency_model) == (
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
    fields = set(QueryOutcome.__dataclass_fields__)

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
        trace.outcomes_for_vm(vm_index)
    assert constant_reads_per_outcome(), reads  # the grouping is not rebuilt

    trace = counting_trace()
    for vm_index in range(len(schedule) + 1):
        trace.outcomes_for_vm(vm_index)
    assert constant_reads_per_outcome(), reads

    trace = counting_trace()
    monkeypatch.setattr(ScheduleSimulator, "run", lambda self, schedule: trace)
    assert per_query_costs(schedule, max_goal, latency_model) == (
        reference_per_query_costs(schedule, real, max_goal)
    )
    assert constant_reads_per_outcome(), reads


def test_grouping_is_derived_state_not_a_field(latency_model, vm_catalog):
    schedule = Schedule.single_vm(vm_catalog.default, [Query(template_name="T2")])
    simulator = ScheduleSimulator(latency_model)
    priced, untouched = simulator.run(schedule), simulator.run(schedule)
    assert priced.outcomes_for_vm(0) == priced.outcomes
    assert priced == untouched and hash(priced) == hash(untouched)
    assert "outcomes_by_vm" not in repr(priced)
