"""The discrete-event schedule simulator."""

from __future__ import annotations

import pytest

from repro import units
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.simulator import ExecutionTrace, ScheduleSimulator, VMRental
from repro.cloud.vm import t2_medium
from repro.core.outcome import QueryOutcome
from repro.core.schedule import Schedule, VMAssignment
from repro.workloads.query import Query


@pytest.fixture()
def simulator(small_templates):
    return ScheduleSimulator(TemplateLatencyModel(small_templates))


def _schedule(*queues):
    """Build a schedule from tuples of template names (one tuple per VM)."""
    return Schedule(
        VMAssignment(t2_medium(), tuple(Query(template_name=name) for name in queue))
        for queue in queues
    )


def test_single_vm_serial_execution(simulator):
    schedule = _schedule(("T1", "T2", "T3"))
    trace = simulator.run(schedule)
    completions = [o.completion_time for o in trace.outcomes]
    assert completions == [
        units.minutes(1),
        units.minutes(3),
        units.minutes(7),
    ]


def test_parallel_vms_independent_clocks(simulator):
    schedule = _schedule(("T3",), ("T1",))
    trace = simulator.run(schedule)
    by_vm = {o.vm_index: o.completion_time for o in trace.outcomes}
    assert by_vm[0] == units.minutes(4)
    assert by_vm[1] == units.minutes(1)


def test_latency_equals_completion_for_batch(simulator):
    schedule = _schedule(("T2", "T2"))
    trace = simulator.run(schedule)
    assert [o.latency for o in trace.outcomes] == [units.minutes(2), units.minutes(4)]


def test_arrival_time_delays_start(simulator, small_templates):
    late = Query(template_name="T1", arrival_time=units.minutes(5))
    schedule = Schedule([VMAssignment(t2_medium(), (late,))])
    trace = simulator.run(schedule)
    outcome = trace.outcomes[0]
    assert outcome.start_time == units.minutes(5)
    assert outcome.latency == units.minutes(1)
    assert outcome.start_time == outcome.arrival_time


def test_busy_time_accounting(simulator):
    schedule = _schedule(("T1", "T2"), ("T3",))
    trace = simulator.run(schedule)
    assert trace.rentals[0].busy_time == pytest.approx(units.minutes(3))
    assert trace.rentals[1].busy_time == pytest.approx(units.minutes(4))
    assert trace.rentals[0].release_time == pytest.approx(units.minutes(3))
    # An idle VM bills a float zero, not sum([])'s int 0.
    (idle,) = simulator.run(_schedule(())).rentals
    assert (idle.release_time, idle.busy_time) == (0.0, 0.0)
    assert type(idle.busy_time) is float


def test_outcomes_by_vm(simulator):
    schedule = _schedule(("T1",), ("T2", "T3"))
    trace = simulator.run(schedule)
    assert len(trace.outcomes_by_vm[0]) == 1
    assert len(trace.outcomes_by_vm[1]) == 2
    assert 2 not in trace.outcomes_by_vm


def test_empty_schedule(simulator):
    trace = simulator.run(Schedule(()))
    assert trace.outcomes == ()
    assert trace.rentals == ()


def test_run_gives_the_plain_trace(simulator):
    # Spelled out field by field: every VM is provisioned at 0, a query
    # starts at the later of its arrival and its predecessor's completion.
    late = Query(template_name="T1", arrival_time=units.minutes(9))
    first, second = Query(template_name="T2"), Query(template_name="T3")
    vm_type = t2_medium()
    schedule = Schedule(
        [VMAssignment(vm_type, (first, second)), VMAssignment(vm_type, (late,))]
    )

    def outcome(query, vm_index, began, ran):
        return QueryOutcome(
            query_id=query.query_id,
            template_name=query.template_name,
            vm_index=vm_index,
            vm_type_name=vm_type.name,
            arrival_time=query.arrival_time,
            start_time=began,
            completion_time=began + ran,
            execution_time=ran,
        )

    def rental(vm_index, release, busy):
        return VMRental(
            vm_index=vm_index,
            vm_type_name=vm_type.name,
            startup_cost=vm_type.startup_cost,
            release_time=release,
            busy_time=busy,
        )

    expected = ExecutionTrace(
        outcomes=(
            outcome(first, 0, 0.0, units.minutes(2)),
            outcome(second, 0, units.minutes(2), units.minutes(4)),
            outcome(late, 1, units.minutes(9), units.minutes(1)),
        ),
        rentals=(
            rental(0, units.minutes(6), units.minutes(6)),
            rental(1, units.minutes(10), units.minutes(1)),
        ),
    )
    assert simulator.run(schedule) == expected
