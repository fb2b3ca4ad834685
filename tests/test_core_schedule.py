"""Schedules, VM assignments, and completeness validation."""

from __future__ import annotations

import pytest

from repro.cloud.vm import VMType, t2_medium
from repro.core.schedule import Schedule, VMAssignment
from repro.exceptions import ScheduleError, UnsupportedQueryError
from repro.workloads.query import Query
from repro.workloads.workload import Workload


def queries(*names: str) -> tuple[Query, ...]:
    return tuple(Query(template_name=name) for name in names)


def test_vm_assignment_basics():
    vm = VMAssignment(t2_medium(), queries("T1", "T2"))
    assert len(vm) == 2
    assert not vm.is_empty()
    assert vm.template_names() == ("T1", "T2")


def test_vm_assignment_rejects_unsupported_template():
    limited = VMType(name="limited", unsupported_templates={"T1"})
    with pytest.raises(UnsupportedQueryError):
        VMAssignment(limited, queries("T1"))


def test_schedule_counts():
    schedule = Schedule(
        [
            VMAssignment(t2_medium(), queries("T1", "T2")),
            VMAssignment(t2_medium(), queries("T3")),
        ]
    )
    assert schedule.num_vms() == 2
    assert schedule.num_queries() == 3
    assert len(schedule.queries()) == 3


def test_schedule_signature_ignores_query_identity():
    first = Schedule([VMAssignment(t2_medium(), queries("T1", "T2"))])
    second = Schedule([VMAssignment(t2_medium(), queries("T1", "T2"))])
    assert first.signature() == second.signature()
    assert first == second
    assert hash(first) == hash(second)


def test_schedule_without_empty_vms():
    schedule = Schedule(
        [VMAssignment(t2_medium(), queries("T1")), VMAssignment(t2_medium(), ())]
    )
    cleaned = schedule.without_empty_vms()
    assert cleaned.num_vms() == 1
    assert schedule.num_vms() == 2


def test_validate_complete_accepts_exact_cover(small_templates):
    workload = Workload.from_template_names(small_templates, ["T1", "T2"])
    schedule = Schedule(
        [VMAssignment(t2_medium(), (workload[0],)), VMAssignment(t2_medium(), (workload[1],))]
    )
    schedule.validate_complete(workload)


def test_validate_complete_detects_missing(small_templates):
    workload = Workload.from_template_names(small_templates, ["T1", "T2"])
    schedule = Schedule([VMAssignment(t2_medium(), (workload[0],))])
    with pytest.raises(ScheduleError, match="missing"):
        schedule.validate_complete(workload)


def test_validate_complete_detects_duplicates(small_templates):
    workload = Workload.from_template_names(small_templates, ["T1"])
    schedule = Schedule([VMAssignment(t2_medium(), (workload[0], workload[0]))])
    with pytest.raises(ScheduleError, match="more than once"):
        schedule.validate_complete(workload)


def test_validate_complete_detects_foreign_queries(small_templates):
    workload = Workload.from_template_names(small_templates, ["T1"])
    foreign = Query(template_name="T1")
    schedule = Schedule([VMAssignment(t2_medium(), (workload[0], foreign))])
    with pytest.raises(ScheduleError, match="not part of the workload"):
        schedule.validate_complete(workload)


def test_single_vm_constructor(small_templates):
    workload = Workload.from_template_names(small_templates, ["T1", "T2", "T3"])
    schedule = Schedule.single_vm(t2_medium(), list(workload))
    assert schedule.num_vms() == 1
    schedule.validate_complete(workload)
