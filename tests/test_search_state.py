"""Scheduling-graph states as the tests rebuild them from a node's path.

The search keeps no partial schedule on its nodes; ``tests/oracles.py``
rebuilds the paper's state, ``(vms, remaining)`` in plain tuples, by
replaying a path through checked transitions.
"""

from __future__ import annotations

import pytest

from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import single_vm_type_catalog
from repro.search.astar import astar_search
from repro.search.problem import SchedulingProblem
from repro.workloads.workload import Workload
from oracles import initial_state, state_of, with_new_vm, with_placement


def test_initial_state_drops_zeros_and_sorts():
    assert initial_state({"T2": 1, "B": 0, "T1": 2}) == ((), (("T1", 2), ("T2", 1)))


def test_with_new_vm():
    vms, remaining = with_new_vm(initial_state({"T1": 1}), "t2.medium")
    assert vms == (("t2.medium", ()),)
    assert remaining == (("T1", 1),)


def test_with_placement_decrements_remaining():
    vms, remaining = with_placement(with_new_vm(initial_state({"T1": 2}), "vm"), "T1")
    assert remaining == (("T1", 1),)
    assert vms == (("vm", ("T1",)),)


def test_goal_state_after_all_placements():
    state = with_new_vm(initial_state({"T1": 1, "T2": 1}), "vm")
    vms, remaining = with_placement(with_placement(state, "T1"), "T2")
    assert remaining == ()
    assert vms == (("vm", ("T1", "T2")),)


def test_placement_without_vm_rejected():
    with pytest.raises(ValueError):
        with_placement(initial_state({"T1": 1}), "T1")


def test_placement_of_absent_template_rejected():
    state = with_new_vm(initial_state({"T1": 1}), "vm")
    with pytest.raises(ValueError):
        with_placement(state, "T2")


def test_state_of_a_goal_node_is_the_schedule_the_search_reads_off_its_path(
    small_templates, max_goal
):
    workload = Workload.from_counts(small_templates, {"T1": 2, "T2": 1})
    problem = SchedulingProblem.for_workload(
        workload, single_vm_type_catalog(), max_goal, TemplateLatencyModel(small_templates)
    )
    result = astar_search(problem)
    assert state_of(result.goal_node, problem.template_counts) == (tuple(result.vms()), ())
    assert state_of(problem.initial_node(), problem.template_counts) == initial_state(
        {"T1": 2, "T2": 1}
    )
