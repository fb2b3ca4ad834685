"""Scheduling-graph vertices."""

from __future__ import annotations

import pytest

from repro.search.state import SearchState, freeze_counts
from oracles import with_new_vm, with_placement


def test_initial_state():
    state = SearchState.initial({"T1": 2, "T2": 1})
    assert state.vms == ()
    assert state.remaining == (("T1", 2), ("T2", 1))
    assert not state.is_goal()
    assert state.last_vm() is None


def test_freeze_counts_drops_zeros_and_sorts():
    frozen = freeze_counts({"B": 0, "A": 2, "C": 1})
    assert frozen == (("A", 2), ("C", 1))


def test_with_new_vm():
    state = with_new_vm(SearchState.initial({"T1": 1}), "t2.medium")
    assert len(state.vms) == 1
    assert state.last_vm() == ("t2.medium", ())
    assert state.remaining == (("T1", 1),)


def test_with_placement_decrements_remaining():
    state = with_placement(with_new_vm(SearchState.initial({"T1": 2}), "vm"), "T1")
    assert state.remaining == (("T1", 1),)
    assert state.last_vm() == ("vm", ("T1",))


def test_goal_state_after_all_placements():
    state = with_new_vm(SearchState.initial({"T1": 1, "T2": 1}), "vm")
    state = with_placement(with_placement(state, "T1"), "T2")
    assert state.is_goal()
    assert state.remaining == ()


def test_placement_without_vm_rejected():
    with pytest.raises(ValueError):
        with_placement(SearchState.initial({"T1": 1}), "T1")


def test_placement_of_absent_template_rejected():
    state = with_new_vm(SearchState.initial({"T1": 1}), "vm")
    with pytest.raises(ValueError):
        with_placement(state, "T2")


def test_states_are_hashable_and_comparable():
    first = with_placement(with_new_vm(SearchState.initial({"T1": 1}), "vm"), "T1")
    second = with_placement(with_new_vm(SearchState.initial({"T1": 1}), "vm"), "T1")
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_remaining_names_and_templates():
    state = SearchState.initial({"T1": 1, "T2": 2})
    assert state.remaining_name_set() == {"T1", "T2"}
    assert set(state.remaining_templates()) == {"T1", "T2"}

