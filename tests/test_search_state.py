"""Scheduling-graph vertices."""

from __future__ import annotations

import pytest

from repro.search.state import SearchState, freeze_counts


def test_initial_state():
    state = SearchState.initial({"T1": 2, "T2": 1})
    assert state.num_vms() == 0
    assert state.remaining == (("T1", 2), ("T2", 1))
    assert not state.is_goal()
    assert state.last_vm() is None


def test_freeze_counts_drops_zeros_and_sorts():
    frozen = freeze_counts({"B": 0, "A": 2, "C": 1})
    assert frozen == (("A", 2), ("C", 1))


def test_with_new_vm():
    state = SearchState.initial({"T1": 1}).with_new_vm("t2.medium")
    assert state.num_vms() == 1
    assert state.last_vm() == ("t2.medium", ())
    assert state.remaining == (("T1", 1),)


def test_with_placement_decrements_remaining():
    state = SearchState.initial({"T1": 2}).with_new_vm("vm").with_placement("T1")
    assert state.remaining == (("T1", 1),)
    assert state.last_vm() == ("vm", ("T1",))
    assert state.assigned_total() == 1


def test_goal_state_after_all_placements():
    state = (
        SearchState.initial({"T1": 1, "T2": 1})
        .with_new_vm("vm")
        .with_placement("T1")
        .with_placement("T2")
    )
    assert state.is_goal()
    assert state.remaining == ()


def test_placement_without_vm_rejected():
    with pytest.raises(ValueError):
        SearchState.initial({"T1": 1}).with_placement("T1")


def test_placement_of_absent_template_rejected():
    state = SearchState.initial({"T1": 1}).with_new_vm("vm")
    with pytest.raises(ValueError):
        state.with_placement("T2")


def test_states_are_hashable_and_comparable():
    first = SearchState.initial({"T1": 1}).with_new_vm("vm").with_placement("T1")
    second = SearchState.initial({"T1": 1}).with_new_vm("vm").with_placement("T1")
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_has_remaining_and_templates():
    state = SearchState.initial({"T1": 1, "T2": 2})
    assert state.has_remaining("T2")
    assert not state.has_remaining("T9")
    assert set(state.remaining_templates()) == {"T1", "T2"}


def test_describe_mentions_contents():
    state = SearchState.initial({"T1": 1}).with_new_vm("vm")
    text = state.describe()
    assert "vm" in text
    assert "T1" in text
