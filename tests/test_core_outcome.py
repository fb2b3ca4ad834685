"""Query outcomes."""

from __future__ import annotations

import pickle

import pytest

from repro.core.outcome import QueryOutcome


def test_latency_and_wait_time():
    outcome = QueryOutcome(
        query_id=1,
        template_name="T1",
        vm_index=0,
        vm_type_name="t2.medium",
        arrival_time=10.0,
        start_time=25.0,
        completion_time=85.0,
        execution_time=60.0,
    )
    assert outcome.latency == 75.0


def test_completion_before_start_rejected():
    with pytest.raises(ValueError):
        QueryOutcome(
            query_id=1,
            template_name="T1",
            vm_index=0,
            vm_type_name="vm",
            arrival_time=0.0,
            start_time=10.0,
            completion_time=5.0,
            execution_time=1.0,
        )


def test_start_before_arrival_rejected():
    with pytest.raises(ValueError):
        QueryOutcome(
            query_id=1,
            template_name="T1",
            vm_index=0,
            vm_type_name="vm",
            arrival_time=10.0,
            start_time=5.0,
            completion_time=20.0,
            execution_time=15.0,
        )


# The record is a named tuple; every way of building one keeps both checks.
_FIELDS = dict(
    query_id=1,
    template_name="T1",
    vm_index=0,
    vm_type_name="vm",
    arrival_time=10.0,
    start_time=25.0,
    completion_time=85.0,
    execution_time=60.0,
)
_VALID = QueryOutcome(**_FIELDS)
_BROKEN = {
    "completion_time must not precede start_time": {"completion_time": 20.0},
    "start_time must not precede arrival_time": {"start_time": 5.0},
}


def _builders(values):
    return {
        "positional": lambda: QueryOutcome(*values.values()),
        "keyword": lambda: QueryOutcome(**values),
        "_make": lambda: QueryOutcome._make(values.values()),
        "_replace": lambda: _VALID._replace(**values),
    }


@pytest.mark.parametrize("message", sorted(_BROKEN))
@pytest.mark.parametrize("path", sorted(_builders(_FIELDS)))
def test_every_construction_path_checks_the_order(message, path):
    assert _builders(_FIELDS)[path]() == _VALID
    with pytest.raises(ValueError, match=message):
        _builders({**_FIELDS, **_BROKEN[message]})[path]()


def test_record_keeps_the_dataclass_surface():
    assert QueryOutcome._fields == tuple(_FIELDS)
    assert repr(_VALID) == (
        "QueryOutcome(query_id=1, template_name='T1', vm_index=0, "
        "vm_type_name='vm', arrival_time=10.0, start_time=25.0, "
        "completion_time=85.0, execution_time=60.0)"
    )
    twin = QueryOutcome(**_FIELDS)
    assert twin == _VALID and hash(twin) == hash(_VALID)
    assert _VALID != _VALID._replace(vm_index=1)
    with pytest.raises(AttributeError):
        _VALID.vm_index = 3


def test_pickle_round_trip_gives_an_equal_record():
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(_VALID, protocol=protocol))
        assert type(copy) is QueryOutcome and copy == _VALID
        assert copy.latency == 75.0
