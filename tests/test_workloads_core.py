"""Queries and workloads."""

from __future__ import annotations

import pytest

from repro.exceptions import SpecificationError, UnknownTemplateError
from repro.workloads.query import Query
from repro.workloads.workload import Workload


def test_query_ids_are_unique():
    first = Query(template_name="T1")
    second = Query(template_name="T1")
    assert first.query_id != second.query_id


def test_query_requires_template_name():
    with pytest.raises(SpecificationError):
        Query(template_name="")


def test_query_rejects_negative_arrival():
    with pytest.raises(SpecificationError):
        Query(template_name="T1", arrival_time=-1.0)


def test_query_with_arrival_time_keeps_identity():
    query = Query(template_name="T1")
    shifted = query.with_arrival_time(12.0)
    assert shifted.query_id == query.query_id
    assert shifted.arrival_time == 12.0
    assert query.arrival_time == 0.0


def test_workload_from_counts(small_templates):
    workload = Workload.from_counts(small_templates, {"T1": 2, "T3": 1})
    assert len(workload) == 3
    assert workload.template_counts() == {"T1": 2, "T3": 1}


def test_workload_rejects_unknown_template(small_templates):
    with pytest.raises(UnknownTemplateError):
        Workload(small_templates, [Query(template_name="T9")])
    with pytest.raises(UnknownTemplateError):
        Workload.from_counts(small_templates, {"T9": 1})


def test_workload_rejects_negative_count(small_templates):
    with pytest.raises(SpecificationError):
        Workload.from_counts(small_templates, {"T1": -1})


def test_workload_sorted_by_latency(small_templates):
    workload = Workload.from_template_names(small_templates, ["T3", "T1", "T2"])
    ascending = workload.sorted_by_latency()
    assert [q.template_name for q in ascending] == ["T1", "T2", "T3"]
    descending = workload.sorted_by_latency(descending=True)
    assert [q.template_name for q in descending] == ["T3", "T2", "T1"]


def test_workload_extended(small_templates):
    workload = Workload.from_template_names(small_templates, ["T1"])
    extended = workload.extended([Query(template_name="T2")])
    assert len(extended) == 2
    assert len(workload) == 1


def test_workload_indexing(small_templates):
    workload = Workload.from_template_names(small_templates, ["T1", "T2"])
    assert workload[0].template_name == "T1"
    assert workload[1].template_name == "T2"
