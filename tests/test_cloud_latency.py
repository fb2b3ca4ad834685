"""Latency models: exact template latencies and per-query noisy predictions."""

from __future__ import annotations

import pytest

from repro import units
from repro.cloud.latency import QueryLatencyPredictor, TemplateLatencyModel
from repro.cloud.vm import VMType, t2_medium
from repro.exceptions import UnsupportedQueryError
from repro.workloads.query import Query


def test_template_latency_uses_base_latency(small_templates):
    model = TemplateLatencyModel(small_templates)
    assert model.latency("T1", t2_medium()) == units.minutes(1)


def test_template_latency_applies_speed_factor(small_templates):
    slow = VMType(name="slow", default_speed_factor=2.0)
    model = TemplateLatencyModel(small_templates)
    assert model.latency("T2", slow) == units.minutes(4)


def test_template_latency_respects_per_template_factor(small_templates):
    mixed = VMType(name="mixed", speed_factors={"T3": 1.5})
    model = TemplateLatencyModel(small_templates)
    assert model.latency("T3", mixed) == pytest.approx(units.minutes(6))
    assert model.latency("T1", mixed) == units.minutes(1)


def test_unsupported_template_raises(small_templates):
    limited = VMType(name="limited", unsupported_templates={"T1"})
    model = TemplateLatencyModel(small_templates)
    with pytest.raises(UnsupportedQueryError):
        model.latency("T1", limited)


def test_query_predictor_zero_error_identity(small_templates):
    predictor = QueryLatencyPredictor(small_templates, error_std=0.0, seed=3)
    query = Query(template_name="T2")
    assert predictor.predicted_latency(query) == pytest.approx(units.minutes(2))
    assert predictor.perceived_template(query) == "T2"
    assert predictor.misassignment_rate([query]) == 0.0


def test_query_predictor_caches_per_query(small_templates):
    predictor = QueryLatencyPredictor(small_templates, error_std=0.3, seed=4)
    query = Query(template_name="T2")
    assert predictor.predicted_latency(query) == predictor.predicted_latency(query)


def test_query_predictor_misassignment_grows_with_error(small_templates):
    queries = [Query(template_name="T2") for _ in range(300)]
    low = QueryLatencyPredictor(small_templates, error_std=0.05, seed=5)
    high = QueryLatencyPredictor(small_templates, error_std=0.6, seed=5)
    assert low.misassignment_rate(queries) <= high.misassignment_rate(queries)
    assert high.misassignment_rate(queries) > 0.0


def test_query_predictor_empty_misassignment(small_templates):
    predictor = QueryLatencyPredictor(small_templates, error_std=0.1, seed=6)
    assert predictor.misassignment_rate([]) == 0.0
