"""Query templates and template sets."""

from __future__ import annotations

import pytest

from repro import units
from repro.exceptions import SpecificationError, UnknownTemplateError
from repro.workloads.templates import (
    QueryTemplate,
    TemplateSet,
    tpch_template,
    tpch_templates,
)


def test_template_requires_positive_latency():
    with pytest.raises(SpecificationError):
        QueryTemplate(name="T1", base_latency=0.0)


def test_template_requires_name():
    with pytest.raises(SpecificationError):
        QueryTemplate(name="", base_latency=10.0)


def test_template_set_rejects_duplicates():
    template = QueryTemplate(name="T1", base_latency=10.0)
    with pytest.raises(SpecificationError):
        TemplateSet([template, template])


def test_template_set_rejects_empty():
    with pytest.raises(SpecificationError):
        TemplateSet([])


def test_template_set_lookup_by_name(small_templates):
    assert small_templates["T2"].base_latency == units.minutes(2)
    assert "T2" in small_templates
    assert small_templates["T2"] in small_templates


def test_template_set_unknown_lookup(small_templates):
    with pytest.raises(UnknownTemplateError):
        small_templates["T99"]


def test_template_set_statistics(small_templates):
    assert small_templates.max_latency() == units.minutes(4)
    assert small_templates.average_latency() == pytest.approx(units.minutes(7) / 3)


def test_template_set_names_preserve_order(small_templates):
    assert small_templates.names == ("T1", "T2", "T3")


def test_closest_by_latency(small_templates):
    assert small_templates.closest_by_latency(units.minutes(1.2)).name == "T1"
    assert small_templates.closest_by_latency(units.minutes(3.5)).name == "T3"


def test_extended_adds_templates(small_templates):
    extra = QueryTemplate(name="T4", base_latency=units.minutes(8))
    extended = small_templates.extended([extra])
    assert len(extended) == 4
    assert extended["T4"].base_latency == units.minutes(8)
    # Original set is untouched.
    assert len(small_templates) == 3


def test_tpch_catalogue_latency_range():
    templates = tpch_templates(10)
    assert len(templates) == 10
    assert min(t.base_latency for t in templates) >= units.minutes(2)
    assert templates.max_latency() <= units.minutes(6)
    # Section 7.1: average latency around 4 minutes.
    assert units.minutes(3.5) <= templates.average_latency() <= units.minutes(4.5)


def test_tpch_catalogue_extends_beyond_ten():
    templates = tpch_templates(20)
    assert len(templates) == 20
    assert templates["T17"].base_latency >= units.minutes(2)
    assert templates["T17"].base_latency <= units.minutes(6)


def test_tpch_template_out_of_range():
    with pytest.raises(SpecificationError):
        tpch_template(11)
    with pytest.raises(SpecificationError):
        tpch_templates(0)


def test_template_set_equality_and_hash(small_templates):
    clone = TemplateSet(list(small_templates))
    assert clone == small_templates
    assert hash(clone) == hash(small_templates)
