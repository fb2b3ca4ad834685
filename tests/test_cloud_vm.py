"""VM types and the IaaS catalogue."""

from __future__ import annotations

import pytest

from repro import config
from repro.cloud.latency import TemplateLatencyModel
from repro.exceptions import SpecificationError, UnknownVMTypeError
from repro.cloud.vm import (
    VMType,
    VMTypeCatalog,
    single_vm_type_catalog,
    synthetic_vm_type_catalog,
    t2_medium,
    t2_small,
    two_vm_type_catalog,
)
from repro.search.problem import ProblemTables


def test_t2_medium_matches_paper_prices():
    vm = t2_medium()
    assert vm.startup_cost == pytest.approx(config.DEFAULT_STARTUP_COST)
    assert vm.running_cost == pytest.approx(config.DEFAULT_RUNNING_COST)


def test_t2_small_is_cheaper_and_slower_on_big_queries():
    small = t2_small(slow_templates=["T9"])
    medium = t2_medium()
    assert small.running_cost < medium.running_cost
    assert small.speed_factor("T9") > 1.0
    assert small.speed_factor("T1") == 1.0


def test_vm_type_requires_positive_speed():
    with pytest.raises(SpecificationError):
        VMType(name="bad", default_speed_factor=0.0)


def test_vm_type_rejects_negative_costs():
    with pytest.raises(SpecificationError):
        VMType(name="bad", startup_cost=-1.0)


def test_vm_type_requires_name():
    with pytest.raises(SpecificationError):
        VMType(name="")


def test_vm_type_supports():
    vm = VMType(name="limited", unsupported_templates={"T3"})
    assert vm.supports("T1")
    assert not vm.supports("T3")


def test_vm_type_equality_is_by_name():
    assert VMType(name="a") == VMType(name="a", running_cost=1.0)
    assert VMType(name="a") != VMType(name="b")
    assert hash(VMType(name="a")) == hash(VMType(name="a", startup_cost=3.0))


def test_catalog_lookup_and_default():
    catalog = two_vm_type_catalog()
    assert catalog.default.name == "t2.medium"
    assert catalog["t2.small"].name == "t2.small"
    assert "t2.small" in catalog
    assert len(catalog) == 2


def test_catalog_unknown_lookup():
    with pytest.raises(UnknownVMTypeError):
        single_vm_type_catalog()["m5.large"]


def test_catalog_rejects_duplicates():
    with pytest.raises(SpecificationError):
        VMTypeCatalog([t2_medium(), t2_medium()])


def test_catalog_rejects_empty():
    with pytest.raises(SpecificationError):
        VMTypeCatalog([])


def test_tables_compile_which_types_run_a_template(small_templates, max_goal):
    """The one compiled form of which type runs what: ``supports_table`` per
    type in catalogue order, and a template's cheapest execution taken over
    the types that run it."""
    limited = VMType(name="limited", running_cost=0.0001, unsupported_templates={"T1"})
    catalog = VMTypeCatalog([t2_medium(), limited])
    latency_model = TemplateLatencyModel(small_templates)
    tables = ProblemTables(small_templates, catalog, max_goal, latency_model)
    assert tables.supports_table == [[True, True, True], [False, True, True]]
    medium = t2_medium()
    assert tables.cheapest_execution["T1"] == medium.running_cost * latency_model.latency(
        "T1", medium
    )


def test_synthetic_catalog_sizes():
    for count in (1, 3, 10):
        catalog = synthetic_vm_type_catalog(count)
        assert len(catalog) == count
        assert catalog.default.name == "t2.medium"


def test_synthetic_catalog_rejects_zero():
    with pytest.raises(SpecificationError):
        synthetic_vm_type_catalog(0)
