"""The IaaS cloud substrate: VM types, latency models, and the execution simulator."""

from repro.cloud.latency import (
    LatencyModel,
    PerturbedLatencyModel,
    QueryLatencyPredictor,
    TemplateLatencyModel,
)
from repro.cloud.simulator import (
    ExecutionTrace,
    InterruptedQuery,
    ScheduleSimulator,
    VMRental,
    simulate,
)
from repro.cloud.vm import (
    VMType,
    VMTypeCatalog,
    single_vm_type_catalog,
    spot_variant,
    spot_vm_type_catalog,
    synthetic_vm_type_catalog,
    t2_medium,
    t2_small,
    two_vm_type_catalog,
)

__all__ = [
    "ExecutionTrace",
    "InterruptedQuery",
    "LatencyModel",
    "PerturbedLatencyModel",
    "QueryLatencyPredictor",
    "ScheduleSimulator",
    "TemplateLatencyModel",
    "VMRental",
    "VMType",
    "VMTypeCatalog",
    "simulate",
    "single_vm_type_catalog",
    "spot_variant",
    "spot_vm_type_catalog",
    "synthetic_vm_type_catalog",
    "t2_medium",
    "t2_small",
    "two_vm_type_catalog",
]
