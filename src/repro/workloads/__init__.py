"""Query templates, queries, workloads, and workload generators.

This package implements the *workload specification* side of WiSeDB
(Section 2 of the paper): applications describe their workloads as a set of
query templates, and concrete workloads are batches of template instances.
"""

from repro.workloads.arrivals import (
    arrival_stream_rng,
    poisson_arrivals,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.query import Query
from repro.workloads.scenarios import SpotScenario, spot_revocation_scenario
from repro.workloads.skew import (
    chi_squared_confidence,
    chi_squared_statistic,
    proportions_to_counts,
    skewed_proportions,
)
from repro.workloads.templates import (
    QueryTemplate,
    TemplateSet,
    tpch_template,
    tpch_templates,
)
from repro.workloads.workload import Workload

__all__ = [
    "Query",
    "QueryTemplate",
    "SpotScenario",
    "TemplateSet",
    "Workload",
    "WorkloadGenerator",
    "arrival_stream_rng",
    "chi_squared_confidence",
    "chi_squared_statistic",
    "poisson_arrivals",
    "proportions_to_counts",
    "skewed_proportions",
    "spot_revocation_scenario",
    "tpch_template",
    "tpch_templates",
]
