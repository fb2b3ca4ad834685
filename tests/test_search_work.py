"""The search's work, pinned: expansions, generated vertices and trees.

Wall time on a shared box is noise; the work a search does is not.  These
values were recorded from the search core and must not move under a change
that claims to alter only how fast the search runs:

* fresh training of each goal kind at a small seeded shape — the total
  ``expansions`` and ``generated`` over every sample search, and a digest of
  the trained tree's text;
* one deep exact search, the 18-query per-query-deadline optimum below,
  which expands tens of thousands of vertices.

On a mismatch the assertion message lists every field that moved.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import single_vm_type_catalog
from repro.config import TrainingConfig
from repro.learning.trainer import ModelGenerator
from repro.search import strategy
from repro.search.optimal import find_optimal_schedule
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.templates import tpch_templates

TEMPLATES = tpch_templates(10)
CONFIG = TrainingConfig(
    num_samples=30, queries_per_sample=8, seed=23, max_expansions=120_000
)

#: Per goal kind: summed expansions and generated vertices of the sample
#: searches, and the SHA-256 of the trained tree's ``to_text()``.
FRESH_TRAINING = {
    "max": {
        "expansions": 741,
        "generated": 1_841,
        "tree_sha256": "302f60e54757b44623a9d27f0bdd768e3c202595026227c603e0c524f58b4653",
    },
    "per_query": {
        "expansions": 3_643,
        "generated": 7_849,
        "tree_sha256": "eadac8fe665080e807fa2c52e9c55eec5ed00fb0a271a135bf9b41d13e59f225",
    },
    "average": {
        "expansions": 1_703,
        "generated": 3_773,
        "tree_sha256": "3bfc936c2f8e164ef0ea10f9e619aa94d9eb54fbb3f9b05371ea1924704b9e04",
    },
    "percentile": {
        "expansions": 1_431,
        "generated": 3_885,
        "tree_sha256": "71d60d32ae561983db25610992cda1d6fd7187326eb41152f621b1f50eefaec5",
    },
}

#: The deep case: ``find_optimal_schedule`` of 18 uniform queries.
DEEP_OPTIMUM = {"expansions": 32_888, "generated": 77_752, "cost": 7.333333333333334}


def _diff(observed: dict, expected: dict) -> str:
    return "; ".join(
        f"{field}: expected {expected[field]!r}, observed {observed[field]!r}"
        for field in expected
        if observed[field] != expected[field]
    )


@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_fresh_training_does_the_recorded_work(kind, monkeypatch):
    totals = {"expansions": 0, "generated": 0}
    search = strategy.astar_search

    def counting_search(problem, max_expansions=None):
        result = search(problem, max_expansions=max_expansions)
        totals["expansions"] += result.expansions
        totals["generated"] += result.generated
        return result

    monkeypatch.setattr(strategy, "astar_search", counting_search)
    generator = ModelGenerator(TEMPLATES, config=CONFIG)
    result = generator.generate(default_goal(kind, TEMPLATES))
    observed = {
        **totals,
        "tree_sha256": hashlib.sha256(result.model.tree.to_text().encode()).hexdigest(),
    }
    expected = FRESH_TRAINING[kind]
    assert observed == expected, _diff(observed, expected)


def test_deep_per_query_optimum_does_the_recorded_work():
    workload = WorkloadGenerator(TEMPLATES, seed=112).uniform(18)
    optimum = find_optimal_schedule(
        workload,
        single_vm_type_catalog(),
        default_goal("per_query", TEMPLATES),
        TemplateLatencyModel(TEMPLATES),
    )
    observed = {
        "expansions": optimum.search.expansions,
        "generated": optimum.search.generated,
        "cost": optimum.search.cost,
    }
    assert observed == DEEP_OPTIMUM, _diff(observed, DEEP_OPTIMUM)
