"""Frozen search oracle: every strategy × bound × goal kind, to the bit.

``tests/data/search_oracle.json`` was generated from the search core as it
stood before the A* lower bounds were unified behind one
:class:`~repro.search.bounds.FutureCostBound` hook, when the adaptive ``h'``
still reached the search as an ``extra_lower_bound`` callback.  Unlike
``reference_astar`` in ``test_search_strategies.py``, which calls
``problem.expand`` and so shares whatever f-values ``expand`` computes, this
file is independent of the code under test.

Each case is one seeded workload of at most six queries, searched by one
strategy (``astar``, ``weighted_astar:1.5``, ``beam:8``) under one registered
bound (``memoized``, ``tight``), one goal kind, one catalogue (``1vm``,
``2vm``), with or without an :class:`~repro.adaptive.retraining.AdaptiveBound`.
It records the cost, the expansion and generated counts, the reported lower
bound, the action labels and f-values along the returned path, and a digest
of the f-value of every vertex the strategy expanded, in order.  With an
adaptive bound, the recorded f-value is the one the frontier was ordered by:
``max(f, h')``.  Every field must match exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro import units
from repro.adaptive.retraining import AdaptiveBound
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import single_vm_type_catalog, two_vm_type_catalog
from repro.search.problem import SchedulingProblem
from repro.search.strategy import strategy_from_spec
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.sla.percentile import PercentileGoal
from repro.workloads.templates import QueryTemplate, TemplateSet
from repro.workloads.workload import Workload

ORACLE = Path(__file__).parent / "data" / "search_oracle.json"

TEMPLATES = TemplateSet(
    [
        QueryTemplate(name="T1", base_latency=units.minutes(1)),
        QueryTemplate(name="T2", base_latency=units.minutes(2)),
        QueryTemplate(name="T3", base_latency=units.minutes(4)),
    ]
)
LATENCY = TemplateLatencyModel(TEMPLATES)
CATALOGS = {
    "1vm": single_vm_type_catalog(),
    "2vm": two_vm_type_catalog(slow_templates=["T3"]),
}
GOALS = {
    "max": MaxLatencyGoal(deadline=units.minutes(6)),
    "per_query": PerQueryDeadlineGoal.from_factor(TEMPLATES, factor=2.0),
    "average": AverageLatencyGoal(deadline=units.minutes(3)),
    "percentile": PercentileGoal(percent=75.0, deadline=units.minutes(4)),
}
STRATEGIES = ("astar", "weighted_astar:1.5", "beam:8")
BOUNDS = ("memoized", "tight")
SEEDS = (0, 1)


def _workload(seed: int) -> Workload:
    rng = random.Random(seed)
    names = [rng.choice(TEMPLATES.names) for _ in range(rng.randint(4, 6))]
    return Workload.from_template_names(TEMPLATES, names)


def _case_id(strategy, bound, kind, catalog, adaptive, seed) -> str:
    return f"{strategy}|{bound}|{kind}|{catalog}|{'adaptive' if adaptive else 'plain'}|{seed}"


def _cases():
    for strategy in STRATEGIES:
        for bound in BOUNDS:
            for kind in GOALS:
                for catalog in CATALOGS:
                    for adaptive in (False, True):
                        for seed in SEEDS:
                            yield strategy, bound, kind, catalog, adaptive, seed


def _digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()


def _run(strategy, bound, kind, catalog, adaptive, seed) -> dict:
    workload = _workload(seed)
    vm_types = CATALOGS[catalog]
    old_goal = GOALS[kind]
    goal = old_goal.tightened(0.35, TEMPLATES)
    adaptive_bound = None
    if adaptive:
        old_cost = strategy_from_spec("astar").search(
            SchedulingProblem.for_workload(workload, vm_types, old_goal, LATENCY)
        ).cost
        adaptive_bound = AdaptiveBound(old_goal, old_cost)
    problem = SchedulingProblem.for_workload(
        workload, vm_types, goal, LATENCY, future_bound=bound, adaptive_bound=adaptive_bound
    )
    expanded: list[float] = []
    expand = problem.expand

    def probe(node):
        expanded.append(node.priority)
        return expand(node)

    problem.expand = probe  # type: ignore[method-assign]
    result = strategy_from_spec(strategy).search(problem)
    path = result.path()
    return {
        "cost": result.cost,
        "expansions": result.expansions,
        "generated": result.generated,
        "cost_lower_bound": result.cost_lower_bound,
        "path": [node.action.label for node in path[1:]],
        "path_f": [node.priority for node in path],
        "expanded": len(expanded),
        "expanded_f_sha256": _digest(expanded),
    }


@pytest.fixture(scope="module")
def oracle() -> dict:
    return json.loads(ORACLE.read_text())


def test_oracle_covers_the_whole_grid(oracle):
    assert sorted(oracle) == sorted(_case_id(*case) for case in _cases())


@pytest.mark.parametrize("case", list(_cases()), ids=lambda case: _case_id(*case))
def test_search_matches_frozen_oracle(case, oracle):
    assert _run(*case) == oracle[_case_id(*case)]
