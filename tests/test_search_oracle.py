"""Frozen search oracle: every strategy × goal kind, to the bit.

``tests/data/search_oracle.json`` was generated from the search core as it
stood before the A* lower bounds were unified behind one
:class:`~repro.search.bounds.FutureCostBound` hook, when the adaptive ``h'``
still reached the search as an ``extra_lower_bound`` callback.  Unlike
``reference_astar`` in ``test_search_strategies.py``, which calls
``problem.expand`` and so shares whatever f-values ``expand`` computes, this
file is independent of the code under test.

Each case is one seeded workload of at most six queries, searched by one
strategy (``astar``, ``weighted_astar:1.5``, ``beam:8``) under one goal kind,
one catalogue (``1vm``, ``2vm``), with or without an
:class:`~repro.adaptive.retraining.AdaptiveBound`.  The goal kind picks the
cost-to-go bound; case ids still name it ``memoized`` (the one the
non-monotonic goals use), as they did when a second bound was selectable.
It records the cost, the expansion and generated counts, the reported lower
bound, the action labels and f-values along the returned path, and a digest
of the f-value of every vertex the strategy expanded, in order.  With an
adaptive bound, the recorded f-value is the one the frontier was ordered by:
``max(f, h')``.  Every field must match exactly.

The same grid is also checked against brute force, which shares no code with
the search: every schedule of the workload (each split of its queries into
ordered VM queues, each queue on each VM type that supports it) is priced by
the Equation-1 :class:`~repro.core.cost_model.CostModel`.  The schedule a
strategy returns must price to the cost it reports, exact A* must find the
cheapest schedule, weighted A* must stay within its weight of it, and no
strategy may report a lower bound above it.  Exact A* must also find the
cheapest schedule under six goals whose deadlines are tight, which the
frozen grid does not hold: two unmeetable ones, two percentile goals on
which the percentile cost-to-go's completion floors bind, and two per-query
goals on which the monotonic cost-to-go's one-machine tardiness binds.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from repro import units
from repro.adaptive.retraining import AdaptiveBound
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import single_vm_type_catalog, two_vm_type_catalog
from repro.core.cost_model import CostModel
from repro.core.schedule import Schedule, VMAssignment
from repro.search.optimal import schedule_from_state
from repro.search.problem import SchedulingProblem
from repro.search.strategy import strategy_from_spec
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.sla.percentile import PercentileGoal
from repro.workloads.templates import QueryTemplate, TemplateSet
from repro.workloads.workload import Workload
from oracles import validate_complete

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
BOUNDS = ("memoized",)
SEEDS = (0, 1)
#: Goals with a deadline below a template's latency (T3 runs 4 min): a query
#: of T3, and under the per-query goal of T2 too, misses its deadline wherever
#: it is placed.  Not in the frozen grid; checked against brute force only.
UNMEETABLE_GOALS = {
    "max_3min": MaxLatencyGoal(deadline=units.minutes(3)),
    "per_query_T2_T3": PerQueryDeadlineGoal(
        {"T1": units.minutes(2), "T2": units.minutes(1.5), "T3": units.minutes(3)}
    ),
}


#: Percentile goals on which the cost-to-go's completion floors bind (no
#: remaining query finishes before its own latency, the last not before the
#: remaining work spread over the machines); their deadlines sit below T3's
#: latency too.  Not in the frozen grid; checked against brute force only.
TIGHT_PERCENTILE_GOALS = {
    "percentile_50_2min": PercentileGoal(percent=50.0, deadline=units.minutes(2)),
    "percentile_60_3min": PercentileGoal(percent=60.0, deadline=units.minutes(3)),
}

#: Per-query goals at 1.2 and 1.5 times each template's latency: a query
#: queued behind another soon misses its deadline, so the monotonic
#: cost-to-go's one-machine tardiness binds.  Not in the frozen grid; checked
#: against brute force only.
TIGHT_PER_QUERY_GOALS = {
    "per_query_1.2x": PerQueryDeadlineGoal.from_factor(TEMPLATES, factor=1.2),
    "per_query_1.5x": PerQueryDeadlineGoal.from_factor(TEMPLATES, factor=1.5),
}


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


def _run(strategy, _bound, kind, catalog, adaptive, seed) -> dict:
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
        workload, vm_types, goal, LATENCY, adaptive_bound=adaptive_bound
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


def _queue_splits(queries):
    """Every way to split *queries* into a set of non-empty ordered queues."""
    if not queries:
        yield []
        return
    first, rest = queries[0], queries[1:]
    for queues in _queue_splits(rest):
        yield [[first], *queues]
        for index, queue in enumerate(queues):
            for position in range(len(queue) + 1):
                grown = queue[:position] + [first] + queue[position:]
                yield [*queues[:index], grown, *queues[index + 1 :]]


@lru_cache(maxsize=None)
def _brute_force_optimum(kind, catalog, seed) -> float:
    return _enumerated_optimum(GOALS[kind].tightened(0.35, TEMPLATES), catalog, seed)


def _enumerated_optimum(goal, catalog, seed) -> float:
    workload = _workload(seed)
    vm_types = CATALOGS[catalog]
    cost_model = CostModel(LATENCY)
    priced: dict = {}
    for queues in _queue_splits(list(workload)):
        choices = [
            [vm for vm in vm_types if all(vm.supports(q.template_name) for q in queue)]
            for queue in queues
        ]
        for types in product(*choices):
            key = tuple(
                sorted(
                    (vm.name, tuple(q.template_name for q in queue))
                    for vm, queue in zip(types, queues)
                )
            )
            if key not in priced:
                schedule = Schedule(
                    VMAssignment(vm, tuple(queue)) for vm, queue in zip(types, queues)
                )
                priced[key] = cost_model.total_cost(schedule, goal)
    return min(priced.values())


@pytest.mark.parametrize("case", list(_cases()), ids=lambda case: _case_id(*case))
def test_search_keeps_its_guarantee_against_brute_force(case):
    strategy, _bound, kind, catalog, adaptive, seed = case
    workload = _workload(seed)
    vm_types = CATALOGS[catalog]
    goal = GOALS[kind].tightened(0.35, TEMPLATES)
    adaptive_bound = None
    if adaptive:
        old_cost = strategy_from_spec("astar").search(
            SchedulingProblem.for_workload(workload, vm_types, GOALS[kind], LATENCY)
        ).cost
        adaptive_bound = AdaptiveBound(GOALS[kind], old_cost)
    result = strategy_from_spec(strategy).search(
        SchedulingProblem.for_workload(
            workload, vm_types, goal, LATENCY, adaptive_bound=adaptive_bound
        )
    )
    schedule = schedule_from_state(result.vms(), workload, vm_types)
    validate_complete(schedule, workload)
    assert CostModel(LATENCY).total_cost(schedule, goal) == pytest.approx(
        result.cost, rel=1e-9, abs=1e-9
    )
    optimum = _brute_force_optimum(kind, catalog, seed)
    assert result.cost >= optimum - 1e-9
    if result.cost_lower_bound is not None:
        assert result.cost_lower_bound <= optimum + 1e-7
    if strategy == "astar":
        assert result.cost_lower_bound is None
        assert result.cost == pytest.approx(optimum, rel=1e-9, abs=1e-9)
    elif strategy.startswith("weighted_astar:"):
        assert result.cost <= float(strategy.partition(":")[2]) * optimum + 1e-7


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("catalog", CATALOGS)
@pytest.mark.parametrize(
    "kind", [*UNMEETABLE_GOALS, *TIGHT_PERCENTILE_GOALS, *TIGHT_PER_QUERY_GOALS]
)
def test_exact_astar_finds_the_optimum_when_a_deadline_is_below_a_latency(kind, catalog, seed):
    workload = _workload(seed)
    vm_types = CATALOGS[catalog]
    goal = {**UNMEETABLE_GOALS, **TIGHT_PERCENTILE_GOALS, **TIGHT_PER_QUERY_GOALS}[kind]
    result = strategy_from_spec("astar").search(
        SchedulingProblem.for_workload(workload, vm_types, goal, LATENCY)
    )
    schedule = schedule_from_state(result.vms(), workload, vm_types)
    validate_complete(schedule, workload)
    assert CostModel(LATENCY).total_cost(schedule, goal) == pytest.approx(
        result.cost, rel=1e-9, abs=1e-9
    )
    assert result.cost == pytest.approx(
        _enumerated_optimum(goal, catalog, seed), rel=1e-9, abs=1e-9
    )
