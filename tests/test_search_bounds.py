"""Every A* bound is admissible at every vertex, not only at the root.

The reduced scheduling graph is a tree (``test_search_tree.py``), so one
post-order pass over the enumerated graph gives every vertex's exact best
complete cost below it: a goal vertex's true cost (infrastructure plus
penalty), or the cheapest of its children's.  An admissible f-value never
exceeds that, so this audit asserts ``node.priority <= best_below + 1e-9`` at
every vertex.  The frozen oracle and the brute-force tests only check the
optimum a search returns, which an inadmissible bound can still reach.

The grid is ``test_search_tree.py``'s (oracle seeds 0-5, four goal kinds
tightened by 35 %, both catalogues, with and without the Section-5 adaptive
bound ``h'``) plus the two ``UNMEETABLE_GOALS``, whose deadlines sit below a
template's latency, the two ``TIGHT_PERCENTILE_GOALS``, on which the
percentile bound's completion floors bind, and the two
``TIGHT_PER_QUERY_GOALS``, on which the monotonic bound's one-machine
tardiness binds.  The unmeetable and per-query goals' adaptive cases start
from the kind's oracle goal; the percentile ones run plain only.  Both
floors are also held against the bound without them (``tests/oracles.py``):
never below it, and above it somewhere on each case.

Each case also pins its *tightness*: the mean of ``f / best_below`` over the
vertices with queries left, summed over the seeds.  A bound change must show
here, in numbers, which way it moved.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.retraining import AdaptiveBound
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import single_vm_type_catalog, two_vm_type_catalog
from repro.search import problem as problem_module
from repro.search.bounds import FutureCostBound, ProvisioningBound
from repro.search.problem import SchedulingProblem
from repro.search.strategy import strategy_from_spec
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.sla.percentile import PercentileGoal
from repro.workloads.templates import tpch_templates

from search_helpers import graph
from oracles import percentile_future_cost, provisioning_future_cost
from test_search_oracle import (
    CATALOGS,
    GOALS,
    LATENCY,
    TIGHT_PER_QUERY_GOALS,
    TIGHT_PERCENTILE_GOALS,
    UNMEETABLE_GOALS,
    _workload,
)
from test_search_tree import SEEDS, _problem

#: The oracle goal each unmeetable or tight per-query goal tightens, for its
#: adaptive cases.
EXTRA_BASE = {
    "max_3min": "max",
    "per_query_T2_T3": "per_query",
    **{kind: "per_query" for kind in TIGHT_PER_QUERY_GOALS},
}
#: The goals outside the oracle grid; the percentile ones run plain only (the
#: adaptive ``h'`` is F19's for every percentile goal).
EXTRA_GOALS = {**UNMEETABLE_GOALS, **TIGHT_PERCENTILE_GOALS, **TIGHT_PER_QUERY_GOALS}

#: (goal, catalogue, mode) -> mean f / best-below over non-goal vertices.
TIGHTNESS = {
    ("max", "1vm", "plain"): 0.9956,
    ("max", "1vm", "adaptive"): 0.9956,
    ("max", "2vm", "plain"): 0.9213,
    ("max", "2vm", "adaptive"): 0.9226,
    ("per_query", "1vm", "plain"): 0.9900,
    ("per_query", "1vm", "adaptive"): 0.9902,
    ("per_query", "2vm", "plain"): 0.9783,
    ("per_query", "2vm", "adaptive"): 0.9785,
    ("average", "1vm", "plain"): 0.9861,
    ("average", "2vm", "plain"): 0.9400,
    ("percentile", "1vm", "plain"): 0.9829,
    ("percentile", "2vm", "plain"): 0.9299,
    ("max_3min", "1vm", "plain"): 0.9997,
    ("max_3min", "1vm", "adaptive"): 0.9997,
    ("max_3min", "2vm", "plain"): 0.9583,
    ("max_3min", "2vm", "adaptive"): 0.9583,
    ("per_query_T2_T3", "1vm", "plain"): 0.9999,
    ("per_query_T2_T3", "1vm", "adaptive"): 0.9999,
    ("per_query_T2_T3", "2vm", "plain"): 0.9662,
    ("per_query_T2_T3", "2vm", "adaptive"): 0.9662,
    ("percentile_50_2min", "1vm", "plain"): 0.9870,
    ("percentile_50_2min", "2vm", "plain"): 0.9676,
    ("percentile_60_3min", "1vm", "plain"): 0.9894,
    ("percentile_60_3min", "2vm", "plain"): 0.9452,
    ("per_query_1.2x", "1vm", "plain"): 0.9887,
    ("per_query_1.2x", "1vm", "adaptive"): 0.9887,
    ("per_query_1.2x", "2vm", "plain"): 0.9306,
    ("per_query_1.2x", "2vm", "adaptive"): 0.9306,
    ("per_query_1.5x", "1vm", "plain"): 0.9901,
    ("per_query_1.5x", "1vm", "adaptive"): 0.9902,
    ("per_query_1.5x", "2vm", "plain"): 0.9311,
    ("per_query_1.5x", "2vm", "adaptive"): 0.9313,
}

#: The Section-5 ``h'`` needs penalties that only grow along a path; the
#: average and percentile goals' partial penalty can shrink.
INADMISSIBLE_H_PRIME = {
    ("average", "1vm"): "438 of 1,476 vertices, by up to 159.6",
    ("average", "2vm"): "6,718 of 19,080 vertices, by up to 303.3",
    ("percentile", "1vm"): "128 of 1,476 vertices, by up to 239.9",
    ("percentile", "2vm"): "1,334 of 19,080 vertices, by up to 384.0",
}


class _WithoutFloors(PercentileGoal):
    """A percentile goal whose cost-to-go lacks the completion floors."""

    def future_cost_lower_bound(self, state, remaining_latency_bounds, min_startup_cost):
        return percentile_future_cost(
            self,
            state,
            remaining_latency_bounds,
            min_startup_cost,
            completion_floors=False,
        )


class _WithoutTardiness(FutureCostBound):
    """The monotonic cost-to-go as it was before the one-machine tardiness."""

    def attach(self, problem) -> None:
        self._problem = problem

    def _term(self, penalty, finish, row) -> float:
        problem = self._problem
        return provisioning_future_cost(
            problem.goal,
            problem.cheapest_time,
            row.remaining,
            problem.min_startup_cost,
            penalty,
            finish,
            one_machine=False,
        )

    def placement_bound(self, parent, row, completion, penalty):
        return self._term(penalty, completion, row)

    def provision_bound(self, parent, row):
        return self._term(parent.penalty, 0.0, row)

    def node_bound(self, node, row):
        finish = node.last_vm_finish if node.last_vm_index >= 0 else None
        return self._term(node.penalty, finish, row)


def _without_tardiness_problem(kind: str, catalog: str, seed: int) -> SchedulingProblem:
    """The plain case's problem with :class:`_WithoutTardiness` as its bound."""
    with mock.patch.object(problem_module, "ProvisioningBound", _WithoutTardiness):
        if kind in EXTRA_GOALS:
            return _extra_goal_problem(kind, catalog, False, seed)
        return _problem(kind, catalog, False, seed)


def _extra_goal_problem(kind: str, catalog: str, adaptive: bool, seed: int) -> SchedulingProblem:
    workload = _workload(seed)
    vm_types = CATALOGS[catalog]
    adaptive_bound = None
    if adaptive:
        old_goal = GOALS[EXTRA_BASE[kind]]
        old_cost = strategy_from_spec("astar").search(
            SchedulingProblem.for_workload(workload, vm_types, old_goal, LATENCY)
        ).cost
        adaptive_bound = AdaptiveBound(old_goal, old_cost)
    return SchedulingProblem.for_workload(
        workload, vm_types, EXTRA_GOALS[kind], LATENCY, adaptive_bound=adaptive_bound
    )


def _without_floors_problem(kind: str, catalog: str, seed: int) -> SchedulingProblem:
    data = TIGHT_PERCENTILE_GOALS[kind].to_dict()
    goal = _WithoutFloors(data["percent"], data["deadline"], data["penalty_rate"])
    return SchedulingProblem.for_workload(_workload(seed), CATALOGS[catalog], goal, LATENCY)


def _audit(enumerated) -> tuple[int, float, list[float]]:
    """(vertices whose f exceeds the best cost below them, the worst excess,
    ``f / best_below`` of every vertex with queries left)."""
    parents, priorities, left, costs = (
        enumerated.parents,
        enumerated.priorities,
        enumerated.left,
        enumerated.costs,
    )
    # Children follow their parent in breadth-first order, so a backward
    # sweep is a post-order pass: a vertex's best is final when it is reached.
    best = [math.inf] * len(parents)
    violations, excess, ratios = 0, 0.0, []
    for index in range(len(parents) - 1, -1, -1):
        priority = priorities[index]
        below = best[index]
        if left[index]:
            ratios.append(priority / below)
        elif costs[index] < below:
            below = costs[index]
        if priority > below + 1e-9:
            violations += 1
            excess = max(excess, priority - below)
        parent = parents[index]
        if parent >= 0 and below < best[parent]:
            best[parent] = below
    return violations, excess, ratios


def _cases():
    for kind in (*GOALS, *EXTRA_GOALS):
        for catalog in CATALOGS:
            modes = ("plain",) if kind in TIGHT_PERCENTILE_GOALS else ("plain", "adaptive")
            for mode in modes:
                counts = INADMISSIBLE_H_PRIME.get((kind, catalog)) if mode == "adaptive" else None
                marks = ()
                if counts:
                    reason = f"ROADMAP finding F19: h' exceeds the best cost below at {counts}"
                    marks = pytest.mark.xfail(strict=True, reason=reason)
                yield pytest.param(kind, catalog, mode, marks=marks, id=f"{kind}-{catalog}-{mode}")


@pytest.mark.parametrize("kind,catalog,mode", _cases())
def test_no_vertex_priority_exceeds_the_best_cost_below_it(kind, catalog, mode):
    build = _extra_goal_problem if kind in EXTRA_GOALS else _problem
    violations, excess, ratios = 0, 0.0, []
    for seed in SEEDS:
        found, worst, seed_ratios = _audit(graph(build, kind, catalog, mode == "adaptive", seed))
        violations += found
        excess = max(excess, worst)
        ratios.extend(seed_ratios)
    assert violations == 0, (
        f"{violations} vertices above the best cost below them, by up to {excess:.3g}"
    )
    tightness = math.fsum(ratios) / len(ratios)
    assert tightness == pytest.approx(TIGHTNESS[kind, catalog, mode], abs=1e-4)


#: Per tight percentile goal and catalogue: exact A*'s expansions summed over
#: the seeds, without the completion floors and with them.
FLOOR_EXPANSIONS = {
    ("percentile_50_2min", "1vm"): (142, 61),
    ("percentile_50_2min", "2vm"): (818, 83),
    ("percentile_60_3min", "1vm"): (128, 82),
    ("percentile_60_3min", "2vm"): (455, 192),
}


@pytest.mark.parametrize("catalog", CATALOGS)
@pytest.mark.parametrize("kind", TIGHT_PERCENTILE_GOALS)
def test_the_completion_floors_raise_the_percentile_bound(kind, catalog):
    """Same vertices, and no f-value below the bound without the floors; some above."""
    raised, without_expansions, with_expansions = 0, 0, 0
    for seed in SEEDS:
        with_floors = graph(_extra_goal_problem, kind, catalog, False, seed).priorities
        without = graph(_without_floors_problem, kind, catalog, seed).priorities
        assert len(with_floors) == len(without)
        assert all(tight >= loose for tight, loose in zip(with_floors, without))
        raised += sum(tight > loose for tight, loose in zip(with_floors, without))
        search = strategy_from_spec("astar").search
        without_expansions += search(_without_floors_problem(kind, catalog, seed)).expansions
        with_expansions += search(_extra_goal_problem(kind, catalog, False, seed)).expansions
    assert raised > 0
    assert (without_expansions, with_expansions) == FLOOR_EXPANSIONS[kind, catalog]


_latencies = st.lists(st.floats(1.0, 1_000.0), max_size=7)


@settings(max_examples=300, deadline=None)
@given(
    percent=st.floats(1.0, 100.0),
    deadline=st.floats(1.0, 600.0),
    penalty_rate=st.floats(0.01, 10.0),
    assigned=_latencies,
    remaining=_latencies,
    min_startup_cost=st.floats(0.0, 2.0),
)
def test_the_percentile_bound_never_falls_below_the_one_without_floors(
    percent, deadline, penalty_rate, assigned, remaining, min_startup_cost
):
    """The two-pointer walks select the straight-line bound's rank, bit for
    bit, and the floors only ever raise it."""
    goal = PercentileGoal(percent, deadline, penalty_rate)
    # The goal reads its accumulator's state: the latencies so far, sorted.
    bound = goal.future_cost_lower_bound(tuple(sorted(assigned)), remaining, min_startup_cost)
    assert bound == percentile_future_cost(goal, assigned, remaining, min_startup_cost)
    assert bound >= percentile_future_cost(
        goal, assigned, remaining, min_startup_cost, completion_floors=False
    )


#: Per monotonic goal and catalogue: exact A*'s expansions summed over the
#: seeds, without the one-machine tardiness and with it.
TARDINESS_EXPANSIONS = {
    ("per_query", "1vm"): (80, 58),
    ("per_query", "2vm"): (481, 356),
    ("per_query_1.2x", "1vm"): (170, 132),
    ("per_query_1.2x", "2vm"): (747, 608),
    ("per_query_1.5x", "1vm"): (80, 58),
    ("per_query_1.5x", "2vm"): (740, 658),
}


@pytest.mark.parametrize("catalog", CATALOGS)
@pytest.mark.parametrize("kind", ["per_query", *TIGHT_PER_QUERY_GOALS])
def test_the_stacked_floor_raises_the_monotonic_bound(kind, catalog):
    """Same vertices, and no f-value below the bound without ``T1``; some above."""
    build = _extra_goal_problem if kind in EXTRA_GOALS else _problem
    raised, without_expansions, with_expansions = 0, 0, 0
    for seed in SEEDS:
        with_tardiness = graph(build, kind, catalog, False, seed).priorities
        without = graph(_without_tardiness_problem, kind, catalog, seed).priorities
        assert len(with_tardiness) == len(without)
        assert all(tight >= loose for tight, loose in zip(with_tardiness, without))
        raised += sum(tight > loose for tight, loose in zip(with_tardiness, without))
        search = strategy_from_spec("astar").search
        without_expansions += search(_without_tardiness_problem(kind, catalog, seed)).expansions
        with_expansions += search(build(kind, catalog, False, seed)).expansions
    assert raised > 0
    assert (without_expansions, with_expansions) == TARDINESS_EXPANSIONS[kind, catalog]


_TEMPLATES = tpch_templates(5)
_MONOTONIC_CATALOGS = (single_vm_type_catalog(), two_vm_type_catalog(slow_templates=["T3"]))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    per_query=st.booleans(),
    factors=st.lists(st.floats(0.5, 4.0), min_size=len(_TEMPLATES), max_size=len(_TEMPLATES)),
    penalty_rate=st.floats(0.01, 10.0),
    counts=st.lists(st.integers(0, 3), min_size=len(_TEMPLATES), max_size=len(_TEMPLATES)),
    catalog=st.sampled_from(_MONOTONIC_CATALOGS),
    penalty=st.floats(0.0, 5.0),
)
def test_the_monotonic_bound_equals_its_straight_line_oracle(
    data, per_query, factors, penalty_rate, counts, catalog, penalty
):
    """Lazy ``T1`` and its skip below the earliest deadline change nothing:
    the bound equals the eager oracle bit for bit, and never falls below the
    bound without ``T1``."""
    counts = {name: count for name, count in zip(_TEMPLATES.names, counts) if count}
    if not counts:
        counts = {_TEMPLATES.names[0]: 1}
    deadlines = {
        template.name: factor * template.base_latency
        for template, factor in zip(_TEMPLATES, factors)
    }
    if per_query:
        goal = PerQueryDeadlineGoal(deadlines, penalty_rate)
    else:
        goal = MaxLatencyGoal(max(deadlines.values()), penalty_rate)
    problem = SchedulingProblem(
        counts, _TEMPLATES, catalog, goal, TemplateLatencyModel(_TEMPLATES)
    )
    bound = ProvisioningBound()
    bound.attach(problem)
    row = problem.row(data.draw(st.integers(1, problem.initial_node().row.code)))
    finish = data.draw(st.none() | st.floats(0.0, 3 * max(deadlines.values())))
    if finish is None:
        node = SimpleNamespace(last_vm_index=-1, penalty=penalty)
        term = bound.node_bound(node, row)
    else:
        term = bound.placement_bound(None, row, finish, penalty)
    arguments = (
        goal, problem.cheapest_time, row.remaining, problem.min_startup_cost, penalty, finish
    )
    assert term == provisioning_future_cost(*arguments)
    assert term >= provisioning_future_cost(*arguments, one_machine=False)
