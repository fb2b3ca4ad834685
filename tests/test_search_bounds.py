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
template's latency, and the two ``TIGHT_PERCENTILE_GOALS``, on which the
percentile bound's completion floors bind.  The unmeetable goals' adaptive
cases start from the kind's oracle goal; the percentile ones run plain only.
The floors are also held against the bound without them
(``tests/oracles.py``): never below it, and above it somewhere on each case.

Each case also pins its *tightness*: the mean of ``f / best_below`` over the
vertices with queries left, summed over the seeds.  A bound change must show
here, in numbers, which way it moved.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.retraining import AdaptiveBound
from repro.search.problem import SchedulingProblem
from repro.search.strategy import strategy_from_spec
from repro.sla.percentile import PercentileGoal

from search_helpers import graph
from oracles import percentile_future_cost
from test_search_oracle import (
    CATALOGS,
    GOALS,
    LATENCY,
    TIGHT_PERCENTILE_GOALS,
    UNMEETABLE_GOALS,
    _workload,
)
from test_search_tree import SEEDS, _problem

#: The oracle goal each unmeetable goal tightens, for its adaptive cases.
UNMEETABLE_BASE = {"max_3min": "max", "per_query_T2_T3": "per_query"}
#: The goals outside the oracle grid; the percentile ones run plain only (the
#: adaptive ``h'`` is F19's for every percentile goal).
EXTRA_GOALS = {**UNMEETABLE_GOALS, **TIGHT_PERCENTILE_GOALS}

#: (goal, catalogue, mode) -> mean f / best-below over non-goal vertices.
TIGHTNESS = {
    ("max", "1vm", "plain"): 0.9956,
    ("max", "1vm", "adaptive"): 0.9956,
    ("max", "2vm", "plain"): 0.9213,
    ("max", "2vm", "adaptive"): 0.9226,
    ("per_query", "1vm", "plain"): 0.9863,
    ("per_query", "1vm", "adaptive"): 0.9869,
    ("per_query", "2vm", "plain"): 0.9759,
    ("per_query", "2vm", "adaptive"): 0.9761,
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

    def future_cost_lower_bound(self, assigned_latencies, remaining_latency_bounds, min_startup_cost):
        return percentile_future_cost(
            self,
            assigned_latencies,
            remaining_latency_bounds,
            min_startup_cost,
            completion_floors=False,
        )


def _extra_goal_problem(kind: str, catalog: str, adaptive: bool, seed: int) -> SchedulingProblem:
    workload = _workload(seed)
    vm_types = CATALOGS[catalog]
    adaptive_bound = None
    if adaptive:
        old_goal = GOALS[UNMEETABLE_BASE[kind]]
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
    bound = goal.future_cost_lower_bound(assigned, remaining, min_startup_cost)
    assert bound == percentile_future_cost(goal, assigned, remaining, min_startup_cost)
    assert bound >= percentile_future_cost(
        goal, assigned, remaining, min_startup_cost, completion_floors=False
    )
