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
template's latency.  Their adaptive cases start from the kind's oracle goal.

Each case also pins its *tightness*: the mean of ``f / best_below`` over the
vertices with queries left, summed over the seeds.  A bound change must show
here, in numbers, which way it moved.
"""

from __future__ import annotations

import math

import pytest

from repro.adaptive.retraining import AdaptiveBound
from repro.search.problem import SchedulingProblem
from repro.search.strategy import strategy_from_spec

from test_search_oracle import CATALOGS, GOALS, LATENCY, UNMEETABLE_GOALS, _workload
from test_search_tree import SEEDS, _problem

#: The oracle goal each unmeetable goal tightens, for its adaptive cases.
UNMEETABLE_BASE = {"max_3min": "max", "per_query_T2_T3": "per_query"}

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
}

#: The Section-5 ``h'`` needs penalties that only grow along a path; the
#: average and percentile goals' partial penalty can shrink.
INADMISSIBLE_H_PRIME = {
    ("average", "1vm"): "438 of 1,476 vertices, by up to 159.6",
    ("average", "2vm"): "6,718 of 19,080 vertices, by up to 303.3",
    ("percentile", "1vm"): "128 of 1,476 vertices, by up to 239.9",
    ("percentile", "2vm"): "1,334 of 19,080 vertices, by up to 384.0",
}


def _unmeetable_problem(kind: str, catalog: str, adaptive: bool, seed: int) -> SchedulingProblem:
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
        workload, vm_types, UNMEETABLE_GOALS[kind], LATENCY, adaptive_bound=adaptive_bound
    )


def _audit(problem: SchedulingProblem) -> tuple[int, float, list[float]]:
    """(vertices whose f exceeds the best cost below them, the worst excess,
    ``f / best_below`` of every vertex with queries left)."""
    expand, child = problem.expand, problem.child
    nodes = [problem.initial_node()]
    parents = [-1]
    index = 0
    while index < len(nodes):
        for priced in expand(nodes[index]):
            nodes.append(child(priced))
            parents.append(index)
        index += 1
    # Children follow their parent in breadth-first order, so a backward
    # sweep is a post-order pass: a vertex's best is final when it is reached.
    best = [math.inf] * len(nodes)
    violations, excess, ratios = 0, 0.0, []
    for index in range(len(nodes) - 1, -1, -1):
        node = nodes[index]
        below = best[index]
        if node.row.count:
            ratios.append(node.priority / below)
        elif node.infra_cost + node.penalty < below:
            below = node.infra_cost + node.penalty
        if node.priority > below + 1e-9:
            violations += 1
            excess = max(excess, node.priority - below)
        parent = parents[index]
        if parent >= 0 and below < best[parent]:
            best[parent] = below
    return violations, excess, ratios


def _cases():
    for kind in (*GOALS, *UNMEETABLE_GOALS):
        for catalog in CATALOGS:
            for mode in ("plain", "adaptive"):
                counts = INADMISSIBLE_H_PRIME.get((kind, catalog)) if mode == "adaptive" else None
                marks = ()
                if counts:
                    reason = f"ROADMAP finding F19: h' exceeds the best cost below at {counts}"
                    marks = pytest.mark.xfail(strict=True, reason=reason)
                yield pytest.param(kind, catalog, mode, marks=marks, id=f"{kind}-{catalog}-{mode}")


@pytest.mark.parametrize("kind,catalog,mode", _cases())
def test_no_vertex_priority_exceeds_the_best_cost_below_it(kind, catalog, mode):
    build = _unmeetable_problem if kind in UNMEETABLE_GOALS else _problem
    violations, excess, ratios = 0, 0.0, []
    for seed in SEEDS:
        found, worst, seed_ratios = _audit(build(kind, catalog, mode == "adaptive", seed))
        violations += found
        excess = max(excess, worst)
        ratios.extend(seed_ratios)
    assert violations == 0, (
        f"{violations} vertices above the best cost below them, by up to {excess:.3g}"
    )
    tightness = math.fsum(ratios) / len(ratios)
    assert tightness == pytest.approx(TIGHTNESS[kind, catalog, mode], abs=1e-4)
