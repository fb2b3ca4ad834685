"""The reduced scheduling graph is a tree.

Every vertex of the reduced graph (Section 4.3) has exactly one parent: a
vertex whose most recent VM is empty was reached by provisioning that VM,
any other by placing the last query of that VM's queue.  So no two paths
reach one vertex, and a closed set would never fire; the search strategies
keep none.  This test is the proof obligation for that: it enumerates every
vertex ``expand`` reaches, with no search order at all, and asserts that no
:class:`~repro.search.state.SearchState` turns up twice.

The grid is the frozen oracle's (``test_search_oracle.py``): its seeded
workloads under the four goal kinds, both catalogues, with and without the
adaptive bound, which adds the auxiliary accumulators but must not change
which vertices exist.
"""

from __future__ import annotations

import pytest

from repro.adaptive.retraining import AdaptiveBound
from repro.search.problem import SchedulingProblem
from repro.search.strategy import strategy_from_spec

from search_helpers import children
from test_search_oracle import CATALOGS, GOALS, LATENCY, TEMPLATES, _workload

SEEDS = tuple(range(6))


def _problem(kind: str, catalog: str, adaptive: bool, seed: int) -> SchedulingProblem:
    workload = _workload(seed)
    vm_types = CATALOGS[catalog]
    old_goal = GOALS[kind]
    adaptive_bound = None
    if adaptive:
        old_cost = strategy_from_spec("astar").search(
            SchedulingProblem.for_workload(workload, vm_types, old_goal, LATENCY)
        ).cost
        adaptive_bound = AdaptiveBound(old_goal, old_cost)
    return SchedulingProblem.for_workload(
        workload,
        vm_types,
        old_goal.tightened(0.35, TEMPLATES),
        LATENCY,
        adaptive_bound=adaptive_bound,
    )


def _enumerate(problem: SchedulingProblem) -> tuple[int, int]:
    """(vertices reached, vertices whose state was reached before)."""
    seen = set()
    duplicates = 0
    stack = [problem.initial_node()]
    while stack:
        node = stack.pop()
        if node.state in seen:
            duplicates += 1
        seen.add(node.state)
        stack.extend(children(problem, node))
    return len(seen) + duplicates, duplicates


@pytest.mark.parametrize("adaptive", (False, True), ids=("plain", "adaptive"))
@pytest.mark.parametrize("catalog", CATALOGS)
@pytest.mark.parametrize("kind", GOALS)
def test_no_two_vertices_share_a_state(kind, catalog, adaptive):
    for seed in SEEDS:
        vertices, duplicates = _enumerate(_problem(kind, catalog, adaptive, seed))
        assert vertices > 1
        assert duplicates == 0, f"seed {seed}: {duplicates} of {vertices} vertices repeat a state"
