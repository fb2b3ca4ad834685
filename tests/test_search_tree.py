"""The reduced scheduling graph is a tree.

Every vertex of the reduced graph (Section 4.3) has exactly one parent: a
vertex whose most recent VM is empty was reached by provisioning that VM,
any other by placing the last query of that VM's queue.  So no two paths
reach one vertex, and a closed set would never fire; the search strategies
keep none.  This test is the proof obligation for that: it enumerates every
vertex ``expand`` reaches, with no search order at all, and asserts that no
state — the partial schedule plus the unassigned queries, rebuilt from each
vertex's path by ``oracles.state_of`` — turns up twice.

The grid is the frozen oracle's (``test_search_oracle.py``): its seeded
workloads under the four goal kinds, both catalogues, with and without the
adaptive bound, which adds the old goal's accumulator but must not change
which vertices exist.  The same enumeration is the reference for that
accumulator: at every adaptive vertex the carried ``aux_penalty`` must equal
the old goal's penalty of the vertex's outcomes, bit for bit.
"""

from __future__ import annotations

import pytest

from repro.adaptive.retraining import AdaptiveBound
from repro.search.problem import LatencyOutcome, SchedulingProblem
from repro.search.strategy import strategy_from_spec

from search_helpers import graph
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


def _aux_mismatches(enumerated, old_goal) -> int:
    """Vertices whose carried ``aux_penalty`` is not *old_goal*'s penalty of
    their outcomes, rebuilt along the enumeration (parents come first)."""
    outcomes = [()]
    mismatches = int(enumerated.aux_penalties[0] != old_goal.penalty(()))
    for index in range(1, len(enumerated.parents)):
        done = outcomes[enumerated.parents[index]]
        name = enumerated.placed[index]
        if name is not None:
            done += (LatencyOutcome(name, enumerated.finishes[index]),)
        outcomes.append(done)
        if enumerated.aux_penalties[index] != old_goal.penalty(done):
            mismatches += 1
    return mismatches


@pytest.mark.parametrize("adaptive", (False, True), ids=("plain", "adaptive"))
@pytest.mark.parametrize("catalog", CATALOGS)
@pytest.mark.parametrize("kind", GOALS)
def test_no_two_vertices_share_a_state(kind, catalog, adaptive):
    for seed in SEEDS:
        enumerated = graph(_problem, kind, catalog, adaptive, seed)
        vertices, duplicates = len(enumerated.parents), enumerated.repeated_states
        assert vertices > 1
        assert duplicates == 0, f"seed {seed}: {duplicates} of {vertices} vertices repeat a state"
        if adaptive:
            assert _aux_mismatches(enumerated, GOALS[kind]) == 0, f"seed {seed}"
