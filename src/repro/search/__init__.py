"""Scheduling-graph construction and the pluggable search engine (Section 4.3).

The package splits into the graph (``actions``/``problem``), the exact A*
core (``astar``), and the pluggable layers extracted from it: search
*strategies* (``strategy`` — exact A*, weighted A*, beam) and the A*
*cost-to-go bounds* (``bounds`` — the provisioning bound of the monotonic
goals and the memoized goal hook of the others).  A tenant selects its
strategy through :class:`~repro.config.TrainingConfig`; the goal alone picks
the bound.

A vertex is its key, not a built partial schedule: a search node carries the
remaining multiset's row, the most recent VM's type, busy time and last
template, and the partial schedule's price so far
(:class:`~repro.search.problem.SearchNode`).  The schedule of the goal
vertex is read off its path once (:meth:`SearchResult.vms
<repro.search.astar.SearchResult.vms>`, :func:`schedule_from_state`).
"""

from repro.search.actions import Action, PlaceQuery, ProvisionVM, action_from_label
from repro.search.astar import SearchResult, astar_search
from repro.search.bounds import FutureCostBound, MemoizedGoalBound
from repro.search.optimal import (
    OptimalScheduleResult,
    find_optimal_schedule,
    schedule_from_state,
)
from repro.search.problem import LatencyOutcome, SchedulingProblem, SearchNode
from repro.search.strategy import (
    SEARCH_STRATEGIES,
    AStarStrategy,
    BeamSearchStrategy,
    SearchStrategy,
    WeightedAStarStrategy,
    register_search_strategy,
    strategy_from_spec,
)

__all__ = [
    "Action",
    "AStarStrategy",
    "BeamSearchStrategy",
    "FutureCostBound",
    "LatencyOutcome",
    "MemoizedGoalBound",
    "OptimalScheduleResult",
    "PlaceQuery",
    "ProvisionVM",
    "SEARCH_STRATEGIES",
    "SchedulingProblem",
    "SearchNode",
    "SearchResult",
    "SearchStrategy",
    "WeightedAStarStrategy",
    "action_from_label",
    "astar_search",
    "find_optimal_schedule",
    "register_search_strategy",
    "schedule_from_state",
    "strategy_from_spec",
]
