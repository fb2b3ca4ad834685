"""Scheduling-graph construction and the pluggable search engine (Section 4.3).

The package splits into the graph (``state``/``actions``/``problem``), the
exact A* core (``astar``), and the pluggable layers extracted from it: search
*strategies* (``strategy`` — exact A*, weighted A*, beam) and the A*
*cost-to-go bounds* (``bounds`` — the provisioning bound of the monotonic
goals, and for the others the memoized default and the tighter
busy-time-aware bound), both selectable per tenant through
:class:`~repro.config.TrainingConfig`.
"""

from repro.search.actions import Action, PlaceQuery, ProvisionVM, action_from_label
from repro.search.astar import SearchResult, astar_search
from repro.search.bounds import (
    FUTURE_COST_BOUNDS,
    FutureCostBound,
    MemoizedGoalBound,
    TightFutureCostBound,
    create_future_bound,
    register_future_cost_bound,
    registered_future_cost_bounds,
)
from repro.search.optimal import (
    OptimalScheduleResult,
    find_optimal_schedule,
    schedule_from_state,
)
from repro.search.problem import LatencyOutcome, SchedulingProblem, SearchNode
from repro.search.state import SearchState, counts_from_templates, freeze_counts
from repro.search.strategy import (
    SEARCH_STRATEGIES,
    AStarStrategy,
    BeamSearchStrategy,
    SearchStrategy,
    WeightedAStarStrategy,
    register_search_strategy,
    registered_search_strategies,
    strategy_from_spec,
)

__all__ = [
    "Action",
    "AStarStrategy",
    "BeamSearchStrategy",
    "FUTURE_COST_BOUNDS",
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
    "SearchState",
    "SearchStrategy",
    "TightFutureCostBound",
    "WeightedAStarStrategy",
    "action_from_label",
    "astar_search",
    "counts_from_templates",
    "create_future_bound",
    "find_optimal_schedule",
    "freeze_counts",
    "register_future_cost_bound",
    "register_search_strategy",
    "registered_future_cost_bounds",
    "registered_search_strategies",
    "schedule_from_state",
    "strategy_from_spec",
]
