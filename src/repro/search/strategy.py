"""Pluggable search strategies over the scheduling graph.

The model-generation pipeline, the adaptive retrainer, and the evaluation
harness all bottom out in the same search; this module makes that search a
*strategy* — open-list policy, expansion order, and termination rule — chosen
per tenant instead of hard-coded:

``astar`` (the default)
    Exact A*: delegates to :func:`repro.search.astar.astar_search`, the same
    loop every prior release ran, so the default engine is bit-identical
    (f-values, expansions, generated counts, schedules) to the non-pluggable
    core — the golden-scenario digests pin this.

``weighted_astar:W``
    Weighted A* (``W >= 1``): orders the frontier by ``g + W * h`` instead of
    ``g + h``, diving towards goals at the price of optimality.  The reduced
    graph is a tree, so no vertex is reached twice and the classic guarantee
    ``cost <= W * optimal`` holds without a closed set.

``beam:K``
    Depth-synchronous beam search: every layer keeps the ``K`` best vertices
    by (admissible) f-value and expands them together.  Linear-time in the
    workload size; no optimality guarantee.

Every strategy works the way exact A* does: :meth:`SchedulingProblem.expand
<repro.search.problem.SchedulingProblem.expand>` prices a vertex's children
from the vertex alone, and a child's node is built
(:meth:`~repro.search.problem.SchedulingProblem.child`) only once the
strategy takes it up.  None keeps a closed set: the reduced graph is a tree.

Relaxed strategies never degrade silently: each
:class:`~repro.search.astar.SearchResult` carries a *sound* lower bound on
the true optimal cost (the minimum admissible f-value over every vertex the
strategy pruned or left unexpanded — one of those vertices sits on an optimal
path, and admissible f-values never overestimate), so ``cost`` over that
bound (:func:`~repro.search.astar.optimality_ratio`) bounds how far the
returned schedule can be from optimal.  The training pipeline records the
worst per-sample ratio in the model metadata.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.exceptions import SearchBudgetExceeded, SearchError, SpecificationError
from repro.search.astar import SearchResult, astar_search
from repro.search.problem import SchedulingProblem, SearchNode

_INF = float("inf")


class SearchStrategy(ABC):
    """Protocol every search strategy implements.

    Instances are small frozen dataclasses: stateless across searches,
    picklable (they cross process boundaries inside
    :class:`~repro.learning.trainer.SampleSolver`), and cheap to construct
    from their :attr:`spec` string.
    """

    #: Registry key (set by subclasses).
    name: str = "abstract"
    #: Whether the strategy guarantees a minimum-cost schedule.
    exact: bool = False

    @property
    def spec(self) -> str:
        """Canonical ``name[:param]`` string (round-trips through the registry)."""
        return self.name

    @classmethod
    def from_parameter(cls, parameter: str) -> "SearchStrategy":
        """Build an instance from a spec's ``:parameter`` suffix.

        Parameterized strategies (including externally registered ones)
        override this; the default rejects parameters so bare-name strategies
        fail loudly on ``"name:junk"`` specs.
        """
        raise SpecificationError(
            f"search strategy {cls.name!r} does not accept a parameter "
            f"({parameter!r} given)"
        )

    @abstractmethod
    def search(
        self,
        problem: SchedulingProblem,
        max_expansions: int | None = None,
    ) -> SearchResult:
        """Find a complete schedule for *problem* (see the module docstring)."""


@dataclass(frozen=True)
class AStarStrategy(SearchStrategy):
    """Exact A* — the default strategy, bit-identical to the classic core."""

    name = "astar"
    exact = True

    def search(
        self,
        problem: SchedulingProblem,
        max_expansions: int | None = None,
    ) -> SearchResult:
        return astar_search(problem, max_expansions=max_expansions)


@dataclass(frozen=True)
class WeightedAStarStrategy(SearchStrategy):
    """Weighted A*: frontier ordered by ``g + weight * h`` (``weight >= 1``)."""

    weight: float = 1.5

    name = "weighted_astar"
    exact = False

    def __post_init__(self) -> None:
        # `not (>= 1)` rather than `< 1` so NaN weights are rejected too.
        if not (self.weight >= 1.0) or self.weight == _INF:
            raise SpecificationError("weighted_astar weight must be a finite value >= 1")

    @classmethod
    def from_parameter(cls, parameter: str) -> "WeightedAStarStrategy":
        return cls(weight=float(parameter))

    @property
    def spec(self) -> str:
        return f"{self.name}:{self.weight:g}"

    def search(
        self,
        problem: SchedulingProblem,
        max_expansions: int | None = None,
    ) -> SearchResult:
        start = problem.initial_node()
        if not start.row.count:
            return SearchResult(
                goal_node=start, expansions=0, generated=1, strategy=self.spec
            )
        monotonic = problem.goal.is_monotonic
        weight = self.weight

        def weighted_f(f: float, infra: float, penalty: float) -> float:
            # g is the part of the f-value that is already paid: the full
            # partial cost for monotonic goals, infrastructure only otherwise
            # (the non-monotonic f-value excludes the partial penalty).
            g = infra + penalty if monotonic else infra
            return g + weight * (f - g)

        generated = 1
        expansions = 0
        # Entries: (weighted f, queries left, -serial, priced child).
        frontier: list[tuple] = []
        budget = _INF if max_expansions is None else max_expansions

        node = start
        while True:
            expansions += 1
            if expansions > budget:
                raise SearchBudgetExceeded(expansions)
            for priced in problem.expand(node):
                generated += 1
                heapq.heappush(
                    frontier,
                    (weighted_f(priced[0], priced[6], priced[7]), priced[1], priced[2], priced),
                )
            if not frontier:
                break
            _, left, _, priced = heapq.heappop(frontier)
            node = problem.child(priced)
            if not left:
                # Sound optimal lower bound: some vertex of an optimal path is
                # still in the frontier (or is this goal); admissible f-values
                # never overestimate, so their minimum bounds optimal from below.
                lower = node.partial_cost
                for pending in frontier:
                    pending_f = pending[3][0]
                    if pending_f < lower:
                        lower = pending_f
                return SearchResult(
                    goal_node=node,
                    expansions=expansions,
                    generated=generated,
                    strategy=self.spec,
                    # Every pending f-value at or above the goal cost proves
                    # this result optimal — report it as exact (None), so
                    # e.g. adaptive retraining keeps its Lemma-5.1 bound.
                    cost_lower_bound=lower if lower < node.partial_cost else None,
                )
        raise SearchError("the scheduling graph contains no reachable goal vertex")


@dataclass(frozen=True)
class BeamSearchStrategy(SearchStrategy):
    """Depth-synchronous beam search of bounded width."""

    width: int = 32

    name = "beam"
    exact = False

    def __post_init__(self) -> None:
        if self.width < 1:
            raise SpecificationError("beam width must be >= 1")

    @classmethod
    def from_parameter(cls, parameter: str) -> "BeamSearchStrategy":
        return cls(width=int(parameter))

    @property
    def spec(self) -> str:
        return f"{self.name}:{self.width}"

    def search(
        self,
        problem: SchedulingProblem,
        max_expansions: int | None = None,
    ) -> SearchResult:
        start = problem.initial_node()
        if not start.row.count:
            return SearchResult(
                goal_node=start, expansions=0, generated=1, strategy=self.spec
            )

        generated = 1
        expansions = 0
        budget = _INF if max_expansions is None else max_expansions
        layer: list[SearchNode] = [start]
        #: The cheapest goal child so far, and its partial cost.
        best_goal: tuple | None = None
        best_cost = _INF
        #: Priced children dropped by the width cap, kept as a heap: they
        #: back the optimal lower bound at termination, and they revive the
        #: search if a layer dead-ends before any goal is found (a
        #: provisioned VM type that supports nothing remaining has no
        #: successors, and a narrow beam can fill up with such vertices — the
        #: problem is still feasible, so beam search must backtrack rather
        #: than fail).
        reserve: list[tuple] = []

        while layer:
            children: list[tuple] = []
            for node in layer:
                expansions += 1
                if expansions > budget:
                    raise SearchBudgetExceeded(expansions)
                for priced in problem.expand(node):
                    generated += 1
                    if priced[1]:
                        children.append(priced)
                        continue
                    cost = priced[6] + priced[7]  # a goal: infrastructure + penalty
                    if best_goal is None or cost < best_cost:
                        best_goal, best_cost = priced, cost
            if len(children) > self.width:
                # Priced children order by (f, queries left, -serial) like
                # frontier entries, and never compare past the serial.
                children.sort()
                for priced in children[self.width :]:
                    heapq.heappush(reserve, priced)
                children = children[: self.width]
            if not children and best_goal is None and reserve:
                # Every beam vertex dead-ended: backtrack to the best pruned
                # vertices (completeness on feasible problems; the budget
                # still bounds total work).
                children = [
                    heapq.heappop(reserve)
                    for _ in range(min(self.width, len(reserve)))
                ]
            layer = [problem.child(priced) for priced in children]

        if best_goal is None:
            raise SearchError("beam search reached no goal vertex")
        goal_node = problem.child(best_goal)
        # Sound optimal lower bound: some optimal-path vertex was expanded all
        # the way to the (then best) goal, or still sits in the reserve.
        pruned_min = reserve[0][0] if reserve else _INF
        lower = min(goal_node.partial_cost, pruned_min)
        return SearchResult(
            goal_node=goal_node,
            expansions=expansions,
            generated=generated,
            strategy=self.spec,
            cost_lower_bound=lower if lower < goal_node.partial_cost else None,
        )


#: Registered strategies, by name.
SEARCH_STRATEGIES: dict[str, type[SearchStrategy]] = {}


def register_search_strategy(cls: type[SearchStrategy]) -> type[SearchStrategy]:
    """Class decorator adding a strategy to :data:`SEARCH_STRATEGIES`."""
    SEARCH_STRATEGIES[cls.name] = cls
    return cls


register_search_strategy(AStarStrategy)
register_search_strategy(WeightedAStarStrategy)
register_search_strategy(BeamSearchStrategy)


def strategy_from_spec(spec: "str | SearchStrategy") -> SearchStrategy:
    """Resolve a ``name[:param]`` spec (or pass an instance through).

    ``"astar"`` → :class:`AStarStrategy`; ``"weighted_astar:1.5"`` →
    :class:`WeightedAStarStrategy` with that weight; ``"beam:64"`` →
    :class:`BeamSearchStrategy` with that width.  The parameter is optional —
    bare names use the strategy's default.
    """
    if isinstance(spec, SearchStrategy):
        return spec
    name, _, parameter = str(spec).partition(":")
    try:
        cls = SEARCH_STRATEGIES[name]
    except KeyError:
        raise SpecificationError(
            f"unknown search strategy {name!r}; registered: "
            f"{', '.join(SEARCH_STRATEGIES)}"
        ) from None
    if not parameter:
        return cls()
    try:
        return cls.from_parameter(parameter)
    except ValueError as error:
        raise SpecificationError(
            f"invalid parameter in search-strategy spec {spec!r}: {error}"
        ) from None
