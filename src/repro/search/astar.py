"""A* search over the scheduling graph (Section 4.3).

The search explores :class:`~repro.search.problem.SearchNode` objects ordered
by an admissible lower bound on the cost of the best complete schedule
reachable through them.  A node holds its key and its cost so far, not its
partial schedule; the path to it determines that schedule (and therefore
its cost), so the first *goal* vertex popped from the frontier is a
minimum-cost complete schedule, which :meth:`SearchResult.vms` reads off the
goal's parent chain.

The reduced graph is a tree (every vertex has one parent; see
:mod:`repro.search.problem`), so no vertex is reached twice and the search
keeps no closed set.  The frontier holds *priced* children —
:meth:`SchedulingProblem.expand
<repro.search.problem.SchedulingProblem.expand>` computes each child's
f-value from its parent — and a child's node is built
(:meth:`~repro.search.problem.SchedulingProblem.child`) only when it is
popped.  An optional expansion budget serves the training pipeline as a
safety valve against pathological SLAs.

Every vertex's f-value is set by the problem; adaptive A* (Section 5) builds
the problem with its ``h'`` bound, so the search itself never composes
bounds.

This loop is the **exact default** of the pluggable strategy engine
(:mod:`repro.search.strategy`): :class:`~repro.search.strategy.AStarStrategy`
delegates here verbatim, and the optimality-relaxing strategies (weighted A*,
beam) live next to it in that module, all returning the same
:class:`SearchResult` shape.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import SearchBudgetExceeded, SearchError
from repro.search.actions import Action, ProvisionVM
from repro.search.problem import SchedulingProblem, SearchNode


def optimality_ratio(cost: float, cost_lower_bound: float | None) -> float:
    """``cost / lower-bound`` with the shared edge-case conventions.

    ``None`` means the result is provably optimal (ratio 1.0); a zero (or
    negative) lower bound means the bound proves nothing, so a zero-cost
    result is exact and any positive cost is unboundedly far (``inf``).
    :attr:`~repro.learning.trainer.SampleSolution.optimality_ratio` applies
    it to a search result's cost and bound.
    """
    if cost_lower_bound is None:
        return 1.0
    if cost_lower_bound <= 0.0:
        return 1.0 if cost <= 0.0 else float("inf")
    return cost / cost_lower_bound


@dataclass
class SearchResult:
    """Outcome of one search-strategy run over a scheduling graph."""

    goal_node: SearchNode
    expansions: int
    generated: int
    #: Spec of the strategy that produced the result (``"astar"`` for the
    #: exact default, ``"weighted_astar:1.5"``, ``"beam:32"``, ...).
    strategy: str = "astar"
    #: Sound lower bound on the *true* optimal cost, reported by relaxed
    #: strategies so suboptimality is never silent.  ``None`` means the
    #: result is provably optimal (``cost`` is its own bound).
    cost_lower_bound: float | None = None

    @property
    def cost(self) -> float:
        """Total cost (Equation 1) of the schedule found."""
        return self.goal_node.partial_cost

    def path(self) -> list[SearchNode]:
        """Nodes from the start vertex to the goal vertex, inclusive."""
        return self.goal_node.path()

    def vms(self) -> list[tuple[str, tuple[str, ...]]]:
        """The goal schedule: ``(VM type name, template queue)`` per VM, in provisioning order.

        Read off the path once; no node holds more of it than its key.
        """
        vms: list[tuple[str, list[str]]] = []
        for node in self.path()[1:]:
            action = node.action
            if isinstance(action, ProvisionVM):
                vms.append((action.vm_type_name, []))
            else:
                vms[-1][1].append(action.template_name)
        return [(vm_type_name, tuple(queue)) for vm_type_name, queue in vms]

    def decisions(self) -> Iterator[tuple[SearchNode, Action]]:
        """(vertex, optimal action taken at that vertex) pairs along the path.

        This is exactly the training signal of Section 4.4: each decision on
        the optimal path is labelled with the features of its origin vertex.
        """
        nodes = self.path()
        for parent, child in zip(nodes, nodes[1:]):
            assert child.action is not None
            yield parent, child.action


def astar_search(
    problem: SchedulingProblem,
    max_expansions: int | None = None,
) -> SearchResult:
    """Find a minimum-cost complete schedule for *problem*.

    Parameters
    ----------
    problem:
        The scheduling problem (workload, VM catalogue, goal, latencies).
    max_expansions:
        Abort with :class:`SearchBudgetExceeded` after expanding this many
        vertices.  ``None`` means unbounded.

    Raises
    ------
    SearchError
        If the graph contains no goal vertex (should not happen for valid input).
    SearchBudgetExceeded
        If the expansion budget is exhausted before a goal vertex is reached.
    """
    start = problem.initial_node()
    if not start.row.count:
        return SearchResult(goal_node=start, expansions=0, generated=1)

    generated = 1
    expansions = 0

    # Each priced child is its own frontier entry: it orders by f-value,
    # then fewer unassigned queries, then the most recently generated
    # (LIFO).  The cost landscape contains large plateaus (many partial
    # schedules share the same lower bound); tie-breaking never affects
    # optimality — the first goal vertex popped still has the minimum
    # f-value — but it turns plateau exploration into a dive towards a goal.
    frontier: list[tuple] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    expand = problem.expand
    child = problem.child
    budget = float("inf") if max_expansions is None else max_expansions

    node = start
    while True:
        expansions += 1
        if expansions > budget:
            raise SearchBudgetExceeded(expansions)
        for priced in expand(node):
            generated += 1
            heappush(frontier, priced)
        if not frontier:
            break
        priced = heappop(frontier)
        node = child(priced)
        if not priced[1]:
            return SearchResult(goal_node=node, expansions=expansions, generated=generated)

    raise SearchError("the scheduling graph contains no reachable goal vertex")
