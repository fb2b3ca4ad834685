"""Test helpers shared by the search-layer tests."""

from __future__ import annotations

import functools
from array import array
from typing import NamedTuple

from repro.search.actions import PlaceQuery

from oracles import initial_state, next_state


def walk(problem, labels, visit):
    """``ProblemTables.walk`` of *labels* from *problem*'s workload, on its tables."""
    return problem._tables.walk(problem.template_counts, labels, visit)


#: A label no tables know: walked last, it makes ``ProblemTables.walk`` visit
#: a path's last vertex and then stop.
_END = "end of path"


def at_vertices(problem, nodes, visit):
    """``visit(node, vertex)`` at every node of the search path *nodes*, root first.

    *vertex* is the ``VertexStepper`` that ``ProblemTables.walk`` steps along
    the path's labels, standing where *node* stands, the last node included;
    *visit* may read it only while it runs.
    """
    labels = [node.action.label for node in nodes[1:]]
    walk(problem, [*labels, _END], lambda index, vertex: visit(nodes[index], vertex))


def at_node(problem, node, call):
    """``call(vertex)`` at the stepper vertex standing where *node* stands."""
    results = []
    at_vertices(
        problem,
        node.path(),
        lambda visited, vertex: visited is node and results.append(call(vertex)),
    )
    return results[0]


def children(problem, node):
    """The successor nodes of *node*, in ``expand`` order, each built.

    ``expand`` only prices children; a search builds the ones it pops with
    ``problem.child``, and so do the tests that step through the graph.
    """
    return [problem.child(priced) for priced in problem.expand(node)]


class Graph(NamedTuple):
    """Every vertex ``expand`` reaches from a problem's root, breadth first.

    Per vertex, root first: its parent's index (``-1`` at the root), its
    f-value, its queries left, its partial cost (infrastructure plus
    penalty), the template its edge placed (``None`` for a provisioning and
    the root), its ``last_vm_finish`` and its carried old-goal penalty.
    Children follow their parent, so a forward sweep meets every parent
    first and a backward sweep is a post-order pass.
    """

    parents: array
    priorities: array
    left: array
    costs: array
    placed: list
    finishes: array
    aux_penalties: array
    #: Vertices whose state (``oracles.state_of``: rebuilt from the actions
    #: on the vertex's path) an earlier vertex had: 0 in a tree.
    repeated_states: int


@functools.lru_cache(maxsize=None)
def graph(build, *args) -> Graph:
    """The :class:`Graph` of ``build(*args)``'s problem, memoized per case.

    The test files that audit the same grid (``test_search_tree.py``,
    ``test_search_bounds.py``) enumerate it once per session between them,
    and each still builds whatever it needs when run alone.  Only the
    per-vertex numbers are kept, not the vertices.
    """
    problem = build(*args)
    expand, child = problem.expand, problem.child
    nodes = [problem.initial_node()]
    parents = array("q", [-1])
    # Each vertex's ``oracles.state_of``, built from its parent's: the same
    # replay of the path's actions, one step per vertex.
    states = [initial_state(problem.template_counts)]
    for index, node in enumerate(nodes):
        for priced in expand(node):
            built = child(priced)
            nodes.append(built)
            parents.append(index)
            states.append(next_state(states[index], built.action))
    return Graph(
        parents,
        array("d", [node.priority for node in nodes]),
        array("q", [node.row.count for node in nodes]),
        array("d", [node.infra_cost + node.penalty for node in nodes]),
        [
            node.action.template_name if isinstance(node.action, PlaceQuery) else None
            for node in nodes
        ],
        array("d", [node.last_vm_finish for node in nodes]),
        array("d", [node.aux_penalty for node in nodes]),
        len(nodes) - len(set(states)),
    )
