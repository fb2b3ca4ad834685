"""Test helpers shared by the search-layer tests."""

from __future__ import annotations


def children(problem, node):
    """The successor nodes of *node*, in ``expand`` order, each built.

    ``expand`` only prices children; a search builds the ones it pops with
    ``problem.child``, and so do the tests that step through the graph.
    """
    return [problem.child(priced) for priced in problem.expand(node)]
