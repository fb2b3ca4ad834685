"""Feature extraction from scheduling-graph vertices (Section 4.4).

Each decision on an optimal path is described by features of the vertex at
which the decision was taken.  The paper selects five families of features,
all independent of the workload size (training workloads are small, runtime
workloads are huge) and cheap to compute:

* ``wait-time`` — how long a query placed on the most recent VM would wait
  before starting (i.e. the total execution time already queued on that VM);
* ``proportion-of-X`` — the fraction of the most recent VM's queue made up of
  template ``X``;
* ``supports-X`` — whether the most recent VM's type can process template ``X``;
* ``cost-of-X`` — the weight of the placement edge for template ``X`` out of
  this vertex (Equation 2), i.e. execution cost plus any penalty incurred;
* ``have-X`` — whether at least one query of template ``X`` is still unassigned.

The same definitions serve training (on A* vertices) and runtime (on the
scheduler's current state), so the model sees an identical representation in
both phases.  Two things make that hold.  The row has one fixed layout — all
five families, ``wait-time`` first and then one block per template — so a
model's columns never depend on how it was built (a feature ablation drops
training-set columns, not families).  And ``cost-of-X`` is priced from the
vertex alone, with one float form: a vertex carries the goal's violation
accumulator and its partial ``penalty``, and the edge costs execution cost
``+ (rate · violation-with-X − penalty)``, whether the vertex is an A* node,
the training walk's or the runtime kernel's.  The two phases do not do the
same amount of work, though.  Training
needs every column of every vertex on a path: :meth:`FeatureExtractor.matrix`
walks the path's action labels with one reusable vertex
(:meth:`SchedulingProblem.walk <repro.search.problem.SchedulingProblem.walk>`)
and writes each vertex's row in place, and it is the one caller of
:meth:`FeatureExtractor.extract_into` left in the program.  A runtime decision
reads only the columns on its tree path, so
:meth:`~repro.learning.model.DecisionModel.decide` evaluates those — the same
expressions, looked up through :attr:`FeatureExtractor.column_layout` — and
``extract_into`` is the oracle its walk is tested against
(``tests/test_vectorized_equivalence.py``).  The row itself is held against a
straight-line name → value extraction that lives only under ``tests/``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cloud.vm import VMTypeCatalog
from repro.search.problem import SchedulingProblem, SearchNode
from repro.workloads.templates import TemplateSet

#: Finite stand-in for "placement impossible" so decision-tree thresholds stay finite.
INFEASIBLE_COST = 1.0e12

_INF = float("inf")


def wait_time_feature() -> str:
    """Name of the wait-time feature."""
    return "wait_time"


def proportion_feature(template_name: str) -> str:
    """Name of the proportion-of-X feature for *template_name*."""
    return f"proportion_of[{template_name}]"


def supports_feature(template_name: str) -> str:
    """Name of the supports-X feature for *template_name*."""
    return f"supports[{template_name}]"


def cost_feature(template_name: str) -> str:
    """Name of the cost-of-X feature for *template_name*."""
    return f"cost_of[{template_name}]"


def have_feature(template_name: str) -> str:
    """Name of the have-X feature for *template_name*."""
    return f"have[{template_name}]"


#: The five families, in the order of the one row layout: ``wait_time``, then
#: per template (in name order) ``proportion_of``, ``supports``, ``cost_of``
#: and ``have``.  Every model is trained and decides on all five; an ablation
#: drops columns from a training set
#: (:meth:`~repro.learning.dataset.TrainingSet.without_features`).
FEATURE_FAMILIES: tuple[str, ...] = (
    "wait_time",
    "proportion_of",
    "supports",
    "cost_of",
    "have",
)


class FeatureExtractor:
    """Extracts the Section 4.4 feature vector from a search node."""

    def __init__(self, templates: TemplateSet, vm_types: VMTypeCatalog) -> None:
        self._templates = templates
        names = self._template_names = templates.names
        self._feature_names: tuple[str, ...] = (wait_time_feature(),) + tuple(
            feature(name)
            for name in names
            for feature in (proportion_feature, supports_feature, cost_feature, have_feature)
        )
        # Supports-X only depends on the VM type, so resolve the whole row once
        # per type instead of one supports() call per template per extraction.
        self._supports_rows: dict[str, tuple[float, ...]] = {
            vm_type.name: tuple(
                1.0 if vm_type.supports(name) else 0.0 for name in names
            )
            for vm_type in vm_types
        }
        # Column ``0`` is ``wait_time``; family ``k`` (its position in
        # FEATURE_FAMILIES) of template ``j`` lives at column ``k + 4 * j``,
        # so :meth:`extract_into` writes each family with one strided loop.
        def columns(family: str) -> tuple[int, ...]:
            rank = FEATURE_FAMILIES.index(family)
            return tuple(rank + 4 * j for j in range(len(names)))

        self._proportion_columns = columns("proportion_of")
        self._supports_columns = columns("supports")
        self._cost_columns = columns("cost_of")
        self._have_columns = columns("have")
        self._proportion_column_of = dict(zip(names, self._proportion_columns))
        # Per-column lookup for a decision, which computes a column only when
        # a tree node tests it: the family's position in FEATURE_FAMILIES and
        # the template's name and position.
        per_template = range(1, len(FEATURE_FAMILIES))
        self._column_layout: tuple[list[int], list[str], list[int]] = (
            [0] + [rank for _ in names for rank in per_template],
            [""] + [name for name in names for _ in per_template],
            [-1] + [j for j in range(len(names)) for _ in per_template],
        )

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Names of the features produced, in a stable order."""
        return self._feature_names

    @property
    def templates(self) -> TemplateSet:
        """The template universe the per-template features are defined over."""
        return self._templates

    @property
    def column_layout(self) -> tuple[list[int], list[str], list[int]]:
        """Per column: family (index into ``FEATURE_FAMILIES``), template name, template index.

        What :class:`~repro.learning.model.DecisionModel` needs to generate
        its walk, which computes one column on demand (``wait_time`` has no
        template: ``""`` and ``-1``).
        """
        return self._column_layout

    @property
    def supports_rows(self) -> dict[str, tuple[float, ...]]:
        """VM type name -> the ``supports-X`` values of that type, by template index."""
        return self._supports_rows

    def extract_into(self, node: SearchNode, problem: SchedulingProblem, out_row):
        """Write the feature vector of *node* directly into *out_row*.

        *out_row* is any preallocated mutable row of ``len(feature_names)``
        entries — a numpy float64 row (the :meth:`matrix` path) or a plain
        list.  Every column is overwritten, so the buffer needs no
        zeroing between calls.  Returns *out_row*.
        """
        state = node.state
        last = state.last_vm()
        names = self._template_names

        out_row[0] = node.last_vm_finish

        for column in self._proportion_columns:
            out_row[column] = 0.0
        if last is not None and last[1]:
            last_queue = last[1]
            queue_length = len(last_queue)
            column_of = self._proportion_column_of
            # Inline histogram: the last VM's queue is short, so a dict
            # loop beats a Counter construction per vertex.
            counts: dict[str, int] = {}
            counts_get = counts.get
            for name in last_queue:
                counts[name] = counts_get(name, 0) + 1
            for name, count in counts.items():
                out_row[column_of[name]] = count / queue_length

        if last is not None:
            for column, value in zip(self._supports_columns, self._supports_rows[last[0]]):
                out_row[column] = value
        else:
            for column in self._supports_columns:
                out_row[column] = 0.0

        costs = problem.placement_cost_row(node, names)
        for column, cost in zip(self._cost_columns, costs):
            out_row[column] = INFEASIBLE_COST if cost == _INF else cost

        present = state.remaining_name_set()
        for column, name in zip(self._have_columns, names):
            out_row[column] = 1.0 if name in present else 0.0
        return out_row

    def matrix(
        self, problem: SchedulingProblem, labels: Sequence[str]
    ) -> tuple[np.ndarray, float | None]:
        """The feature rows of the vertices along the action *labels*, and the path's cost.

        Row ``i`` is :meth:`extract_into` of the vertex at which ``labels[i]``
        is taken, written in place while :meth:`SchedulingProblem.walk
        <repro.search.problem.SchedulingProblem.walk>` steps its one reusable
        vertex along the path.  The cost is the walk's: the complete
        schedule's, or ``None`` when *problem* refuses the path (the rows are
        then meaningless).  How training labels a searched path and re-prices
        a kept one alike.
        """
        out = np.empty((len(labels), len(self._feature_names)))
        extract_into = self.extract_into
        cost = problem.walk(
            labels, lambda index, node: extract_into(node, problem, out[index])
        )
        return out, cost
