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
both phases.  Three things make that hold.  An extractor reads one compiled
specification, the :class:`~repro.search.problem.ProblemTables` of a training
pass — its template order, its ``supports`` table and its action labels — and
the model fitted on its rows decides on those same tables.  The row has one
fixed layout — all five families, ``wait-time`` first and then one block per
template — so a model's columns never depend on how it was built (a feature
ablation drops training-set columns, not families).  And ``cost-of-X`` is
priced from the vertex alone, by one body (:meth:`ProblemTables.placement_edge_cost
<repro.search.problem.ProblemTables.placement_edge_cost>`): a vertex carries
the goal's violation accumulator and its partial ``penalty``, and the edge
costs execution cost ``+ (rate · violation-with-X − penalty)``, whether the
vertex is an A* node or the one a
:class:`~repro.search.problem.VertexStepper` steps for a runtime decision.
Training computes the same expression for a whole pass at once (below).

:meth:`FeatureExtractor.extract_into` is the one-vertex definition of the
row.  The program reads it in two other forms, each held against it bit for
bit:

* **Training** needs every column of every vertex on many paths.  Only four
  floats there need the vertex itself, all of them for ``cost-of-X``: its
  wait time, its penalty and the two floats of its goal accumulator's
  :meth:`~repro.sla.accumulators.ViolationAccumulator.edge_summary`.
  :meth:`FeatureExtractor.vertex_values` records just those while
  :meth:`ProblemTables.walk <repro.search.problem.ProblemTables.walk>` steps
  a stepper's vertex along a path's labels.  The rest follows from the
  labels and the sample's template counts, so :meth:`FeatureExtractor.block`
  writes a whole training pass's rows in one numpy pass over every path laid
  end to end, pricing every row × template with the accumulator's array twin
  of ``violation_with`` — no Equation-2 call per vertex
  (``tests/test_feature_block.py``).  :meth:`FeatureExtractor.matrix` is the
  one-path view of the same two steps.
* **A runtime decision** reads only the columns on its tree path, so
  :meth:`~repro.learning.model.DecisionModel.decide` evaluates those — the
  same expressions, looked up through :attr:`FeatureExtractor.column_layout`
  (``tests/test_vectorized_equivalence.py``).

The row itself is held against a straight-line name → value extraction that
lives only under ``tests/``.
"""

from __future__ import annotations

import copy
from typing import Mapping, Sequence

import numpy as np

from repro.search.problem import ProblemTables, SchedulingProblem, SearchNode

#: Columns of :meth:`FeatureExtractor.vertex_values`: the vertex's wait time,
#: its penalty, and its goal accumulator's two-float ``edge_summary``.
VERTEX_VALUES = 4

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
    """Extracts the Section 4.4 feature vector from a search node.

    Built on one :class:`~repro.search.problem.ProblemTables` (:attr:`tables`),
    from which it reads the template order, ``supports-X`` and the action
    labels; the goal in those tables matters only to the model that decides
    on them.
    """

    def __init__(self, tables: ProblemTables) -> None:
        self._tables = tables
        names = self._template_names = tables.tpl_names
        self._feature_names: tuple[str, ...] = (wait_time_feature(),) + tuple(
            feature(name)
            for name in names
            for feature in (proportion_feature, supports_feature, cost_feature, have_feature)
        )
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
        # What :meth:`block` reads per label: a placement's template index, or
        # ``-1 - k`` for provisioning the tables' type ``k``, looked up by
        # label; ``supports`` row ``k`` is that type's, and the extra last
        # row (all zeros) stands for "no VM yet".
        self._label_codes: dict[str, int] = dict(tables.place_of)
        self._label_codes.update(
            (label, -1 - index) for label, index in tables.provision_of.items()
        )
        self._supports_block = np.array(
            tables.supports_table + [[False] * len(names)], dtype=np.float64
        )
        # Laid out as the supports block: the placement edge's execution time
        # and cost, 0.0 where the type cannot run the template (:meth:`block`
        # prices those INFEASIBLE_COST, and a 0.0 computes no inf - inf).
        supported = self._supports_block > 0.0
        self._latency_block = np.where(
            supported, np.array(tables.latency_table + [[0.0] * len(names)]), 0.0
        )
        self._run_cost_block = np.where(
            supported, np.array(tables.run_cost_table + [[0.0] * len(names)]), 0.0
        )
        # Supports-X depends only on the VM type: :meth:`extract_into` reads
        # the whole row by the type's name.
        self._supports_rows: dict[str, list[float]] = dict(
            zip(tables.vm_names, self._supports_block.tolist())
        )
        # Per-column lookup for a decision, which computes a column only when
        # a tree node tests it: the family's position in FEATURE_FAMILIES and
        # the template's name and position.
        per_template = range(1, len(FEATURE_FAMILIES))
        self._column_layout: tuple[list[int], list[str], list[int]] = (
            [0] + [rank for _ in names for rank in per_template],
            [""] + [name for name in names for _ in per_template],
            [-1] + [j for j in range(len(names)) for _ in per_template],
        )

    def with_tables(self, tables: ProblemTables) -> "FeatureExtractor":
        """An extractor over *tables* that shares this one's goal-free layout.

        Everything but the tables — feature names, columns, label codes and
        the ``supports``, execution-time and execution-cost blocks — follows
        from the templates, VM types and latency model alone, so *tables*
        must compile the same specification; only the goal may differ.
        """
        extractor = copy.copy(self)
        extractor._tables = tables
        return extractor

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Names of the features produced, in a stable order."""
        return self._feature_names

    @property
    def tables(self) -> ProblemTables:
        """The compiled specification the row is defined over (one goal's)."""
        return self._tables

    @property
    def column_layout(self) -> tuple[list[int], list[str], list[int]]:
        """Per column: family (index into ``FEATURE_FAMILIES``), template name, template index.

        What :class:`~repro.learning.model.DecisionModel` needs to generate
        its walk, which computes one column on demand (``wait_time`` has no
        template: ``""`` and ``-1``).
        """
        return self._column_layout

    def extract_into(self, node: SearchNode, problem: SchedulingProblem, out_row):
        """Write the feature vector of *node* directly into *out_row*.

        The one-vertex definition of the row, which :meth:`block` and
        :meth:`~repro.learning.model.DecisionModel.decide` are tested
        against.  *out_row* is any preallocated mutable row of
        ``len(feature_names)`` entries — a numpy float64 row or a plain list.
        Every column is overwritten, so the buffer needs no zeroing between
        calls.  Returns *out_row*.
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

        edge = problem.placement_edge_cost
        for column, name in zip(self._cost_columns, names):
            cost = edge(node, name)
            out_row[column] = INFEASIBLE_COST if cost == _INF else cost

        present = state.remaining_name_set()
        for column, name in zip(self._have_columns, names):
            out_row[column] = 1.0 if name in present else 0.0
        return out_row

    def vertex_values(
        self, counts: Mapping[str, int], labels: Sequence[str]
    ) -> tuple[np.ndarray, float | None]:
        """What the rows along the action *labels* need of each vertex, and the path's cost.

        The path starts at *counts* (queries per template name) and is walked
        on this extractor's tables (:meth:`ProblemTables.walk
        <repro.search.problem.ProblemTables.walk>`); no search problem is
        built.  Row ``i`` holds, of the vertex at which ``labels[i]`` is
        taken, the :data:`VERTEX_VALUES` floats that its ``cost-of-X``
        columns read besides the template: the wait time
        (``last_vm_finish``), the penalty, and the goal accumulator's
        :meth:`~repro.sla.accumulators.ViolationAccumulator.edge_summary`.
        Every other column of a feature row follows from the labels and the
        template counts (:meth:`block`).  The cost is the walk's: the complete
        schedule's, or ``None`` when the walk refuses the path (the values
        are then meaningless).
        """
        rows: list[tuple[float, ...]] = []
        append = rows.append

        def visit(index: int, node: SearchNode) -> None:
            append((node.last_vm_finish, node.penalty) + node.accumulator.edge_summary())

        cost = self._tables.walk(counts, labels, visit)
        values = np.zeros((len(labels), VERTEX_VALUES))
        if rows:
            values[: len(rows)] = rows
        return values, cost

    def block(
        self, paths: Sequence[tuple[Sequence[str], np.ndarray, Mapping[str, int]]]
    ) -> np.ndarray:
        """The feature rows of many paths, end to end, in one numpy pass.

        Each path is ``(labels, values, template counts)``: its action labels,
        its :meth:`vertex_values`, and its sample's queries per template.
        Row ``i`` of a path equals :meth:`extract_into` of the vertex at which
        ``labels[i]`` is taken, bit for bit.  The columns that do not need the
        vertex are written one strided family at a time over all the rows:

        * ``proportion_of``: the placements counted before the row, minus
          those counted before the path's last provisioning, over their sum;
          zero before the path's first VM (the count restarts with each path);
        * ``supports``: the row of the last provisioned type, looked up by its
          label in this extractor's tables; zero before the first VM;
        * ``cost_of``: Equation 2 of every row × template in one array
          expression, ``run_cost + (rate · V − penalty)`` with ``V`` the goal
          accumulator's :meth:`violation_with_array
          <repro.sla.accumulators.ViolationAccumulator.violation_with_array>`
          at completion ``wait + execution time``; the type's execution time
          and cost come from the same lookup as ``supports``, and
          :data:`INFEASIBLE_COST` stands wherever the type cannot run the
          template or there is no VM yet;
        * ``have``: the path's template counts minus its placements so far.

        Labels this extractor does not know count as neither placement nor
        provisioning; a walk refuses them, so their rows are meaningless.
        """
        names = self._template_names
        templates = len(names)
        sizes = np.array([len(labels) for labels, _, _ in paths], dtype=np.intp)
        total = int(sizes.sum())
        out = np.empty((total, len(self._feature_names)))
        if not total:
            return out
        code_of = self._label_codes
        codes = np.array(
            [code_of.get(label, templates) for labels, _, _ in paths for label in labels],
            dtype=np.intp,
        )
        values = np.concatenate([path_values for _, path_values, _ in paths])
        counts = np.array(
            [[path_counts.get(name, 0) for name in names] for _, _, path_counts in paths],
            dtype=np.int64,
        )
        rows = np.arange(total)
        path_of = np.repeat(np.arange(len(paths)), sizes)
        start = (np.cumsum(sizes) - sizes)[path_of]

        # placed[i]: placements per template before row i, over all paths (a
        # label this extractor does not know counts in the extra column).
        placed = np.zeros((total + 1, templates + 1), dtype=np.int64)
        placing = codes >= 0
        placed[rows[placing] + 1, codes[placing]] = 1
        np.cumsum(placed, axis=0, out=placed)
        placed = placed[:, :templates]
        before = placed[:total]
        # The last provisioning before each row, if it is in the row's own path.
        last = np.empty(total, dtype=np.intp)
        last[0] = -1
        np.maximum.accumulate(np.where(codes < 0, rows, -1)[:-1], out=last[1:])
        has_vm = last >= start

        queue = before - placed[np.where(has_vm, last, rows)]
        length = queue.sum(axis=1, keepdims=True)
        # Family k of template j is column k + 4 j (see __init__).
        out[:, 0] = values[:, 0]
        proportion = out[:, 1::4]
        proportion[...] = 0.0
        np.divide(queue, length, out=proportion, where=length > 0)
        vm = np.where(has_vm, -1 - codes[last], len(self._supports_block) - 1)
        supports = out[:, 2::4]
        supports[...] = self._supports_block[vm]
        tables = self._tables
        violation = tables.goal.accumulator().violation_with_array(
            values[:, 2:], names, values[:, :1] + self._latency_block[vm]
        )
        costs = self._run_cost_block[vm] + (tables.rate * violation - values[:, 1:2])
        out[:, 3::4] = np.where((supports > 0.0) & (costs != _INF), costs, INFEASIBLE_COST)
        out[:, 4::4] = counts[path_of] - (before - placed[start]) > 0
        return out

    def matrix(
        self, problem: SchedulingProblem, labels: Sequence[str]
    ) -> tuple[np.ndarray, float | None]:
        """The feature rows of the vertices along the action *labels*, and the path's cost.

        The one-path view of training's two steps: :meth:`vertex_values`
        walks the path from *problem*'s template counts on this extractor's
        tables, :meth:`block` writes its rows.  Row ``i`` is
        :meth:`extract_into` of the vertex at which ``labels[i]`` is taken.
        The cost is the walk's: the complete schedule's, or ``None`` when the
        walk refuses the path (the rows are then meaningless).
        """
        counts = problem.template_counts
        values, cost = self.vertex_values(counts, labels)
        return self.block([(labels, values, counts)]), cost
