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
scheduler's current state), which guarantees that the model sees an identical
representation in both phases — but not the same amount of work.  Training
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


#: The feature families the extractor can produce (used by the ablation bench).
FEATURE_FAMILIES: tuple[str, ...] = (
    "wait_time",
    "proportion_of",
    "supports",
    "cost_of",
    "have",
)


class FeatureExtractor:
    """Extracts the Section 4.4 feature vector from a search node."""

    def __init__(
        self,
        templates: TemplateSet,
        vm_types: VMTypeCatalog,
        families: tuple[str, ...] = FEATURE_FAMILIES,
    ) -> None:
        unknown = set(families) - set(FEATURE_FAMILIES)
        if unknown:
            raise ValueError(f"unknown feature families: {sorted(unknown)}")
        self._templates = templates
        self._vm_types = vm_types
        self._families = tuple(families)
        self._feature_names = self._build_feature_names()
        # Supports-X only depends on the VM type, so resolve the whole row once
        # per type instead of one supports() call per template per extraction.
        self._supports_rows: dict[str, tuple[float, ...]] = {
            vm_type.name: tuple(
                1.0 if vm_type.supports(name) else 0.0 for name in templates.names
            )
            for vm_type in vm_types
        }
        self._build_columns()

    def _build_columns(self) -> None:
        """Precompute the column layout :meth:`extract_into` and the decision walk share.

        The canonical feature order is ``wait_time`` (when enabled) followed by
        one fixed-size block per template, so every per-template family lands
        on a regular stride: family ``k`` of template ``j`` lives at column
        ``base + k + j * stride``.  :meth:`extract_into` exploits this with
        strided slice assignments instead of per-feature dict stores.
        """
        per_template = tuple(
            family
            for family in ("proportion_of", "supports", "cost_of", "have")
            if family in self._families
        )
        base = 1 if "wait_time" in self._families else 0
        self._wait_column = 0 if base else -1
        stride = len(per_template)
        num_templates = len(self._templates.names)

        def _columns(rank: int) -> tuple[int, ...]:
            return tuple(base + rank + stride * j for j in range(num_templates))

        starts = {family: rank for rank, family in enumerate(per_template)}
        self._proportion_columns: tuple[int, ...] | None = (
            _columns(starts["proportion_of"]) if "proportion_of" in starts else None
        )
        self._supports_columns: tuple[int, ...] | None = (
            _columns(starts["supports"]) if "supports" in starts else None
        )
        self._cost_columns: tuple[int, ...] | None = (
            _columns(starts["cost_of"]) if "cost_of" in starts else None
        )
        self._have_columns: tuple[int, ...] | None = (
            _columns(starts["have"]) if "have" in starts else None
        )
        self._proportion_column_of: dict[str, int] = (
            {
                name: column
                for name, column in zip(
                    self._templates.names, self._proportion_columns or ()
                )
            }
            if self._proportion_columns is not None
            else {}
        )
        self._template_names: tuple[str, ...] = self._templates.names
        # Per-column lookup for a decision, which computes a column only when
        # a tree node tests it: the family's position in FEATURE_FAMILIES and
        # the template's name and position.
        codes = [FEATURE_FAMILIES.index(family) for family in per_template]
        self._column_layout: tuple[list[int], list[str], list[int]] = (
            [FEATURE_FAMILIES.index("wait_time")] * base + codes * num_templates,
            [""] * base + [name for name in self._template_names for _ in codes],
            [-1] * base + [j for j in range(num_templates) for _ in codes],
        )

    def _build_feature_names(self) -> tuple[str, ...]:
        names: list[str] = []
        if "wait_time" in self._families:
            names.append(wait_time_feature())
        for template in self._templates.names:
            if "proportion_of" in self._families:
                names.append(proportion_feature(template))
            if "supports" in self._families:
                names.append(supports_feature(template))
            if "cost_of" in self._families:
                names.append(cost_feature(template))
            if "have" in self._families:
                names.append(have_feature(template))
        return tuple(names)

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Names of the features produced, in a stable order."""
        return self._feature_names

    @property
    def families(self) -> tuple[str, ...]:
        """The feature families this extractor is configured to produce."""
        return self._families

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
        list.  Every enabled column is overwritten, so the buffer needs no
        zeroing between calls.  Returns *out_row*.
        """
        state = node.state
        last = state.last_vm()
        last_queue: tuple[str, ...] = last[1] if last is not None else ()
        names = self._template_names

        if self._wait_column >= 0:
            out_row[self._wait_column] = node.last_vm_finish

        proportion_columns = self._proportion_columns
        if proportion_columns is not None:
            for column in proportion_columns:
                out_row[column] = 0.0
            if last_queue:
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

        supports_columns = self._supports_columns
        if supports_columns is not None:
            if last is not None:
                for column, value in zip(supports_columns, self._supports_rows[last[0]]):
                    out_row[column] = value
            else:
                for column in supports_columns:
                    out_row[column] = 0.0

        cost_columns = self._cost_columns
        if cost_columns is not None:
            costs = problem.placement_cost_row(node, names)
            inf = float("inf")
            for column, cost in zip(cost_columns, costs):
                out_row[column] = INFEASIBLE_COST if cost == inf else cost

        have_columns = self._have_columns
        if have_columns is not None:
            present = state.remaining_name_set()
            for column, name in zip(have_columns, names):
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
