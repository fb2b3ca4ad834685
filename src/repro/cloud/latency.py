"""Query latency models.

WiSeDB relies on an external latency estimate ``l(q, i)`` — the time a query
of some template takes on a VM of type ``i`` (Section 3).  The paper obtains
these numbers by profiling TPC-H on EC2 and notes that any prediction model
(e.g. [10, 11]) can be plugged in.  This module provides:

* :class:`TemplateLatencyModel` — the deterministic model used for training and
  scheduling: template base latency times the VM type's speed factor.
* :class:`QueryLatencyPredictor` — per-query noisy predictions plus the
  "map unknown queries to the template with the closest predicted latency"
  behaviour of Section 6.2, used by the prediction-error study (Figure 22).
"""

from __future__ import annotations

import random
from typing import Mapping, Protocol

from repro.cloud.vm import VMType
from repro.exceptions import SpecificationError, UnsupportedQueryError
from repro.workloads.query import Query
from repro.workloads.templates import TemplateSet


class LatencyModel(Protocol):
    """Anything that can estimate template latency on a VM type."""

    def latency(self, template_name: str, vm_type: VMType) -> float:
        """Predicted latency (seconds) of a *template_name* query on *vm_type*."""
        ...  # pragma: no cover - protocol


class TemplateLatencyModel:
    """Deterministic latency model: base latency scaled by the VM speed factor."""

    def __init__(self, templates: TemplateSet) -> None:
        self._templates = templates

    def latency(self, template_name: str, vm_type: VMType) -> float:
        """Latency of *template_name* on *vm_type* in seconds."""
        if not vm_type.supports(template_name):
            raise UnsupportedQueryError(template_name, vm_type.name)
        template = self._templates[template_name]
        return template.base_latency * vm_type.speed_factor(template_name)


class TabularLatencyModel:
    """A latency model backed by an explicit ``{template: {vm_type: seconds}}`` table.

    This is the persistence fallback for latency models that are not the
    deterministic :class:`TemplateLatencyModel`: whatever estimates the
    original model produced are tabulated over the specification's
    (template, VM type) grid and restored verbatim, so schedules produced by
    a reloaded decision model remain bit-identical to the original's.
    """

    def __init__(self, latencies: Mapping[str, Mapping[str, float]]) -> None:
        self._latencies: dict[str, dict[str, float]] = {
            template: dict(row) for template, row in latencies.items()
        }

    @property
    def latencies(self) -> Mapping[str, Mapping[str, float]]:
        """The underlying latency table."""
        return {template: dict(row) for template, row in self._latencies.items()}

    def latency(self, template_name: str, vm_type: VMType) -> float:
        """Tabulated latency of *template_name* on *vm_type* in seconds."""
        if not vm_type.supports(template_name):
            raise UnsupportedQueryError(template_name, vm_type.name)
        row = self._latencies.get(template_name)
        if row is None or vm_type.name not in row:
            raise UnsupportedQueryError(template_name, vm_type.name)
        return row[vm_type.name]


def latency_model_to_dict(model, templates: TemplateSet, vm_types) -> dict:
    """JSON-serializable representation of *model* over a specification grid.

    :class:`TemplateLatencyModel` is fully determined by the template set, so
    it serializes to a marker that :func:`latency_model_from_dict` turns back
    into the same class; any other model is tabulated over the
    (template, VM type) grid into a :class:`TabularLatencyModel` payload.
    """
    if type(model) is TemplateLatencyModel:
        return {"type": "template"}
    table: dict[str, dict[str, float]] = {}
    for template in templates:
        row: dict[str, float] = {}
        for vm_type in vm_types:
            if vm_type.supports(template.name):
                row[vm_type.name] = model.latency(template.name, vm_type)
        table[template.name] = row
    return {"type": "tabular", "latencies": table}


def latency_model_from_dict(data: Mapping, templates: TemplateSet) -> LatencyModel:
    """Rebuild a latency model from :func:`latency_model_to_dict` output."""
    kind = data["type"]
    if kind == "template":
        return TemplateLatencyModel(templates)
    if kind == "tabular":
        return TabularLatencyModel(data["latencies"])
    raise SpecificationError(f"unknown latency model type: {kind!r}")


class QueryLatencyPredictor:
    """Per-query noisy latency predictions and template re-assignment.

    Figure 22 models a latency predictor whose per-query estimate deviates
    from the truth by a zero-mean Gaussian whose standard deviation is a given
    percentage of the actual latency.  Because WiSeDB identifies queries by
    latency alone, a noisy prediction may cause a query to be treated as an
    instance of the wrong template; this class exposes exactly that mapping.
    """

    def __init__(
        self,
        templates: TemplateSet,
        error_std: float,
        seed: int | None = 0,
        vm_type: VMType | None = None,
    ) -> None:
        if error_std < 0:
            raise SpecificationError("error_std must be non-negative")
        self._templates = templates
        self._error_std = error_std
        self._rng = random.Random(seed)
        self._vm_type = vm_type
        self._cache: dict[int, float] = {}

    def predicted_latency(self, query: Query) -> float:
        """Noisy latency prediction for *query* (cached per query id)."""
        if query.query_id not in self._cache:
            true_latency = self._templates[query.template_name].base_latency
            noise = self._rng.gauss(0.0, self._error_std * true_latency)
            self._cache[query.query_id] = max(1.0, true_latency + noise)
        return self._cache[query.query_id]

    def perceived_template(self, query: Query) -> str:
        """Template the scheduler believes *query* belongs to.

        The query is mapped to the template with the closest *predicted*
        latency (Section 6.2); with a large prediction error this is often not
        the true template, which is what degrades Figure 22's right-hand side.
        """
        return self._templates.closest_by_latency(self.predicted_latency(query)).name

    def misassignment_rate(self, queries) -> float:
        """Fraction of *queries* mapped to a template other than their own."""
        queries = list(queries)
        if not queries:
            return 0.0
        wrong = sum(
            1 for query in queries if self.perceived_template(query) != query.template_name
        )
        return wrong / len(queries)
