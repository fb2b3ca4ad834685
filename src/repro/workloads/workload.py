"""Workloads: ordered collections of queries drawn from a template set.

A :class:`Workload` couples a list of :class:`~repro.workloads.query.Query`
instances with the :class:`~repro.workloads.templates.TemplateSet` they are
drawn from.  It provides the per-template counting utilities used throughout
the library (feature extraction, strategy cost estimation, skew statistics).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import SpecificationError, UnknownTemplateError
from repro.workloads.query import Query
from repro.workloads.templates import TemplateSet


class Workload:
    """An immutable batch of queries plus its workload specification."""

    def __init__(self, templates: TemplateSet, queries: Iterable[Query]) -> None:
        self._templates = templates
        self._queries: tuple[Query, ...] = tuple(queries)
        for query in self._queries:
            if query.template_name not in templates:
                raise UnknownTemplateError(query.template_name)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_counts(
        cls, templates: TemplateSet, counts: Mapping[str, int]
    ) -> "Workload":
        """Build a workload containing ``counts[name]`` instances of each template."""
        queries: list[Query] = []
        for name, count in counts.items():
            if name not in templates:
                raise UnknownTemplateError(name)
            if count < 0:
                raise SpecificationError(f"negative count for template {name!r}")
            queries.extend(Query(template_name=name) for _ in range(count))
        return cls(templates, queries)

    @classmethod
    def from_template_names(
        cls, templates: TemplateSet, names: Sequence[str]
    ) -> "Workload":
        """Build a workload with one query per entry of *names*, in order."""
        return cls(templates, (Query(template_name=name) for name in names))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation of the query list.

        The template set is not embedded (callers persist it once alongside);
        :meth:`from_dict` re-attaches it.  Query ids and arrival times survive
        the round trip, so schedules built from a restored workload are
        bit-identical to the original's.
        """
        return {
            "queries": [
                {
                    "template_name": query.template_name,
                    "query_id": query.query_id,
                    "arrival_time": query.arrival_time,
                }
                for query in self._queries
            ]
        }

    @classmethod
    def from_dict(cls, data: Mapping, templates: TemplateSet) -> "Workload":
        """Rebuild a workload from :meth:`to_dict` output over *templates*."""
        return cls(
            templates,
            (
                Query(
                    template_name=entry["template_name"],
                    query_id=entry["query_id"],
                    arrival_time=entry.get("arrival_time", 0.0),
                )
                for entry in data["queries"]
            ),
        )

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.template_counts().items()))
        return f"Workload({len(self)} queries: {counts})"

    # -- accessors -----------------------------------------------------------

    @property
    def templates(self) -> TemplateSet:
        """The workload specification this workload is drawn from."""
        return self._templates

    @property
    def queries(self) -> tuple[Query, ...]:
        """The queries, in submission order."""
        return self._queries

    def is_empty(self) -> bool:
        """True when the workload contains no queries."""
        return not self._queries

    def template_counts(self) -> Counter[str]:
        """Number of queries per template name (templates with zero omitted)."""
        return Counter(q.template_name for q in self._queries)

    # -- derivation ----------------------------------------------------------

    def with_queries(self, queries: Iterable[Query]) -> "Workload":
        """A new workload over the same templates but different queries."""
        return Workload(self._templates, queries)

    def sorted_by_latency(self, descending: bool = False) -> "Workload":
        """A new workload with queries ordered by base latency (used by baselines)."""
        latencies = self._templates.base_latencies()
        ordered = sorted(
            self._queries,
            key=lambda q: (latencies[q.template_name], q.query_id),
            reverse=descending,
        )
        return Workload(self._templates, ordered)
