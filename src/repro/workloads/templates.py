"""Query templates and template sets (workload specifications).

Applications describe their workloads to WiSeDB as a finite set of *query
templates* (Section 2 of the paper).  A template is, conceptually, a
parameterised SQL statement; operationally WiSeDB only cares about the
template's expected latency on each VM type, so :class:`QueryTemplate` carries
a name, an optional SQL skeleton, and a base latency.  Per-VM-type latencies
are derived by the latency model in :mod:`repro.cloud.latency`.

The module also ships a catalogue of the ten TPC-H templates used throughout
the paper's evaluation (latencies spread between two and six minutes with an
average around four minutes, per Section 7.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro import units
from repro.exceptions import SpecificationError, UnknownTemplateError


@dataclass(frozen=True, order=True)
class QueryTemplate:
    """A query template in the workload specification.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"T1"`` or ``"tpch-q6"``.
    base_latency:
        Expected execution latency, in seconds, on the reference VM type.
    sql:
        Optional SQL skeleton with placeholders; informational only.
    """

    name: str
    base_latency: float
    sql: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("query template name must be non-empty")
        if self.base_latency <= 0:
            raise SpecificationError(
                f"template {self.name!r} must have positive latency, "
                f"got {self.base_latency!r}"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation (exact float round-trip)."""
        return {"name": self.name, "base_latency": self.base_latency, "sql": self.sql}

    @classmethod
    def from_dict(cls, data: Mapping) -> "QueryTemplate":
        """Rebuild a template from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            base_latency=data["base_latency"],
            sql=data.get("sql", ""),
        )


class TemplateSet:
    """An ordered, immutable collection of query templates.

    The template set is the workload specification ``T`` of the paper: it is
    what models are trained against, and the universe from which workloads are
    sampled.  Lookup is by template name.
    """

    def __init__(self, templates: Iterable[QueryTemplate]) -> None:
        templates = list(templates)
        if not templates:
            raise SpecificationError("a template set requires at least one template")
        names = [t.name for t in templates]
        if len(set(names)) != len(names):
            raise SpecificationError(f"duplicate template names: {sorted(names)}")
        self._templates: tuple[QueryTemplate, ...] = tuple(templates)
        self._by_name: dict[str, QueryTemplate] = {t.name: t for t in templates}
        self._names: tuple[str, ...] = tuple(names)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._templates)

    def __iter__(self) -> Iterator[QueryTemplate]:
        return iter(self._templates)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, QueryTemplate):
            return item.name in self._by_name
        return item in self._by_name

    def __getitem__(self, name: str) -> QueryTemplate:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownTemplateError(name) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemplateSet):
            return NotImplemented
        return self._templates == other._templates

    def __hash__(self) -> int:
        return hash(self._templates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(t.name for t in self._templates)
        return f"TemplateSet([{names}])"

    # -- accessors -----------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Template names, in declaration order (cached; the set is immutable).

        Hot paths read this per decision, so it must not rebuild the tuple.
        """
        return self._names

    def base_latencies(self) -> Mapping[str, float]:
        """Mapping of template name to base latency in seconds."""
        return {t.name: t.base_latency for t in self._templates}

    def average_latency(self) -> float:
        """Mean base latency across templates, in seconds."""
        return sum(t.base_latency for t in self._templates) / len(self._templates)

    def max_latency(self) -> float:
        """Largest base latency across templates, in seconds."""
        return max(t.base_latency for t in self._templates)

    def closest_by_latency(self, latency: float) -> QueryTemplate:
        """Template whose base latency is closest to *latency*.

        Used at runtime to map queries of unseen templates onto the known
        template with the nearest predicted latency (Section 6.2).
        """
        return min(self._templates, key=lambda t: abs(t.base_latency - latency))

    def extended(self, extra: Iterable[QueryTemplate]) -> "TemplateSet":
        """A new set containing these templates plus *extra* (order preserved)."""
        return TemplateSet(list(self._templates) + list(extra))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation preserving declaration order."""
        return {"templates": [t.to_dict() for t in self._templates]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TemplateSet":
        """Rebuild a template set from :meth:`to_dict` output."""
        return cls(QueryTemplate.from_dict(entry) for entry in data["templates"])


# ---------------------------------------------------------------------------
# TPC-H catalogue (Section 7.1)
# ---------------------------------------------------------------------------

#: SQL skeletons are abbreviated; WiSeDB never inspects them.
_TPCH_SQL = {
    1: "SELECT l_returnflag, l_linestatus, SUM(...) FROM lineitem WHERE l_shipdate <= date '[DATE]' GROUP BY ...",
    2: "SELECT s_acctbal, s_name, ... FROM part, supplier, partsupp, nation, region WHERE p_size = [SIZE] ...",
    3: "SELECT l_orderkey, SUM(...) FROM customer, orders, lineitem WHERE c_mktsegment = '[SEGMENT]' ...",
    4: "SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate >= date '[DATE]' ...",
    5: "SELECT n_name, SUM(...) FROM customer, orders, lineitem, supplier, nation, region WHERE r_name = '[REGION]' ...",
    6: "SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_shipdate >= date '[DATE]' ...",
    7: "SELECT supp_nation, cust_nation, l_year, SUM(volume) FROM ... WHERE n1.n_name = '[NATION1]' ...",
    8: "SELECT o_year, SUM(...) FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region ...",
    9: "SELECT nation, o_year, SUM(amount) FROM part, supplier, lineitem, partsupp, orders, nation WHERE p_name LIKE '%[COLOR]%' ...",
    10: "SELECT c_custkey, c_name, SUM(...) FROM customer, orders, lineitem, nation WHERE o_orderdate >= date '[DATE]' ...",
}

#: Base latencies (seconds) of TPC-H templates 1-10 on the reference VM type.
#: The paper reports response times "ranging from 2 to 6 minutes, with an
#: average latency of 4 minutes" on a 10 GB TPC-H / t2.medium deployment.
_TPCH_LATENCIES_SECONDS = {
    1: units.minutes(4.5),
    2: units.minutes(2.0),
    3: units.minutes(4.0),
    4: units.minutes(3.0),
    5: units.minutes(5.0),
    6: units.minutes(2.5),
    7: units.minutes(4.5),
    8: units.minutes(5.5),
    9: units.minutes(6.0),
    10: units.minutes(3.5),
}


def tpch_template(number: int) -> QueryTemplate:
    """Return the catalogue entry for TPC-H template *number* (1-10)."""
    if number not in _TPCH_LATENCIES_SECONDS:
        raise SpecificationError(f"TPC-H template {number} is not in the catalogue (1-10)")
    return QueryTemplate(
        name=f"T{number}",
        base_latency=_TPCH_LATENCIES_SECONDS[number],
        sql=_TPCH_SQL[number],
    )


def tpch_templates(count: int = 10) -> TemplateSet:
    """The first *count* TPC-H templates used in the paper's evaluation.

    ``count`` may exceed 10 (Figure 14 trains on up to 20 templates); extra
    templates are synthesised by interpolating latencies within the same
    2-6 minute range so that the learning problem keeps the same character.
    """
    if count < 1:
        raise SpecificationError("count must be >= 1")
    templates = [tpch_template(i) for i in range(1, min(count, 10) + 1)]
    for i in range(11, count + 1):
        # Spread synthetic templates across the 2-6 minute range deterministically.
        span = units.minutes(6.0) - units.minutes(2.0)
        offset = ((i * 37) % 17) / 17.0
        templates.append(
            QueryTemplate(
                name=f"T{i}",
                base_latency=units.minutes(2.0) + offset * span,
                sql=f"-- synthetic analytical template #{i}",
            )
        )
    return TemplateSet(templates)
