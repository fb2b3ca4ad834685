"""Vertices of the scheduling graph.

A vertex (Section 4.3) couples a *partial schedule* — the VMs provisioned so
far with their template queues — with the multiset of queries still waiting to
be assigned.  Because queries of the same template are interchangeable, the
state only tracks template names; the driver maps templates back to concrete
query instances once the optimal goal vertex is known.

The representation is immutable and compares (and hashes) by value.  The
search never relies on that: the reduced graph is a tree — a vertex whose most
recent VM is empty was reached by provisioning it, any other by placing the
last query of that VM's queue — so no two action orders reach one state and
the search keeps no closed set (:mod:`repro.search.problem`).

States deliberately carry *no* cost bookkeeping: everything incremental — the
goal's violation accumulator, the retraining search's auxiliary old-goal
accumulator, memo keys, the remaining multiset's row — lives on
:class:`~repro.search.problem.SearchNode`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping


#: A provisioned VM inside a search state: (vm type name, template queue).
VMState = tuple[str, tuple[str, ...]]


def freeze_counts(counts: Mapping[str, int] | Counter[str]) -> tuple[tuple[str, int], ...]:
    """Canonical, hashable form of a template multiset (zero counts dropped)."""
    return tuple(sorted((name, count) for name, count in counts.items() if count > 0))


@dataclass(frozen=True)
class SearchState:
    """One vertex of the scheduling graph.

    :meth:`remaining_name_set` and :meth:`last_queue_counts` are read once per
    decision by the feature extractor and the decision models, so both are
    backed by lazily materialised caches in the instance ``__dict__``, which
    equality and hashing ignore.
    """

    #: Partial schedule: VMs in provisioning order with their template queues.
    vms: tuple[VMState, ...]
    #: Unassigned queries, as a frozen multiset of template names.
    remaining: tuple[tuple[str, int], ...]

    # -- constructors ----------------------------------------------------------

    @classmethod
    def initial(cls, counts: Mapping[str, int] | Counter[str]) -> "SearchState":
        """The start vertex: nothing provisioned, every query unassigned."""
        return cls(vms=(), remaining=freeze_counts(counts))

    # -- accessors -------------------------------------------------------------

    def remaining_templates(self) -> tuple[str, ...]:
        """Distinct template names with at least one unassigned query."""
        return tuple(name for name, _ in self.remaining)

    def remaining_name_set(self) -> frozenset[str]:
        """Distinct unassigned template names as a set (cached on first use).

        Hot paths that test many templates against one state (the ``have-X``
        feature loop) fetch this once instead of paying a method call per
        template.
        """
        cached = self.__dict__.get("_remaining_names")
        if cached is None:
            cached = frozenset(name for name, _ in self.remaining)
            object.__setattr__(self, "_remaining_names", cached)
        return cached

    def last_queue_counts(self) -> dict[str, int]:
        """Per-template counts of the most recent VM's queue (cached on first use).

        The numerators of the ``proportion-of-X`` features; the batch
        scheduler seeds this cache with a running count it updates per action.
        """
        cached = self.__dict__.get("_last_queue_counts")
        if cached is None:
            cached = Counter(self.vms[-1][1] if self.vms else ())
            object.__setattr__(self, "_last_queue_counts", cached)
        return cached

    def is_goal(self) -> bool:
        """True when every query has been assigned (a complete schedule)."""
        return not self.remaining

    def last_vm(self) -> VMState | None:
        """The most recently provisioned VM, or ``None`` if there is none."""
        return self.vms[-1] if self.vms else None

    # -- cosmetics ---------------------------------------------------------------
