"""Vertices of the scheduling graph.

A vertex (Section 4.3) couples a *partial schedule* — the VMs provisioned so
far with their template queues — with the multiset of queries still waiting to
be assigned.  Because queries of the same template are interchangeable, the
state only tracks template names; the driver maps templates back to concrete
query instances once the optimal goal vertex is known.

The representation is fully immutable and hashable so that the A* search can
deduplicate states reached via different action orders (one of the redundancy
eliminations that makes the graph search tractable).

States deliberately carry *no* cost bookkeeping: everything incremental — the
goal's violation accumulator, the retraining search's auxiliary old-goal
accumulator, memo keys — lives on :class:`~repro.search.problem.SearchNode`,
so two paths reaching the same vertex still compare (and hash) equal here
while each node keeps its own O(1) copy-on-write penalty state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping


#: A provisioned VM inside a search state: (vm type name, template queue).
VMState = tuple[str, tuple[str, ...]]


def freeze_counts(counts: Mapping[str, int] | Counter[str]) -> tuple[tuple[str, int], ...]:
    """Canonical, hashable form of a template multiset (zero counts dropped)."""
    return tuple(sorted((name, count) for name, count in counts.items() if count > 0))


@dataclass(frozen=True)
class SearchState:
    """One vertex of the scheduling graph.

    :meth:`remaining_total` and :meth:`has_remaining` are called once per A*
    frontier push / expansion, so both are backed by lazily materialised
    caches (a total and a frozenset of names) instead of re-scanning the
    multiset; the caches live in the instance ``__dict__`` and are excluded
    from equality and hashing.
    """

    #: Partial schedule: VMs in provisioning order with their template queues.
    vms: tuple[VMState, ...]
    #: Unassigned queries, as a frozen multiset of template names.
    remaining: tuple[tuple[str, int], ...]

    def __hash__(self) -> int:
        # Same basis as the dataclass-generated hash (the compare fields), but
        # cached: the A* search hashes each state several times (duplicate
        # checks and the visited set), and the nested tuples are not free.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.vms, self.remaining))
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- constructors ----------------------------------------------------------

    @classmethod
    def initial(cls, counts: Mapping[str, int] | Counter[str]) -> "SearchState":
        """The start vertex: nothing provisioned, every query unassigned."""
        return cls(vms=(), remaining=freeze_counts(counts))

    # -- accessors -------------------------------------------------------------

    def remaining_counts(self) -> Counter[str]:
        """The unassigned-template multiset as a mutable counter."""
        return Counter(dict(self.remaining))

    def remaining_total(self) -> int:
        """Number of queries still unassigned (cached on first use)."""
        cached = self.__dict__.get("_remaining_total")
        if cached is None:
            cached = sum(count for _, count in self.remaining)
            object.__setattr__(self, "_remaining_total", cached)
        return cached

    def remaining_templates(self) -> tuple[str, ...]:
        """Distinct template names with at least one unassigned query."""
        return tuple(name for name, _ in self.remaining)

    def has_remaining(self, template_name: str) -> bool:
        """True when at least one query of *template_name* is unassigned."""
        return template_name in self.remaining_name_set()

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

    def num_vms(self) -> int:
        """Number of VMs provisioned so far."""
        return len(self.vms)

    def last_vm(self) -> VMState | None:
        """The most recently provisioned VM, or ``None`` if there is none."""
        return self.vms[-1] if self.vms else None

    def last_vm_is_empty(self) -> bool:
        """True when the most recent VM exists and has no queries yet."""
        last = self.last_vm()
        return last is not None and not last[1]

    def assigned_total(self) -> int:
        """Number of queries assigned so far."""
        return sum(len(queue) for _, queue in self.vms)

    # -- transitions -----------------------------------------------------------

    def with_new_vm(self, vm_type_name: str) -> "SearchState":
        """Successor state after provisioning an empty VM of *vm_type_name*."""
        return SearchState(vms=self.vms + ((vm_type_name, ()),), remaining=self.remaining)

    def with_placement(self, template_name: str) -> "SearchState":
        """Successor state after placing one *template_name* query on the last VM."""
        if not self.vms:
            raise ValueError("cannot place a query before provisioning a VM")
        if not self.has_remaining(template_name):
            raise ValueError(f"no unassigned query of template {template_name!r}")
        # `remaining` is already in canonical sorted order, so decrementing one
        # entry in place preserves canonical form without re-sorting.
        remaining = tuple(
            (name, count - 1) if name == template_name else (name, count)
            for name, count in self.remaining
            if name != template_name or count > 1
        )
        vm_type_name, queue = self.vms[-1]
        updated_vm = (vm_type_name, queue + (template_name,))
        return SearchState(vms=self.vms[:-1] + (updated_vm,), remaining=remaining)

    # -- cosmetics ---------------------------------------------------------------

    def describe(self) -> str:
        """Compact human-readable rendering (useful in debugging/tests)."""
        vms = "; ".join(f"{vm_type}[{','.join(queue)}]" for vm_type, queue in self.vms)
        remaining = ", ".join(f"{name}x{count}" for name, count in self.remaining)
        return f"vms=({vms}) remaining=({remaining})"


def counts_from_templates(names: Iterable[str]) -> Counter[str]:
    """Counter over template names (convenience for building initial states)."""
    return Counter(names)
