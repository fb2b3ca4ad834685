"""Workload schedules: VM queues and their contents.

A *schedule* ``S = {vm_1^i, vm_2^j, ...}`` (Section 3) is a list of VMs, each
holding an ordered queue of queries to process.  A schedule answers the three
questions WiSeDB is asked: how many VMs of which types to rent, which VM each
query runs on, and in which order each VM processes its queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.cloud.vm import VMType
from repro.exceptions import UnsupportedQueryError
from repro.workloads.query import Query


@dataclass(frozen=True)
class VMAssignment:
    """One rented VM and the ordered queue of queries it will process."""

    vm_type: VMType
    queries: tuple[Query, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", tuple(self.queries))
        for query in self.queries:
            if not self.vm_type.supports(query.template_name):
                raise UnsupportedQueryError(query.template_name, self.vm_type.name)

    def is_empty(self) -> bool:
        """True when no queries are assigned to this VM."""
        return not self.queries

    def template_names(self) -> tuple[str, ...]:
        """Template names of the queued queries, in execution order."""
        return tuple(q.template_name for q in self.queries)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        queue = ", ".join(str(q) for q in self.queries)
        return f"{self.vm_type.name}[{queue}]"


class Schedule:
    """An immutable workload schedule (a list of VM assignments)."""

    def __init__(self, vms: Iterable[VMAssignment]) -> None:
        self._vms: tuple[VMAssignment, ...] = tuple(vms)

    # -- constructors --------------------------------------------------------

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._vms)

    def __iter__(self) -> Iterator[VMAssignment]:
        return iter(self._vms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schedule({len(self._vms)} VMs, {self.num_queries()} queries)"

    # -- accessors -----------------------------------------------------------

    def num_vms(self) -> int:
        """Number of VMs provisioned by this schedule."""
        return len(self._vms)

    def num_queries(self) -> int:
        """Total number of queries assigned across all VMs."""
        return sum(len(vm.queries) for vm in self._vms)

    def signature(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """A hashable structural summary: per VM, its type and template queue.

        Two schedules with the same signature are equivalent from WiSeDB's
        point of view because queries of the same template are interchangeable
        (Section 4.3).
        """
        return tuple((vm.vm_type.name, vm.template_names()) for vm in self._vms)

    # -- derivation ----------------------------------------------------------

    def without_empty_vms(self) -> "Schedule":
        """A copy with any empty VMs removed."""
        return Schedule(vm for vm in self._vms if not vm.is_empty())
