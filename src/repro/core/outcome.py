"""Execution outcomes: what actually happened to each query.

The SLA machinery (violation periods, penalties) and the cost model both
operate on *outcomes* — per-query completion information produced either by
the cloud simulator (for full schedules) or analytically by the scheduling
graph (for partial schedules during search).  Keeping this type free of any
cloud/SLA dependencies lets both packages share it without import cycles.

A :class:`QueryOutcome` is a named tuple, not a frozen dataclass: pricing a
batch builds one per query (4,000 for a large batch), and a positional
build through the validating ``__new__`` takes about 0.7 µs where the
keyword dataclass ``__init__`` took 2.8–3.7 µs, at 112 rather than 144
bytes per record (CPython 3.11, ``tracemalloc``, field values not counted).
The record keeps the dataclass's field names and order, ``==``/``hash``/
``repr`` by value, and both order checks on every construction path
(positional, keyword, ``_make``, ``_replace`` and unpickling).  It is still
tracked by the garbage collector: CPython untracks only *exact* tuples.
"""

from __future__ import annotations

from typing import NamedTuple


class _OutcomeFields(NamedTuple):
    query_id: int
    template_name: str
    vm_index: int
    vm_type_name: str
    arrival_time: float
    start_time: float
    completion_time: float
    execution_time: float


class QueryOutcome(_OutcomeFields):
    """The observed execution of a single query.

    Attributes
    ----------
    query_id:
        Identifier of the query (0 for synthetic outcomes built during search).
    template_name:
        Template the query belongs to (as far as the scheduler knows).
    vm_index:
        Index of the VM in the schedule that executed the query.
    vm_type_name:
        Name of that VM's type.
    arrival_time:
        When the query was submitted (0.0 for batch workloads).
    start_time:
        When the query began executing on its VM.
    completion_time:
        When the query finished executing.
    execution_time:
        Pure processing time on the VM (completion − start).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "QueryOutcome":
        if kwargs or len(args) != 8:  # not all eight positionally: bind them
            args = _OutcomeFields.__new__(cls, *args, **kwargs)
        _, _, _, _, arrival_time, start_time, completion_time, _ = args
        if completion_time < start_time:
            raise ValueError("completion_time must not precede start_time")
        if start_time < arrival_time:
            raise ValueError("start_time must not precede arrival_time")
        return tuple.__new__(cls, args)

    @classmethod
    def _make(cls, iterable) -> "QueryOutcome":
        # The default builds the tuple directly; ``_replace`` goes through here.
        return cls(*iterable)

    @property
    def latency(self) -> float:
        """Observed latency: completion time minus arrival time.

        For batch workloads (arrival at t=0) this includes the time spent
        waiting behind other queries on the same VM, which is exactly the
        quantity the paper's performance goals constrain.
        """
        return self.completion_time - self.arrival_time
