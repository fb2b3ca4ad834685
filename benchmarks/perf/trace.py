"""Span tracing from outside the program, for the benchmark's traced run.

The traced run wraps the public callables listed in :data:`TARGETS` by
attribute replacement *before* any engine is built, and records one span per
call — ``(name, start_ns, end_ns, parent, op_id)`` — into buffers allocated
once up front.  Nothing is written while the benchmark runs; the report is
computed from the buffers afterwards.  A layer's *self time* is its spans'
duration minus the part their child spans cover.

Only the process that installed the tracer records: a forked shard worker
inherits the wrappers but recording is switched off there (worker-side
numbers come from ``await engine.metrics()`` and ``os.times()``).  Spans
inside the program are a later change (ROADMAP item 1).
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

#: ``(span name, module, class or None, attribute, op hook or None)``.
#: The op hook maps the call's arguments to the op id every nested span
#: inherits (one serving epoch, identified by its first arrival's query id).
TARGETS = (
    ("serving.loadgen.drive", "repro.serving.loadgen", None, "drive", None),
    (
        "serving.engine.submit",
        "repro.serving.engine",
        "ServingEngine",
        "submit",
        lambda self, tenant, query, ticket=False: query.query_id,
    ),
    ("serving.engine.drain", "repro.serving.engine", "ServingEngine", "drain", None),
    ("serving.engine.metrics", "repro.serving.engine", "ServingEngine", "metrics", None),
    ("serving.engine.close", "repro.serving.engine", "ServingEngine", "close", None),
    (
        "serving.sharded.submit",
        "repro.serving.sharded",
        "ShardedServingEngine",
        "submit",
        lambda self, tenant, query, ticket=False: query.query_id,
    ),
    ("serving.sharded.warm", "repro.serving.sharded", "ShardedServingEngine", "warm", None),
    ("serving.sharded.drain", "repro.serving.sharded", "ShardedServingEngine", "drain", None),
    ("serving.sharded.metrics", "repro.serving.sharded", "ShardedServingEngine", "metrics", None),
    ("serving.sharded.close", "repro.serving.sharded", "ShardedServingEngine", "close", None),
    (
        "runtime.online.submit",
        "repro.runtime.online",
        "OnlineSession",
        "submit",
        lambda self, arrivals: arrivals[0].query_id,
    ),
    ("runtime.online.finalize", "repro.runtime.online", "OnlineSession", "finalize", None),
    ("runtime.batch.run", "repro.runtime.batch", "BatchScheduler", "run", None),
    (
        "runtime.batch.schedule_detailed",
        "repro.runtime.batch",
        "BatchScheduler",
        "schedule_detailed",
        None,
    ),
    (
        "runtime.batch.cost_row",
        "repro.runtime.batch",
        "RuntimeSchedulingContext",
        "placement_cost_row",
        None,
    ),
    ("learning.model.decide", "repro.learning.model", "DecisionModel", "decide", None),
    (
        "learning.features.extract",
        "repro.learning.features",
        "FeatureExtractor",
        "extract_into",
        None,
    ),
    ("learning.features.matrix", "repro.learning.features", "FeatureExtractor", "matrix", None),
    (
        "learning.decision_tree.predict",
        "repro.learning.decision_tree",
        "CompiledTreeEvaluator",
        "predict_row",
        None,
    ),
    (
        "learning.decision_tree.fit",
        "repro.learning.decision_tree",
        "DecisionTreeClassifier",
        "fit",
        None,
    ),
    ("learning.trainer.generate", "repro.learning.trainer", "ModelGenerator", "generate", None),
    ("learning.trainer.solve", "repro.learning.trainer", "SampleSolver", "solve", None),
    ("learning.shm.pack", "repro.learning.shm", None, "pack_evaluator", None),
    ("learning.shm.attach", "repro.learning.shm", None, "attach_evaluator", None),
    ("search.astar.search", "repro.search.astar", None, "astar_search", None),
    (
        "adaptive.retraining.retrain",
        "repro.adaptive.retraining",
        "AdaptiveModeler",
        "retrain",
        None,
    ),
    ("service.service.train", "repro.service.service", "WiSeDBService", "train", None),
    ("service.service.adapt", "repro.service.service", "WiSeDBService", "adapt", None),
    (
        "service.service.schedule_batch",
        "repro.service.service",
        "WiSeDBService",
        "schedule_batch",
        None,
    ),
    ("service.registry.put", "repro.service.registry", "ModelRegistry", "put", None),
    ("service.registry.get", "repro.service.registry", "ModelRegistry", "get", None),
    ("service.registry.find_base", "repro.service.registry", "ModelRegistry", "find_base", None),
    ("core.cost_model.breakdown", "repro.core.cost_model", None, "breakdown_from_trace", None),
    ("cloud.simulator.simulate", "repro.cloud.simulator", "ScheduleSimulator", "run", None),
)

#: Class attributes that alias a wrapped method and must follow it.
ALIASES = {("repro.learning.trainer", "SampleSolver", "solve"): ("__call__",)}

#: Results whose public fields feed counters: ``span name -> (counter, getter)``.
RESULT_COUNTS = {
    "search.astar.search": (
        ("search.astar.expansions", lambda result: result.expansions),
        ("search.astar.generated", lambda result: result.generated),
    ),
    # ``AdaptiveModeler.retrain`` returns ``(TrainingResult, AdaptiveRetrainingReport)``.
    "adaptive.retraining.retrain": (
        ("adaptive.retraining.samples_retrained", lambda result: result[1].samples_retrained),
        ("adaptive.retraining.samples_skipped", lambda result: result[1].samples_skipped),
        ("adaptive.retraining.expansions", lambda result: result[1].total_expansions),
    ),
}


@dataclass(frozen=True)
class LayerTimes:
    """Aggregate of one span name over a slice of the buffer."""

    calls: int
    total_ns: int
    self_ns: int

    @property
    def mean_us(self) -> float:
        return self.total_ns / self.calls / 1e3 if self.calls else 0.0

    @property
    def mean_ms(self) -> float:
        return self.mean_us / 1e3

    @property
    def self_mean_us(self) -> float:
        return self.self_ns / self.calls / 1e3 if self.calls else 0.0


_NO_TIMES = LayerTimes(0, 0, 0)


class Tracer:
    """Preallocated span buffers plus the wrappers that fill them."""

    def __init__(self, capacity: int = 2_000_000) -> None:
        self.capacity = capacity
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i", bytes(4 * capacity))
        self.start = array("q", bytes(8 * capacity))
        self.end = array("q", bytes(8 * capacity))
        self.parent = array("i", bytes(4 * capacity))
        self.op = array("q", bytes(8 * capacity))
        self.count = 0
        self.dropped = 0
        self.counters: dict[str, int] = defaultdict(int)
        self.on = False
        self._stack: list[int] = []
        self._op = -1
        self._originals: list[tuple[object, str, object]] = []
        self._owner = os.getpid()
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.on = False

    # -- recording ---------------------------------------------------------------

    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _open(self, ident: int) -> int:
        index = self.count
        if index >= self.capacity:
            self.dropped += 1
            return -1
        self.count = index + 1
        stack = self._stack
        self.name_id[index] = ident
        self.parent[index] = stack[-1] if stack else -1
        self.op[index] = self._op
        stack.append(index)
        self.start[index] = time.perf_counter_ns()
        return index

    def _close(self, index: int) -> None:
        if index < 0:
            return
        self.end[index] = time.perf_counter_ns()
        stack = self._stack
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            # A coroutine span that other tasks' spans interleaved with.
            stack.remove(index)
            self.counters["trace.interleaved"] += 1

    def span(self, name: str, op: int | None = None) -> "_Span":
        """A span opened by the benchmark itself (``with tracer.span(...)``)."""
        return _Span(self, self._intern(name), op)

    def _wrap(self, name: str, original, op_of):
        ident = self._intern(name)
        tracer = self
        counts = RESULT_COUNTS.get(name, ())

        if asyncio.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced(*args, **kwargs):
                if not tracer.on:
                    return await original(*args, **kwargs)
                previous = tracer._op
                if op_of is not None:
                    tracer._op = op_of(*args, **kwargs)
                index = tracer._open(ident)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._close(index)
                    tracer._op = previous

        elif op_of is not None or counts:

            @functools.wraps(original)
            def traced(*args, **kwargs):
                if not tracer.on:
                    return original(*args, **kwargs)
                previous = tracer._op
                if op_of is not None:
                    tracer._op = op_of(*args, **kwargs)
                index = tracer._open(ident)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
                    tracer._op = previous
                for counter, getter in counts:
                    tracer.counters[counter] += getter(result)
                return result

        else:

            @functools.wraps(original)
            def traced(*args, **kwargs):
                if not tracer.on:
                    return original(*args, **kwargs)
                index = tracer._open(ident)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._close(index)

        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Replace every target with its recording wrapper and start recording."""
        for name, module_name, class_name, attribute, op_of in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                original = getattr(module, attribute)
                wrapper = self._wrap(name, original, op_of)
                # ``from x import f`` copies the binding: follow it everywhere.
                for other in list(sys.modules.values()):
                    if other is None or not getattr(other, "__name__", "").startswith("repro"):
                        continue
                    if getattr(other, attribute, None) is original:
                        self._originals.append((other, attribute, original))
                        setattr(other, attribute, wrapper)
                continue
            owner = getattr(module, class_name)
            original = owner.__dict__[attribute]
            wrapper = self._wrap(name, original, op_of)
            aliases = ALIASES.get((module_name, class_name, attribute), ())
            for target in (attribute, *aliases):
                self._originals.append((owner, target, owner.__dict__[target]))
                setattr(owner, target, wrapper)
        self.on = True

    def uninstall(self) -> None:
        """Stop recording and put every original callable back."""
        self.on = False
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    # -- reporting ---------------------------------------------------------------

    def mark(self) -> int:
        """The current end of the buffer (slice boundary for :meth:`times`)."""
        return self.count

    def times(self, begin: int = 0, end: int | None = None) -> dict[str, LayerTimes]:
        """Calls, total and self time per span name over ``[begin, end)``."""
        end = self.count if end is None else end
        start_ns, end_ns, parent, name_id = self.start, self.end, self.parent, self.name_id
        children = defaultdict(int)
        for index in range(begin, end):
            above = parent[index]
            if above >= begin:
                children[above] += end_ns[index] - start_ns[index]
        calls = defaultdict(int)
        total = defaultdict(int)
        own = defaultdict(int)
        for index in range(begin, end):
            ident = name_id[index]
            duration = end_ns[index] - start_ns[index]
            calls[ident] += 1
            total[ident] += duration
            own[ident] += duration - children.get(index, 0)
        return {
            self.names[ident]: LayerTimes(calls[ident], total[ident], own[ident])
            for ident in calls
        }

    def nested_ns(self, outer: str, inner: str) -> int:
        """Total ns of *inner* spans whose direct parent is an *outer* span."""
        outer_id, inner_id = self._name_ids.get(outer), self._name_ids.get(inner)
        if outer_id is None or inner_id is None:
            return 0
        total = 0
        for index in range(self.count):
            above = self.parent[index]
            if self.name_id[index] == inner_id and above >= 0 and self.name_id[above] == outer_id:
                total += self.end[index] - self.start[index]
        return total

    def rows(self, begin: int = 0, end: int | None = None):
        """Raw ``(name, start_ns, end_ns, parent, op_id)`` rows, for ``--out``."""
        end = self.count if end is None else end
        return [
            (
                self.names[self.name_id[index]],
                self.start[index],
                self.end[index],
                self.parent[index],
                self.op[index],
            )
            for index in range(begin, end)
        ]


class _Span:
    __slots__ = ("_tracer", "_ident", "_op", "_index", "_previous")

    def __init__(self, tracer: Tracer, ident: int, op: int | None) -> None:
        self._tracer = tracer
        self._ident = ident
        self._op = op

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._previous = tracer._op
        if self._op is not None:
            tracer._op = self._op
        self._index = tracer._open(self._ident) if tracer.on else -1
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._close(self._index)
        self._tracer._op = self._previous


class NullTracer:
    """The untraced run's stand-in: spans cost one ``with`` and record nothing."""

    on = False

    def span(self, name: str, op: int | None = None):
        return _NULL_SPAN

    def mark(self) -> int:
        return 0


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


def layer(times: dict[str, LayerTimes], name: str) -> LayerTimes:
    """The aggregate for *name*, or zeros when the run never entered it."""
    return times.get(name, _NO_TIMES)


def self_time_table(times: dict[str, LayerTimes], wall_ns: int) -> str:
    """The self-time table of one phase, widest layers first."""
    lines = [f"{'span':36} {'calls':>9} {'total ms':>10} {'self ms':>10} {'self %':>7}"]
    for name, entry in sorted(times.items(), key=lambda item: -item[1].self_ns):
        lines.append(
            f"{name:36} {entry.calls:9d} {entry.total_ns / 1e6:10.1f} "
            f"{entry.self_ns / 1e6:10.1f} {100.0 * entry.self_ns / max(1, wall_ns):6.1f}%"
        )
    covered = sum(entry.self_ns for entry in times.values())
    lines.append(f"{'sum of self times':36} {'':9} {'':10} {covered / 1e6:10.1f} "
                 f"{100.0 * covered / max(1, wall_ns):6.1f}%")
    return "\n".join(lines)
