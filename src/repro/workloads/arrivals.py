"""Seeded arrival-process generators for open-loop serving workloads.

The serving harness (:mod:`repro.serving`) drives engines *open loop*: queries
are submitted on a pre-drawn arrival schedule at a target offered rate,
regardless of how fast the system answers — the standard methodology for
measuring serving tail latency honestly.  This module draws those schedules.
Two processes cover the classic shapes:

* :func:`poisson_arrivals` — memoryless traffic at a constant rate;
* :func:`bursty_arrivals` — a two-state Markov-modulated Poisson process
  (quiet periods punctuated by bursts at a higher rate).

Every draw is deterministic per ``(seed, tenant)`` in the style of
:mod:`repro.faults` stream derivation: each stream owns a private
``random.Random`` keyed by a namespaced string, so adding tenants or
reordering calls never perturbs another stream, and the same ``(seed,
tenant)`` pair yields the same schedule in any process.  Golden digests in
``tests/test_workloads_arrivals.py`` pin the streams.

An optional ``quantum`` snaps arrival times onto a grid, which makes nearby
arrivals share exact timestamps — precisely the same-timestamp epochs the
online scheduler coalesces into one scheduling event (PR 3 semantics), so
quantized streams exercise the admission-batching path.
"""

from __future__ import annotations

import random

from repro.exceptions import SpecificationError
from repro.workloads.templates import TemplateSet
from repro.workloads.workload import Workload

#: Namespace prefix for arrival-stream RNG derivation (mirrors
#: ``wisedb-faults:{seed}:{vm_index}`` in :mod:`repro.faults.plan`).
_STREAM_NAMESPACE = "wisedb-arrivals"


def arrival_stream_rng(process: str, seed: int, tenant: str) -> random.Random:
    """The private RNG for one ``(process, seed, tenant)`` arrival stream."""
    return random.Random(f"{_STREAM_NAMESPACE}:{process}:{seed}:{tenant}")


def _validate(templates: TemplateSet, num_queries: int) -> None:
    if len(templates) == 0:
        raise SpecificationError("arrival processes need at least one template")
    if num_queries < 0:
        raise SpecificationError("num_queries must be non-negative")


def _quantize(time_value: float, quantum: float | None) -> float:
    if quantum is None:
        return time_value
    return round(time_value / quantum) * quantum


def _workload(
    templates: TemplateSet,
    rng: random.Random,
    arrival_times: list[float],
    quantum: float | None,
) -> Workload:
    names = templates.names
    chosen = [rng.choice(names) for _ in arrival_times]
    workload = Workload.from_template_names(templates, chosen)
    queries = [
        query.with_arrival_time(_quantize(when, quantum))
        for query, when in zip(workload, arrival_times)
    ]
    return workload.with_queries(queries)


def poisson_arrivals(
    templates: TemplateSet,
    num_queries: int,
    rate: float,
    seed: int = 0,
    tenant: str = "default",
    quantum: float | None = None,
) -> Workload:
    """A homogeneous Poisson arrival stream at *rate* arrivals/second.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/rate``; template
    choices are uniform.  Deterministic per ``(seed, tenant)``.
    """
    _validate(templates, num_queries)
    if rate <= 0:
        raise SpecificationError("rate must be positive")
    rng = arrival_stream_rng("poisson", seed, tenant)
    current = 0.0
    arrival_times = []
    for _ in range(num_queries):
        current += rng.expovariate(rate)
        arrival_times.append(current)
    return _workload(templates, rng, arrival_times, quantum)


def bursty_arrivals(
    templates: TemplateSet,
    num_queries: int,
    base_rate: float,
    burst_rate: float,
    seed: int = 0,
    tenant: str = "default",
    enter_burst: float = 0.05,
    exit_burst: float = 0.25,
    quantum: float | None = None,
) -> Workload:
    """A two-state Markov-modulated Poisson stream (quiet / burst).

    The process draws exponential gaps at ``base_rate`` while quiet and at
    ``burst_rate`` while bursting; after every arrival it switches state with
    probability ``enter_burst`` (quiet→burst) or ``exit_burst`` (burst→quiet).
    With the defaults, bursts are rare but sticky enough to pile arrivals up —
    the overload shape the backpressure tests lean on.
    """
    _validate(templates, num_queries)
    if base_rate <= 0 or burst_rate <= 0:
        raise SpecificationError("arrival rates must be positive")
    if burst_rate < base_rate:
        raise SpecificationError("burst_rate must be at least base_rate")
    for name, probability in (("enter_burst", enter_burst), ("exit_burst", exit_burst)):
        if not 0.0 <= probability <= 1.0:
            raise SpecificationError(f"{name} must be a probability in [0, 1]")
    rng = arrival_stream_rng("bursty", seed, tenant)
    current = 0.0
    bursting = False
    arrival_times = []
    for _ in range(num_queries):
        current += rng.expovariate(burst_rate if bursting else base_rate)
        arrival_times.append(current)
        if bursting:
            bursting = rng.random() >= exit_burst
        else:
            bursting = rng.random() < enter_burst
    return _workload(templates, rng, arrival_times, quantum)
