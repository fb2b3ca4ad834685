"""Open-loop load generation for the serving engine.

A closed-loop driver (submit, wait for the answer, submit again) hides
overload: when the system slows down, the driver slows down with it and the
measured latency stays flat.  The serving benchmarks therefore drive the
engine **open loop**: arrivals follow a pre-drawn schedule (see
:mod:`repro.workloads.arrivals`) replayed at a target offered rate regardless
of how fast decisions come back.  When the engine falls behind, the driver
does not sleep — it submits late arrivals immediately and counts them — so
queue growth, backpressure, and tail latency show up in the measurements
instead of being absorbed by the driver.

Epoch integrity: streams are replayed in global ``(arrival_time, tenant,
query id)`` order and the driver only pauses between *strictly increasing*
timestamps, never between two same-timestamp submissions of one tenant.
The engine closes an epoch only at a later timestamp or once its submitter
yields, so each same-timestamp group still lands in a single scheduling
epoch — the property the equivalence suite leans on.  The decisions run on
the driver's own turn: a submit that crosses a tenant's timestamp decides
the epoch it closes, and a pause lets the idle flush decide the rest.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.exceptions import SpecificationError
from repro.serving.engine import ServingEngine
from repro.workloads.query import Query
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class TenantStream:
    """One tenant's arrival schedule (a workload with arrival times set)."""

    tenant: str
    workload: Workload


@dataclass(frozen=True)
class LoadReport:
    """What an open-loop drive actually did, wall-clock-wise."""

    #: Queries offered across all streams.
    submitted: int
    #: Queries refused by the shed backpressure policy during the drive.
    shed: int
    #: Arrivals submitted behind their scheduled time — every member of a
    #: same-timestamp group whose due time had already passed when the group
    #: came up, not one tick per group (the engine, not the driver, was the
    #: bottleneck).
    late: int
    #: Offered rate implied by the replayed schedule (arrivals/sec), or
    #: ``None`` for a firehose drive: no ``target_rate``, or a schedule whose
    #: arrivals share one timestamp (zero span — nothing to pace against).
    offered_rate: float | None
    #: Wall-clock seconds spent submitting (the open-loop phase).
    submit_seconds: float
    #: Wall-clock seconds until every admitted query was decided.
    total_seconds: float
    #: Decisions per wall-clock second, end to end (admitted / total).
    sustained_rate: float

    @property
    def utilization(self) -> float | None:
        """``sustained_rate / offered_rate`` for a paced drive, else ``None``.

        A paced drive's raw throughput is bounded by the offered rate — the
        driver *waits* between arrivals — so reporting ``sustained_rate``
        alone makes an under-loaded endpoint look slower than an overloaded
        one.  Utilization is the honest number: ~1.0 means the engine kept up
        with everything that was offered; firehose drives (no pacing) have no
        offered rate to compare against and report ``None``.
        """
        if self.offered_rate is None or self.offered_rate <= 0:
            return None
        return self.sustained_rate / self.offered_rate


def merge_streams(streams: list[TenantStream]) -> list[tuple[float, str, Query]]:
    """All arrivals in replay order: ``(arrival_time, tenant, query id)``.

    Sorting by tenant *within* a timestamp keeps each tenant's same-timestamp
    group contiguous, so the driver never interleaves another tenant's
    submissions into the middle of an epoch.
    """
    merged = [
        (query.arrival_time, stream.tenant, query)
        for stream in streams
        for query in stream.workload
    ]
    merged.sort(key=lambda entry: (entry[0], entry[1], entry[2].query_id))
    return merged


async def drive(
    engine: ServingEngine,
    streams: list[TenantStream],
    target_rate: float | None = None,
    yield_every: int = 64,
) -> LoadReport:
    """Replay *streams* into *engine* open loop, then drain and report.

    ``target_rate`` rescales the schedule to the given total offered
    arrivals/sec (``None`` replays as fast as possible — a firehose — while
    still yielding to the loop every ``yield_every`` submissions at epoch
    boundaries, so other work on it, a sharded router's batch frames among
    it, interleaves with admission).
    """
    if target_rate is not None and target_rate <= 0:
        raise SpecificationError("target_rate must be positive")
    if yield_every < 1:
        raise SpecificationError("yield_every must be at least 1")
    arrivals = merge_streams(streams)
    offered_rate: float | None = None
    scale = 0.0
    if arrivals and target_rate is not None:
        span = arrivals[-1][0] - arrivals[0][0]
        if span > 0:
            # Only a schedule with an actual span can be paced; single-
            # timestamp schedules run firehose and must report it as such.
            scale = (len(arrivals) / span) / target_rate
            offered_rate = target_rate
    shed = late = since_yield = 0
    first_time = arrivals[0][0] if arrivals else 0.0
    previous_time = first_time
    # Whether the group currently being submitted came up past its due time.
    # Lateness is decided once per group, at the pacing boundary, and then
    # charged to every member: a raw per-arrival clock check would flag
    # punctual groups too (asyncio.sleep wakes microseconds after the due
    # time).  The first group's due time is the drive start itself, so it is
    # punctual by construction.
    behind = False
    started = time.perf_counter()
    for arrival_time, tenant, query in arrivals:
        if arrival_time > previous_time:
            # A strictly later timestamp: every pending same-timestamp group
            # is complete, so this is the only place pausing is allowed.
            if scale > 0.0:
                due = started + (arrival_time - first_time) * scale
                delay = due - time.perf_counter()
                if delay > 0:
                    behind = False
                    await asyncio.sleep(delay)
                else:
                    behind = True
            elif since_yield >= yield_every:
                since_yield = 0
                await asyncio.sleep(0)
            previous_time = arrival_time
        if behind:
            late += 1
        admission = await engine.submit(tenant, query)
        since_yield += 1
        if not admission.admitted:
            shed += 1
    submit_seconds = time.perf_counter() - started
    await engine.drain()
    total_seconds = time.perf_counter() - started
    admitted = len(arrivals) - shed
    return LoadReport(
        submitted=len(arrivals),
        shed=shed,
        late=late,
        offered_rate=offered_rate,
        submit_seconds=submit_seconds,
        total_seconds=total_seconds,
        sustained_rate=admitted / total_seconds if total_seconds > 0 else 0.0,
    )
