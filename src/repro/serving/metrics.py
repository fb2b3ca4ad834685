"""Observability surface of the serving engine.

Snapshots are plain frozen dataclasses assembled on demand from the engine's
per-tenant lanes — taking one never blocks the decision path, and the hot
counters the lanes maintain are single ints/floats appended per decision.

The counter identities the accounting tests pin::

    submitted == admitted + shed
    admitted  == decided + failed + in_flight
    in_flight == queue_depth + pending_epoch

``decided`` includes degraded decisions (they *are* answers, served by the
FFD fallback and stamped with a reason); ``failed`` counts queries whose lane
refused to answer because degradation is disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import SpecificationError


def percentile(values: list[float], fraction: float) -> float:
    """The *fraction*-quantile of *values* (nearest-rank; NaN when empty)."""
    if not values:
        return math.nan
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class TenantMetrics:
    """One tenant lane's counters and decision-latency percentiles."""

    tenant: str
    #: Queries offered to :meth:`ServingEngine.submit` for this tenant.
    submitted: int
    #: Queries accepted into the admission queue.
    admitted: int
    #: Queries refused by the ``shed`` backpressure policy (with reasons).
    shed: int
    #: Queries answered with a placement (learned or degraded).
    decided: int
    #: Decided queries that were served by the degraded FFD fallback.
    degraded: int
    #: Queries the lane could not answer (degradation disabled).
    failed: int
    #: Queries currently waiting in the admission queue.
    queue_depth: int
    #: Queries admitted but not yet decided (queue + pending epoch).
    in_flight: int
    #: Scheduling events decided (same-timestamp arrivals share one epoch).
    epochs: int
    #: Model retrainings triggered by accumulated waits.
    retrains: int
    #: Wait-bucket cache hits on the decision path.
    cache_hits: int
    #: Decision latency percentiles over the lane's recent window, in seconds
    #: (submission to decision; NaN until the first decision).
    decision_p50: float
    decision_p99: float
    #: Sticky degradation reason (``None`` while the learned path is healthy).
    degraded_reason: str | None = None

    def check_identities(self) -> None:
        """Raise ``AssertionError`` unless the counter identities hold."""
        assert self.submitted == self.admitted + self.shed, self
        assert self.admitted == self.decided + self.failed + self.in_flight, self


@dataclass(frozen=True)
class ServingMetrics:
    """A whole-engine snapshot: health plus one entry per tenant lane."""

    status: str
    tenants: tuple[TenantMetrics, ...] = field(default_factory=tuple)
    #: Pipelined-admission counters, maintained by the sharded router's
    #: per-shard outboxes (always zero for a single-process engine): frames
    #: sent to shard workers, and queries those frames carried.  Every batch
    #: carrying more than one query is a pipe round trip the pre-batched
    #: request/reply protocol would have paid — see :attr:`rtts_saved`.
    batches_sent: int = 0
    batched_queries: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Queries per submit-batch frame (NaN before the first frame)."""
        if self.batches_sent == 0:
            return math.nan
        return self.batched_queries / self.batches_sent

    @property
    def rtts_saved(self) -> int:
        """Pipe round trips the batched protocol avoided (vs one per query)."""
        return max(0, self.batched_queries - self.batches_sent)

    @property
    def submitted(self) -> int:
        return sum(entry.submitted for entry in self.tenants)

    @property
    def shed(self) -> int:
        return sum(entry.shed for entry in self.tenants)

    @property
    def decided(self) -> int:
        return sum(entry.decided for entry in self.tenants)

    @property
    def degraded(self) -> int:
        return sum(entry.degraded for entry in self.tenants)

    @property
    def failed(self) -> int:
        return sum(entry.failed for entry in self.tenants)

    @property
    def epochs(self) -> int:
        return sum(entry.epochs for entry in self.tenants)

    @property
    def retrains(self) -> int:
        return sum(entry.retrains for entry in self.tenants)

    def describe(self) -> str:
        """A compact multi-line human-readable rendering."""
        lines = [
            f"serving status={self.status} tenants={len(self.tenants)} "
            f"submitted={self.submitted} decided={self.decided} "
            f"shed={self.shed} degraded={self.degraded}"
        ]
        if self.batches_sent:
            lines.append(
                f"  pipe: batches={self.batches_sent} "
                f"mean_batch={self.mean_batch_size:.1f} "
                f"rtts_saved={self.rtts_saved}"
            )
        for entry in self.tenants:
            p50 = "-" if math.isnan(entry.decision_p50) else f"{entry.decision_p50 * 1e3:.2f}ms"
            p99 = "-" if math.isnan(entry.decision_p99) else f"{entry.decision_p99 * 1e3:.2f}ms"
            line = (
                f"  {entry.tenant}: decided={entry.decided}/{entry.submitted} "
                f"epochs={entry.epochs} retrains={entry.retrains} "
                f"shed={entry.shed} degraded={entry.degraded} "
                f"queue={entry.queue_depth} p50={p50} p99={p99}"
            )
            if entry.degraded_reason:
                line += f" [{entry.degraded_reason}]"
            lines.append(line)
        return "\n".join(lines)


#: Engine-status precedence used when merging per-shard snapshots.
_STATUS_ORDER = ("failed", "closed", "overloaded", "degraded", "ok")


def merge_metrics(
    snapshots: Sequence[ServingMetrics], closed: bool | None = None
) -> ServingMetrics:
    """Merge per-shard snapshots into one engine-wide :class:`ServingMetrics`.

    Shards own disjoint tenant sets, so the merge is pure concatenation —
    every per-tenant entry (and therefore every counter identity
    ``check_identities`` pins) is preserved verbatim, even when one shard is
    mid-drain or blocked admitting while another is snapshotted.  A tenant
    appearing in two snapshots means the router misrouted and is refused.

    The merged status takes the worst per-shard status under the single-
    engine precedence (``failed`` > ``closed`` > ``overloaded`` > ``degraded``
    > ``ok``); pass ``closed`` to override the closed-ness of the merged
    engine (a router knows whether *it* closed, individual shards may lag).
    """
    if not snapshots:
        return ServingMetrics(status="closed" if closed else "ok")
    entries: list[TenantMetrics] = []
    seen: set[str] = set()
    for snapshot in snapshots:
        for entry in snapshot.tenants:
            if entry.tenant in seen:
                raise SpecificationError(
                    f"tenant {entry.tenant!r} appears in more than one shard "
                    "snapshot; shards must own disjoint tenant sets"
                )
            seen.add(entry.tenant)
            entries.append(entry)
    statuses = {snapshot.status for snapshot in snapshots}
    unknown = statuses.difference(_STATUS_ORDER)
    if unknown:
        raise SpecificationError(f"cannot merge unknown engine statuses {unknown}")
    if closed is True:
        statuses.add("closed")
    elif closed is False:
        statuses.discard("closed")
    status = next(
        (candidate for candidate in _STATUS_ORDER if candidate in statuses), "ok"
    )
    return ServingMetrics(
        status=status,
        tenants=tuple(entries),
        batches_sent=sum(snapshot.batches_sent for snapshot in snapshots),
        batched_queries=sum(snapshot.batched_queries for snapshot in snapshots),
    )
