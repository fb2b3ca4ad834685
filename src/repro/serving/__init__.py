"""Async multi-tenant serving front end over :class:`~repro.service.WiSeDBService`.

This package is the serving layer the ROADMAP's north star calls for: it
turns the library-shaped service into a long-lived endpoint that multiplexes
many tenants on one event loop, funnels each tenant's arrivals through its
online scheduler's epoch-batching path, applies explicit backpressure, and
exposes health and metrics.

* :class:`ServingEngine` — the front end: per-tenant lanes (bounded admission
  queue + worker task + incremental
  :class:`~repro.runtime.online.OnlineSession`), ``block``/``shed``
  backpressure, sticky degraded fallback, single-writer tenant guards, and a
  bit-identical-to-``OnlineScheduler.run`` decision stream;
* :class:`ServingMetrics` / :class:`TenantMetrics` — observability snapshots
  (per-tenant decision p50/p99, queue depth, admitted/shed/degraded counters,
  epochs, retrains) plus :meth:`ServingEngine.health`;
* :func:`drive` / :class:`TenantStream` / :class:`LoadReport` — the open-loop
  workload driver behind ``examples/serve_demo.py``, replaying seeded
  arrival processes (:mod:`repro.workloads.arrivals`) at a target offered
  rate regardless of response times;
* :class:`ShardedServingEngine` — the router: tenants partitioned by
  :func:`shard_of` across shard workers (:mod:`repro.serving.worker`) that
  run in forked processes or on the router's loop, one frame protocol
  (:mod:`repro.serving.channel`) for both, each model shipped once through
  the worker's pipe, per-shard snapshots merged by :func:`merge_metrics`,
  bit-identical outcomes for any shard count.
"""

from repro.serving.engine import (
    Admission,
    ServingDecision,
    ServingEngine,
    ServingTicket,
)
from repro.serving.loadgen import LoadReport, TenantStream, drive, merge_streams
from repro.serving.metrics import (
    ServingMetrics,
    TenantMetrics,
    merge_metrics,
    percentile,
)
from repro.serving.sharded import ShardedServingEngine, shard_of

__all__ = [
    "Admission",
    "LoadReport",
    "ServingDecision",
    "ServingEngine",
    "ServingMetrics",
    "ServingTicket",
    "ShardedServingEngine",
    "TenantMetrics",
    "TenantStream",
    "drive",
    "merge_metrics",
    "merge_streams",
    "percentile",
    "shard_of",
]
