"""Default constants and tunable configuration for the WiSeDB reproduction.

The values below mirror Section 7.1 of the paper:

* the database application rents ``t2.medium``-class VMs at **$0.052 / hour**
  with a measured start-up cost of **$0.0008**;
* penalties accrue at **1 cent per second** of violation;
* models are trained on **N = 3000** sample workloads of **m = 18** queries.

The paper's training runs in Java and completes in 20-120 seconds; a pure
Python A* is considerably slower, so :class:`TrainingConfig` exposes both the
paper-scale defaults and a :meth:`TrainingConfig.fast` preset used by the test
suite and benchmark harness.  Every experiment in ``benchmarks/`` documents the
scale it uses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro import units

# ---------------------------------------------------------------------------
# Inference-path selection
# ---------------------------------------------------------------------------

#: Environment variable forcing the legacy (dict feature / tree node-walk)
#: inference path everywhere the vectorized fast path would otherwise run.
SLOW_PATH_ENV = "REPRO_SLOW_PATH"


def slow_path_enabled() -> bool:
    """True when ``REPRO_SLOW_PATH`` requests the legacy inference path.

    The fast path (a walk of the compiled decision tree that computes only
    the features it tests, and epoch-batched online scheduling) is
    bit-identical to the legacy path — the golden-scenario suite asserts the
    digests match both ways — so this escape hatch exists for debugging and
    for the equivalence tests, not for correctness.  Checked at call time so
    tests can toggle it per-case via ``monkeypatch.setenv``.
    """
    value = os.environ.get(SLOW_PATH_ENV, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")

# ---------------------------------------------------------------------------
# Pricing defaults (Section 7.1)
# ---------------------------------------------------------------------------

#: Rental price of the reference VM type (t2.medium analogue), cents/second.
DEFAULT_RUNNING_COST = units.dollars_per_hour(0.052)

#: Start-up fee of the reference VM type, in cents ($0.0008).
DEFAULT_STARTUP_COST = units.dollars(0.0008)

#: Penalty accrued per second of SLA violation, in cents (1 cent / second).
DEFAULT_PENALTY_RATE = 1.0

# ---------------------------------------------------------------------------
# Performance-goal defaults (Section 7.1)
# ---------------------------------------------------------------------------

#: Max-latency goal: 15 minutes (2.5x the longest template's latency).
DEFAULT_MAX_LATENCY_DEADLINE = units.minutes(15)

#: Per-query goal: deadline = 3x the template's expected latency.
DEFAULT_PER_QUERY_FACTOR = 3.0

#: Average-latency goal: 10 minutes (2.5x the average template latency).
DEFAULT_AVERAGE_DEADLINE = units.minutes(10)

#: Percentile goal: 90% of queries must finish within 10 minutes.
DEFAULT_PERCENTILE = 90.0
DEFAULT_PERCENTILE_DEADLINE = units.minutes(10)


# ---------------------------------------------------------------------------
# Training configuration (Section 4.2 / 7.1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs controlling sample-workload generation and model training.

    Attributes
    ----------
    num_samples:
        Number of random sample workloads (``N`` in the paper, default 3000).
    queries_per_sample:
        Queries per sample workload (``m`` in the paper, default 18).
    seed:
        Seed for the workload sampler, so training is reproducible.
    max_expansions:
        Upper bound on A* node expansions per sample workload.  ``None``
        disables the bound; the default is generous enough for the paper's
        sample sizes while protecting against pathological goals.
    min_samples_leaf:
        Decision-tree regularisation: minimum training examples per leaf.
    max_depth:
        Decision-tree regularisation: maximum tree depth.
    n_jobs:
        Worker processes used to solve the sample workloads (the paper notes
        the per-sample A* searches are embarrassingly parallel).  ``1`` solves
        sequentially in-process; ``-1`` — or any other value below 1 — uses
        every available CPU (there is no joblib-style ``-2`` = "all but one"
        convention).  Results are merged in sample order, so training output
        is bit-identical for every ``n_jobs`` value.
    search_strategy:
        Search-strategy spec the per-sample solves run under (see
        :mod:`repro.search.strategy`): ``"astar"`` (exact, the default),
        ``"weighted_astar[:W]"``, or ``"beam[:K]"``.  Relaxed strategies trade
        schedule optimality for training speed and report their worst
        cost-vs-optimal ratio in the model metadata.
    future_bound:
        Registered admissible future-cost bound used by the non-monotonic
        goals' f-values (see :mod:`repro.search.bounds`): ``"memoized"`` (the
        bit-identical default) or ``"tight"`` (busy-time-aware, generates
        fewer vertices for percentile/average goals).
    """

    num_samples: int = 3000
    queries_per_sample: int = 18
    seed: int = 0
    max_expansions: int | None = 2_000_000
    min_samples_leaf: int = 5
    max_depth: int = 30
    n_jobs: int = 1
    search_strategy: str = "astar"
    future_bound: str = "memoized"

    @classmethod
    def paper(cls, seed: int = 0) -> "TrainingConfig":
        """Paper-scale configuration (N=3000, m=18)."""
        return cls(seed=seed)

    @classmethod
    def fast(cls, seed: int = 0) -> "TrainingConfig":
        """Scaled-down configuration for tests and quick experiments."""
        return cls(
            num_samples=120,
            queries_per_sample=8,
            seed=seed,
            max_expansions=200_000,
        )

    @classmethod
    def tiny(cls, seed: int = 0) -> "TrainingConfig":
        """Minimal configuration for unit tests that only need a valid model."""
        return cls(
            num_samples=30,
            queries_per_sample=6,
            seed=seed,
            max_expansions=50_000,
        )

    def with_samples(self, num_samples: int) -> "TrainingConfig":
        """Return a copy with a different number of sample workloads."""
        return replace(self, num_samples=num_samples)

    def with_queries_per_sample(self, queries_per_sample: int) -> "TrainingConfig":
        """Return a copy with a different sample-workload size."""
        return replace(self, queries_per_sample=queries_per_sample)

    def with_seed(self, seed: int) -> "TrainingConfig":
        """Return a copy with a different sampling seed."""
        return replace(self, seed=seed)

    def with_n_jobs(self, n_jobs: int) -> "TrainingConfig":
        """Return a copy with a different worker-process count."""
        return replace(self, n_jobs=n_jobs)

    def with_search_strategy(self, search_strategy: str) -> "TrainingConfig":
        """Return a copy with a different search-strategy spec."""
        return replace(self, search_strategy=search_strategy)

    def with_future_bound(self, future_bound: str) -> "TrainingConfig":
        """Return a copy with a different registered future-cost bound."""
        return replace(self, future_bound=future_bound)

    def to_dict(self) -> dict:
        """JSON-serializable representation of every training knob.

        ``n_jobs`` is deliberately excluded: it is a wall-clock knob with
        bit-identical output for any value, so it must not perturb the model
        registry's content fingerprints.  ``search_strategy`` and
        ``future_bound`` *are* output-affecting, but the defaults are omitted
        so fingerprints of pre-existing (default-engine) configurations stay
        byte-identical across releases.
        """
        data = {
            "num_samples": self.num_samples,
            "queries_per_sample": self.queries_per_sample,
            "seed": self.seed,
            "max_expansions": self.max_expansions,
            "min_samples_leaf": self.min_samples_leaf,
            "max_depth": self.max_depth,
        }
        if self.search_strategy != "astar":
            data["search_strategy"] = self.search_strategy
        if self.future_bound != "memoized":
            data["future_bound"] = self.future_bound
        return data

    @classmethod
    def from_dict(cls, data: dict, n_jobs: int = 1) -> "TrainingConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        return cls(
            num_samples=data["num_samples"],
            queries_per_sample=data["queries_per_sample"],
            seed=data["seed"],
            max_expansions=data["max_expansions"],
            min_samples_leaf=data["min_samples_leaf"],
            max_depth=data["max_depth"],
            n_jobs=n_jobs,
            search_strategy=data.get("search_strategy", "astar"),
            future_bound=data.get("future_bound", "memoized"),
        )

    def create_search_strategy(self):
        """The resolved :class:`~repro.search.strategy.SearchStrategy` instance."""
        from repro.search.strategy import strategy_from_spec

        return strategy_from_spec(self.search_strategy)

    def effective_n_jobs(self) -> int:
        """The resolved worker count (every value below 1 means "all CPUs")."""
        from repro.parallel.backend import resolve_n_jobs

        return resolve_n_jobs(self.n_jobs)

    def create_backend(self):
        """A fresh :class:`~repro.parallel.backend.ExecutionBackend` for this config.

        ``n_jobs == 1`` yields the in-process serial backend; anything else a
        lazily spawned, warm-reusable process pool
        (:class:`~repro.parallel.backend.ProcessPoolBackend`).  The caller
        owns the returned backend's lifecycle (``close()`` / context manager);
        output is bit-identical whichever backend runs the solves.
        """
        from repro.parallel.backend import backend_for

        return backend_for(self.n_jobs)
