"""Seeded arrival-process generators (Poisson / bursty).

The streams are the substrate of the serving load harness, so two properties
are pinned hard: determinism per ``(seed, tenant)`` — the same pair always
yields the same schedule, different pairs yield different ones — and golden
digests freezing the exact draws, in the same spirit as the fault-stream
goldens (query ids are process-global, so digests hash the
``(template, arrival time)`` sequence, never ids).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.exceptions import SpecificationError
from repro.workloads import Workload, poisson_arrivals
from oracles import bursty_arrivals

PROCESSES = {
    "poisson": lambda t, n, **kw: poisson_arrivals(t, n, rate=40.0, **kw),
    "bursty": lambda t, n, **kw: bursty_arrivals(
        t, n, base_rate=10.0, burst_rate=200.0, **kw
    ),
}

#: sha256 over the canonical (template, arrival) sequence for seed=29,
#: tenant="golden", 40 queries over the small template set.  Regenerate only
#: on a deliberate change to stream derivation (print _digest to refresh).
GOLDEN_DIGESTS = {
    "poisson": "12c47b8ed506c07ef9f36ae9f3afb97af1c4d396d2f081dbce2ca20a6251c0c2",
    "bursty": "2aa575f8e6defdb4b020817a0fcc16a1bc1f49dde7b71ab549ff062e79954ece",
}


def _digest(workload: Workload) -> str:
    canonical = [
        [query.template_name, round(query.arrival_time, 12)] for query in workload
    ]
    return hashlib.sha256(
        json.dumps(canonical, separators=(",", ":")).encode()
    ).hexdigest()


@pytest.mark.parametrize("process", sorted(PROCESSES))
class TestStreamDerivation:
    def test_deterministic_per_seed_and_tenant(self, process, small_templates):
        draw = PROCESSES[process]
        first = draw(small_templates, 30, seed=7, tenant="acme")
        second = draw(small_templates, 30, seed=7, tenant="acme")
        assert _digest(first) == _digest(second)

    def test_tenant_streams_are_independent(self, process, small_templates):
        draw = PROCESSES[process]
        acme = draw(small_templates, 30, seed=7, tenant="acme")
        globex = draw(small_templates, 30, seed=7, tenant="globex")
        reseeded = draw(small_templates, 30, seed=8, tenant="acme")
        assert _digest(acme) != _digest(globex)
        assert _digest(acme) != _digest(reseeded)

    def test_golden_digest(self, process, small_templates):
        workload = PROCESSES[process](small_templates, 40, seed=29, tenant="golden")
        assert _digest(workload) == GOLDEN_DIGESTS[process]

    def test_arrival_times_are_sorted_and_positive(self, process, small_templates):
        workload = PROCESSES[process](small_templates, 50, seed=3, tenant="t")
        times = [query.arrival_time for query in workload]
        assert len(times) == 50
        assert all(later >= earlier for earlier, later in zip(times, times[1:]))
        assert times[0] > 0.0

    def test_templates_come_from_the_set(self, process, small_templates):
        workload = PROCESSES[process](small_templates, 25, seed=11, tenant="t")
        names = set(small_templates.names)
        assert {query.template_name for query in workload} <= names

    def test_zero_queries_is_an_empty_workload(self, process, small_templates):
        workload = PROCESSES[process](small_templates, 0, seed=1, tenant="t")
        assert workload.is_empty()

    def test_negative_count_rejected(self, process, small_templates):
        with pytest.raises(SpecificationError):
            PROCESSES[process](small_templates, -1, seed=1, tenant="t")


class TestQuantization:
    def test_quantum_coalesces_arrivals_into_shared_timestamps(
        self, small_templates
    ):
        workload = poisson_arrivals(
            small_templates, 40, rate=500.0, seed=5, tenant="t", quantum=0.05
        )
        times = [query.arrival_time for query in workload]
        # A dense stream on a coarse grid must share timestamps (epochs).
        assert len(set(times)) < len(times)
        for when in times:
            assert when == pytest.approx(round(when / 0.05) * 0.05)

    def test_quantum_none_keeps_raw_times(self, small_templates):
        raw = poisson_arrivals(small_templates, 40, rate=500.0, seed=5, tenant="t")
        times = [query.arrival_time for query in raw]
        assert len(set(times)) == len(times)


class TestValidation:
    def test_poisson_rejects_nonpositive_rate(self, small_templates):
        with pytest.raises(SpecificationError):
            poisson_arrivals(small_templates, 5, rate=0.0)

    def test_bursty_rejects_burst_below_base(self, small_templates):
        with pytest.raises(SpecificationError):
            bursty_arrivals(small_templates, 5, base_rate=10.0, burst_rate=5.0)

    def test_bursty_rejects_bad_probabilities(self, small_templates):
        with pytest.raises(SpecificationError):
            bursty_arrivals(
                small_templates, 5, base_rate=1.0, burst_rate=2.0, enter_burst=1.5
            )


def test_bursty_bursts_actually_compress_gaps(small_templates):
    """Burst phases must produce visibly tighter inter-arrival gaps."""
    workload = bursty_arrivals(
        small_templates,
        400,
        base_rate=1.0,
        burst_rate=1000.0,
        seed=2,
        tenant="t",
        enter_burst=0.2,
        exit_burst=0.2,
    )
    times = [query.arrival_time for query in workload]
    gaps = sorted(b - a for a, b in zip(times, times[1:]))
    # The distribution is strongly bimodal: the tightest decile is orders of
    # magnitude below the widest.
    assert gaps[len(gaps) // 10] < gaps[-len(gaps) // 10] / 50.0
