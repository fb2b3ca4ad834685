"""The open-loop driver's accounting: late arrivals and offered-rate honesty.

Two bugs anchored this suite: ``late`` used to increment once per strictly
later timestamp boundary (a 50-query behind-schedule group counted as one
late arrival), and a zero-span schedule reported ``offered_rate=target_rate``
while actually driving firehose.  The driver is tested against a fake engine
so no scheduling work muddies the timing.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

from repro.exceptions import SpecificationError
from repro.serving import loadgen
from repro.serving.engine import Admission
from repro.serving.loadgen import LoadReport, TenantStream, drive, merge_streams
from repro.workloads.query import Query
from repro.workloads.workload import Workload


class _FakeEngine:
    """Accepts everything instantly; optionally stalls on each submit."""

    def __init__(self, submit_delay: float = 0.0) -> None:
        self.submit_delay = submit_delay
        self.submissions: list[tuple[str, int]] = []

    async def submit(self, tenant: str, query: Query) -> Admission:
        if self.submit_delay:
            await asyncio.sleep(self.submit_delay)
        self.submissions.append((tenant, query.query_id))
        return Admission(True)

    async def drain(self) -> None:
        return None


class _FakeClock:
    """Virtual time for the driver: only its own sleeps move the clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    async def sleep(self, delay: float) -> None:
        self.now += delay


def _stream(templates, arrivals: list[float], tenant: str = "acme") -> TenantStream:
    queries = [
        Query("T1", arrival_time=arrival_time) for arrival_time in arrivals
    ]
    return TenantStream(tenant, Workload(templates, queries))


def _drive(*args, **kwargs) -> LoadReport:
    return asyncio.run(drive(*args, **kwargs))


class TestLateCounting:
    def test_every_member_of_a_behind_group_counts_late(self, small_templates):
        """A behind-schedule group of N counts N late arrivals, not one."""
        # Group 1 at t=0 (1 query), group 2 at t=1 (5 queries).  The huge
        # target rate makes group 2's due time pass before the driver can
        # possibly reach it, so the whole group is submitted behind schedule.
        stream = _stream(small_templates, [0.0] + [1.0] * 5)
        engine = _FakeEngine()
        report = _drive(engine, [stream], target_rate=1e9)
        assert report.submitted == 6
        assert report.late == 5
        assert report.offered_rate == 1e9

    def test_multiple_behind_groups_accumulate_members(self, small_templates):
        stream = _stream(small_templates, [0.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        report = _drive(_FakeEngine(), [stream], target_rate=1e9)
        # Groups at t=1 (2 queries) and t=2 (3 queries) are both behind.
        assert report.late == 5

    def test_punctual_drive_counts_zero_late(self, small_templates):
        # 4 arrivals over a 0.02s span at a rate the driver easily sustains:
        # every boundary's due time is comfortably in the future.
        stream = _stream(small_templates, [0.0, 0.0, 0.02, 0.02])
        report = _drive(_FakeEngine(), [stream], target_rate=100.0)
        assert report.late == 0
        assert report.offered_rate == 100.0
        assert report.submit_seconds >= 0.01  # it actually paced

    def test_firehose_never_counts_late(self, small_templates):
        stream = _stream(small_templates, [0.0, 1.0, 2.0, 3.0])
        report = _drive(_FakeEngine(), [stream])
        assert report.late == 0
        assert report.offered_rate is None


class TestOfferedRateHonesty:
    def test_zero_span_schedule_reports_firehose(self, small_templates):
        """All arrivals at one timestamp: no pacing happens, so say so."""
        stream = _stream(small_templates, [5.0] * 8)
        report = _drive(_FakeEngine(), [stream], target_rate=100.0)
        assert report.offered_rate is None  # not 100.0: the drive ran firehose
        assert report.late == 0
        assert report.submitted == 8

    def test_empty_streams_report_firehose(self, small_templates):
        report = _drive(_FakeEngine(), [], target_rate=100.0)
        assert report.submitted == 0
        assert report.offered_rate is None

    def test_paced_schedule_reports_the_target(self, small_templates):
        stream = _stream(small_templates, [0.0, 0.01])
        report = _drive(_FakeEngine(), [stream], target_rate=200.0)
        assert report.offered_rate == 200.0

    def test_invalid_target_rate_is_rejected(self, small_templates):
        stream = _stream(small_templates, [0.0, 1.0])
        with pytest.raises(SpecificationError):
            _drive(_FakeEngine(), [stream], target_rate=0.0)


class TestUtilization:
    def test_paced_drive_reports_utilization_against_the_offered_rate(
        self, small_templates, monkeypatch
    ):
        """A paced drive's raw throughput is capped by the offered rate, so
        the honest headline is the ratio — an engine that keeps up shows
        ~1.0, not a 'slow' absolute number.  On a fake clock, so a host stall
        cannot make the instant engine look behind."""
        clock = _FakeClock()
        monkeypatch.setattr(loadgen, "time", SimpleNamespace(perf_counter=clock.perf_counter))
        monkeypatch.setattr(loadgen, "asyncio", SimpleNamespace(sleep=clock.sleep))
        stream = _stream(small_templates, [0.0, 0.005, 0.01, 0.015])
        report = _drive(_FakeEngine(), [stream], target_rate=400.0)
        assert report.offered_rate == 400.0
        assert report.utilization is not None
        assert report.utilization == pytest.approx(
            report.sustained_rate / 400.0
        )
        # The fake engine decides instantly: it kept up with the schedule.
        assert report.late == 0
        assert report.total_seconds == pytest.approx(0.01)
        assert report.utilization == pytest.approx(1.0)

    def test_firehose_drive_has_no_utilization(self, small_templates):
        stream = _stream(small_templates, [0.0, 1.0, 2.0])
        report = _drive(_FakeEngine(), [stream])
        assert report.offered_rate is None
        assert report.utilization is None

    def test_zero_span_schedule_has_no_utilization(self, small_templates):
        stream = _stream(small_templates, [5.0] * 4)
        report = _drive(_FakeEngine(), [stream], target_rate=100.0)
        assert report.utilization is None


class TestReplayOrder:
    def test_merge_keeps_same_timestamp_groups_contiguous(self, small_templates):
        acme = _stream(small_templates, [0.0, 0.0, 1.0], tenant="acme")
        globex = _stream(small_templates, [0.0, 1.0], tenant="globex")
        merged = merge_streams([acme, globex])
        tenants = [tenant for _, tenant, _ in merged]
        assert tenants == ["acme", "acme", "globex", "acme", "globex"]

    def test_drive_submits_in_replay_order(self, small_templates):
        engine = _FakeEngine()
        acme = _stream(small_templates, [0.0, 1.0], tenant="acme")
        globex = _stream(small_templates, [0.0, 1.0], tenant="globex")
        _drive(engine, [acme, globex])
        assert [tenant for tenant, _ in engine.submissions] == [
            "acme", "globex", "acme", "globex",
        ]
