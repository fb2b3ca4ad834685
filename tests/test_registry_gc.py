"""Registry garbage collection: recency-based eviction over the v3 schema.

A fingerprint-addressed registry only ever grows; ``ModelRegistry.gc`` is the
explicit eviction pass.  These tests pin the schema-v3 access tracking
(``last_accessed`` touched on read, backfilled from ``created_at`` on
upgrade), the two eviction criteria and their union, the dry-run mode, the
always-swept quarantined rows, and the guard rails.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from repro.exceptions import SpecificationError
from repro.service.registry import GCReport, ModelRegistry
from repro.service.storage import SCHEMA_VERSION, SQLiteStore

NOW = datetime(2026, 8, 8, 12, 0, 0, tzinfo=timezone.utc)


def _put(store: SQLiteStore, fingerprint: str, accessed: datetime | None = None):
    """Insert a minimal artifact row, optionally pinning its access stamps."""
    store.put_artifact(fingerprint, "base-" + fingerprint, "fresh", "{}", '{"x": 1}')
    if accessed is not None:
        store._connection.execute(
            "UPDATE artifacts SET last_accessed = ?, created_at = ? "
            "WHERE fingerprint = ?",
            (accessed.isoformat(), accessed.isoformat(), fingerprint),
        )


@pytest.fixture()
def registry(tmp_path):
    reg = ModelRegistry(tmp_path)
    yield reg
    reg.close()


def _seed(registry: ModelRegistry, ages_minutes: dict[str, float]) -> None:
    for fingerprint, minutes in ages_minutes.items():
        _put(registry._store, fingerprint, NOW - timedelta(minutes=minutes))


# ---------------------------------------------------------------------------
# Schema v3: the access-tracking column
# ---------------------------------------------------------------------------


class TestAccessTracking:
    def test_v2_database_upgrades_with_backfilled_access_stamps(self, tmp_path):
        path = tmp_path / "registry.db"
        old = SQLiteStore(path, target_version=2)
        _put(old, "f" * 64)
        assert old.schema_version == 2
        old.close()

        upgraded = SQLiteStore(path)
        assert upgraded.schema_version == SCHEMA_VERSION >= 3
        (row,) = upgraded.access_rows()
        assert row["fingerprint"] == "f" * 64
        # The most conservative backfill: "accessed when created".
        assert row["last_accessed"] == row["created_at"]
        upgraded.close()

    def test_get_payload_touches_last_accessed(self, tmp_path):
        store = SQLiteStore(tmp_path / "registry.db")
        _put(store, "a" * 64, NOW - timedelta(days=30))
        before = store.access_rows()[0]["last_accessed"]
        assert store.get_payload("a" * 64) is not None
        after = store.access_rows()[0]["last_accessed"]
        assert after > before
        store.close()

    def test_put_stamps_both_timestamps(self, tmp_path):
        store = SQLiteStore(tmp_path / "registry.db")
        _put(store, "b" * 64)
        (row,) = store.access_rows()
        assert row["last_accessed"] == row["created_at"] is not None
        store.close()


# ---------------------------------------------------------------------------
# Eviction criteria
# ---------------------------------------------------------------------------


class TestGCCriteria:
    def test_keep_latest_keeps_most_recently_accessed(self, registry):
        _seed(registry, {"aaa": 40, "bbb": 10, "ccc": 30, "ddd": 20})
        report = registry.gc(keep_latest=2, now=NOW)
        assert isinstance(report, GCReport)
        assert report.examined == 4
        assert report.kept == ("bbb", "ddd")
        assert report.evicted == ("aaa", "ccc")
        assert registry._store.fingerprints() == ("bbb", "ddd")

    def test_max_age_evicts_only_stale_rows(self, registry):
        _seed(registry, {"aaa": 90, "bbb": 5, "ccc": 45})
        report = registry.gc(max_age=3600.0, now=NOW)  # one hour
        assert report.evicted == ("aaa",)
        assert report.kept == ("bbb", "ccc")
        assert registry._store.fingerprints() == ("bbb", "ccc")

    def test_criteria_union_evicts_when_either_applies(self, registry):
        # "ccc" survives keep_latest=2 but is older than max_age; "aaa" is
        # fresh enough but ranked out by keep_latest.
        _seed(registry, {"aaa": 30, "bbb": 10, "ccc": 20})
        report = registry.gc(keep_latest=2, max_age=15 * 60.0, now=NOW)
        assert report.evicted == ("aaa", "ccc")
        assert report.kept == ("bbb",)

    def test_dry_run_reports_without_deleting(self, registry):
        _seed(registry, {"aaa": 40, "bbb": 10})
        report = registry.gc(keep_latest=1, dry_run=True, now=NOW)
        assert report.dry_run is True
        assert report.evicted == ("aaa",)
        # Nothing actually left the store.
        assert registry._store.fingerprints() == ("aaa", "bbb")
        follow_up = registry.gc(keep_latest=1, now=NOW)
        assert follow_up.evicted == report.evicted
        assert registry._store.fingerprints() == ("bbb",)

    def test_keep_latest_zero_empties_the_store(self, registry):
        _seed(registry, {"aaa": 1, "bbb": 2})
        report = registry.gc(keep_latest=0, now=NOW)
        assert report.kept == ()
        assert len(report.evicted) == 2
        assert registry._store.fingerprints() == ()


# ---------------------------------------------------------------------------
# Quarantine interaction
# ---------------------------------------------------------------------------


class TestGCQuarantine:
    def test_quarantined_rows_are_always_swept(self, registry):
        _seed(registry, {"aaa": 10, "bbb": 20, "qqq": 1})
        registry._store.quarantine("qqq", "unloadable blob")
        # keep_latest=2 keeps BOTH servable rows: the quarantined row is
        # swept regardless and never counts against the budget, even though
        # it is the most recently accessed row of the three.
        report = registry.gc(keep_latest=2, now=NOW)
        assert report.quarantined_evicted == ("qqq",)
        assert report.evicted == ()
        assert report.kept == ("aaa", "bbb")
        assert registry._store.quarantined() == ()
        assert registry._store.fingerprints() == ("aaa", "bbb")

    def test_quarantined_rows_survive_a_dry_run(self, registry):
        _seed(registry, {"aaa": 10, "qqq": 1})
        registry._store.quarantine("qqq", "unloadable blob")
        report = registry.gc(keep_latest=5, dry_run=True, now=NOW)
        assert report.quarantined_evicted == ("qqq",)
        assert registry._store.quarantined() == (("qqq", "unloadable blob"),)


# ---------------------------------------------------------------------------
# Cache coherence and guard rails
# ---------------------------------------------------------------------------


class TestGCGuards:
    def test_eviction_purges_the_process_caches(self, registry):
        _seed(registry, {"aaa": 40, "bbb": 10})
        sentinel = object()
        registry._cache["aaa"] = sentinel
        registry.gc(keep_latest=1, now=NOW)
        assert "aaa" not in registry._cache
        assert registry.get("aaa") is None

    def test_gc_requires_a_criterion(self, registry):
        with pytest.raises(SpecificationError, match="at least one criterion"):
            registry.gc()

    def test_gc_rejects_negative_parameters(self, registry):
        with pytest.raises(SpecificationError, match="non-negative"):
            registry.gc(keep_latest=-1)
        with pytest.raises(SpecificationError, match="non-negative"):
            registry.gc(max_age=-5.0)

    def test_empty_store_gc_is_a_clean_no_op(self, registry):
        report = registry.gc(keep_latest=3, max_age=60.0, now=NOW)
        assert report == GCReport(
            examined=0, evicted=(), kept=(), quarantined_evicted=(), dry_run=False
        )
