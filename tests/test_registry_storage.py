"""The SQLite backing store: schema, migrations, history, and concurrency.

These tests exercise the storage layer the ``bugfix`` PR introduced — WAL
pragmas, ``user_version`` forward migrations, the queryable ``model_metadata``
projection, the ``run_history`` log the service and serving engine write, the
JSON import/export round trip, and the multi-process concurrent-writer
behavior the JSON layout could never offer.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import sqlite3
import warnings
from pathlib import Path

import pytest

from repro.exceptions import SpecificationError, StorageError
from repro.service.registry import ModelRegistry
from repro.service.service import WiSeDBService
from repro.service.storage import (
    HISTORY_COLUMNS,
    MIGRATIONS,
    SCHEMA_VERSION,
    RunRecord,
    SQLiteStore,
)


#: A deployment written by ``service.save()`` before the JSON backend was
#: removed (``TrainingConfig.tiny(seed=7)``, one trained tenant).  Nothing else
#: pins the interchange format, so these files are never regenerated.
SAVED_V1 = Path(__file__).parent / "data" / "saved_service_v1"


def _record(tenant="acme", source="batch", **overrides) -> RunRecord:
    defaults = dict(
        tenant=tenant,
        source=source,
        scheduler="WiSeDB-online",
        goal_kind="max",
        num_queries=9,
        num_vms=2,
        total_cost=12.5,
        penalty_cost=0.0,
        wasted_cost=1.25,
    )
    defaults.update(overrides)
    return RunRecord(**defaults)


# ---------------------------------------------------------------------------
# Schema and migrations
# ---------------------------------------------------------------------------


class TestSchema:
    def test_fresh_store_is_fully_migrated(self, tmp_path):
        store = SQLiteStore(tmp_path / "registry.db")
        assert store.schema_version == SCHEMA_VERSION
        assert SCHEMA_VERSION == MIGRATIONS[-1][0]

    def test_wal_and_foreign_keys_are_active(self, tmp_path):
        store = SQLiteStore(tmp_path / "registry.db")
        connection = store._connection
        assert connection.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert connection.execute("PRAGMA foreign_keys").fetchone()[0] == 1
        assert connection.execute("PRAGMA busy_timeout").fetchone()[0] == 30000

    def test_v1_database_migrates_forward_in_place(self, tmp_path):
        path = tmp_path / "registry.db"
        old = SQLiteStore(path, target_version=1)
        old.put_artifact("f" * 64, "b" * 64, "fresh", "{}", '{"x": 1}')
        assert old.schema_version == 1
        old.close()

        upgraded = SQLiteStore(path)
        assert upgraded.schema_version == SCHEMA_VERSION
        # v1 data survives the v2 migration, and the new table works.
        assert upgraded.contains("f" * 64)
        upgraded.record_run(_record())
        assert len(upgraded.history()) == 1

    def test_newer_schema_is_rejected_loudly(self, tmp_path):
        path = tmp_path / "registry.db"
        SQLiteStore(path).close()
        with sqlite3.connect(path) as connection:
            connection.execute(f"PRAGMA user_version={SCHEMA_VERSION + 7}")
        with pytest.raises(StorageError, match="newer than this library"):
            SQLiteStore(path)

    def test_find_by_base_is_an_indexed_point_query(self, tmp_path):
        # The adaptive-retraining lookup runs per goal change: it must search
        # the base-fingerprint index, never scan the artifacts table.
        store = SQLiteStore(tmp_path / "registry.db")
        for index in range(60):
            store.put_artifact(
                f"{index:064d}", f"base-{index % 12:059d}", "fresh", "{}", "{}"
            )
        statements = []
        store._connection.set_trace_callback(statements.append)
        try:
            found = store.find_by_base(f"base-{5:059d}")
        finally:
            store._connection.set_trace_callback(None)
        assert found == tuple(f"{index:064d}" for index in range(5, 60, 12))
        (statement,) = statements
        plan = [
            row[-1]
            for row in store._connection.execute(f"EXPLAIN QUERY PLAN {statement}")
        ]
        assert any("idx_artifacts_base" in step for step in plan), plan
        assert not any(step.startswith("SCAN") for step in plan), plan
        store.close()

    def test_non_database_file_is_rejected_loudly(self, tmp_path):
        path = tmp_path / "registry.db"
        path.write_text("this is not a database" * 100)
        with pytest.raises(StorageError, match="cannot open"):
            SQLiteStore(path)


# ---------------------------------------------------------------------------
# Metadata projection and history rows
# ---------------------------------------------------------------------------


class TestMetadataProjection:
    def test_metadata_is_queryable_without_the_blob(
        self, tmp_path, small_templates, max_goal, tiny_config, trained_max
    ):
        directory = tmp_path / "registry"
        service = WiSeDBService(registry=directory)
        service.register("acme", small_templates, max_goal, config=tiny_config)
        tenant = service.tenant("acme")
        tenant.training = None  # force the registry path
        service.train("acme")
        fingerprint = tenant.spec.fingerprint()

        # A brand-new registry answers from the metadata table alone: no
        # get() call has materialized the artifact yet.
        fresh = ModelRegistry(directory)
        meta = fresh.model_metadata(fingerprint)
        assert meta is not None
        assert meta["goal_kind"] == "max"
        assert meta["search_strategy"] == "astar"
        assert meta["future_bound"] is None  # v1 column, no longer written
        assert meta["worst_optimality_ratio"] >= 1.0
        assert meta["tree_depth"] >= 1
        assert fingerprint not in fresh._cache  # nothing was materialized
        service.close()

    def test_quarantined_artifact_has_no_metadata(self, tmp_path):
        store = SQLiteStore(tmp_path / "registry.db")
        store.put_artifact(
            "f" * 64, "b" * 64, "fresh", "{}", "{}", metadata={"goal_kind": "max"}
        )
        assert store.model_metadata("f" * 64) is not None
        store.quarantine("f" * 64, "testing")
        assert store.model_metadata("f" * 64) is None
        assert store.quarantined() == (("f" * 64, "testing"),)


class TestLookupsNeverRaiseRawSQLite:
    def test_lookup_serves_the_row_when_the_touch_cannot_write(
        self, tmp_path, trained_max
    ):
        path = tmp_path / "registry.db"
        writer = ModelRegistry(db_path=path)
        writer.put("f" * 64, "b" * 64, {}, trained_max, provenance="fresh")
        writer.close()
        reader = ModelRegistry(db_path=path)
        reader._store._connection.execute("PRAGMA query_only=ON")
        # The touch-on-read UPDATE fails; the row already read is served.
        result = reader.get("f" * 64)
        assert result is not None
        assert result.num_examples == trained_max.num_examples
        reader.close()

    @pytest.mark.parametrize(
        "lookup, expected",
        [
            (lambda registry: registry.get("f" * 64) is not None, True),
            (lambda registry: "f" * 64 in registry, True),
            (lambda registry: registry.fingerprints(), ("f" * 64,)),
            (lambda registry: registry.find_base("b" * 64) is not None, True),
            (lambda registry: registry.provenance("f" * 64), "adaptive"),
            (lambda registry: registry.model_metadata("f" * 64)["goal_kind"], "max"),
            (lambda registry: len(registry.history()), 1),
            (lambda registry: registry.tenant_summaries()["acme"].runs, 1),
        ],
        ids=[
            "get",
            "contains",
            "fingerprints",
            "find_base",
            "provenance",
            "model_metadata",
            "history",
            "tenant_summaries",
        ],
    )
    def test_every_lookup_answers_on_a_read_only_connection(
        self, tmp_path, trained_max, lookup, expected
    ):
        path = tmp_path / "registry.db"
        writer = ModelRegistry(db_path=path)
        writer.put("f" * 64, "b" * 64, {}, trained_max, provenance="adaptive")
        writer._store.record_run(_record())
        writer.close()
        reader = ModelRegistry(db_path=path)
        reader._store._connection.execute("PRAGMA query_only=ON")
        assert lookup(reader) == expected
        reader.close()

    def test_summaries_wrap_sqlite_errors_like_history(self, tmp_path):
        registry = ModelRegistry(db_path=tmp_path / "registry.db")
        registry._store._connection.close()
        with pytest.raises(StorageError, match="run-history query failed"):
            registry.history()
        with pytest.raises(StorageError, match="run-history summary failed"):
            registry.tenant_summaries()


class TestRunHistory:
    def test_service_records_batch_and_online_runs(
        self, tmp_path, small_templates, max_goal, tiny_config, trained_max,
        small_workload,
    ):
        service = WiSeDBService(registry=tmp_path / "registry")
        service.register("acme", small_templates, max_goal, config=tiny_config)
        service.tenant("acme").training = trained_max
        service.schedule_batch("acme", small_workload)
        service.run_online("acme", small_workload)

        history = service.history()
        assert [run.source for run in history] == ["batch", "online"]
        for run in history:
            assert run.tenant == "acme"
            assert run.goal_kind == "max"
            assert run.num_queries == len(small_workload)
            assert run.total_cost > 0
            assert not run.degraded
            assert run.recorded_at  # stamped
            assert run.row_id is not None
        # Filters and limits.
        assert len(service.history(source="batch")) == 1
        assert service.history(tenant="nobody") == ()
        assert service.history(limit=1)[0].source == "online"

        summary = service.run_summaries()["acme"]
        assert summary.runs == 2
        assert summary.queries == 2 * len(small_workload)
        assert summary.sla_compliance == 1.0
        assert summary.mean_cost > 0
        service.close()

    def test_history_survives_the_process_boundary(
        self, tmp_path, small_templates, max_goal, tiny_config, trained_max,
        small_workload,
    ):
        directory = tmp_path / "registry"
        service = WiSeDBService(registry=directory)
        service.register("acme", small_templates, max_goal, config=tiny_config)
        service.tenant("acme").training = trained_max
        service.schedule_batch("acme", small_workload)
        service.registry.close()
        service.close()

        reopened = ModelRegistry(directory)
        history = reopened.history(tenant="acme")
        assert len(history) == 1
        assert history[0].source == "batch"

    def test_degraded_runs_are_stamped_in_history(
        self, tmp_path, small_templates, max_goal, tiny_config, small_workload
    ):
        class _Broken(WiSeDBService):
            def train(self, name, mode="auto"):
                from repro.exceptions import TrainingError

                raise TrainingError("simulated: model artifact corrupt")

        service = _Broken(registry=tmp_path / "registry")
        service.register("acme", small_templates, max_goal, config=tiny_config)
        service.schedule_batch("acme", small_workload)
        (run,) = service.history()
        assert run.degraded
        assert "TrainingError" in run.degraded_reason
        assert service.run_summaries()["acme"].degraded_runs == 1
        service.close()

    def test_store_history_filters_and_violation_summaries(self):
        store = SQLiteStore(":memory:")
        records = [
            store.record_run(record)
            for record in (
                _record(source="batch"),
                _record(source="online", tenant="globex", total_cost=2.0),
                _record(source="online", violation_seconds=30.0),
            )
        ]
        assert store.history(tenant="acme") == (records[0], records[2])
        assert store.history(source="online", limit=1) == (records[2],)
        summaries = store.tenant_summaries()
        assert summaries["acme"].runs == 2
        assert summaries["acme"].violation_runs == 1
        assert summaries["acme"].sla_compliance == 0.5
        assert summaries["globex"].sla_compliance == 1.0
        assert records[2].violation_seconds > 0.0

    def test_history_columns_match_the_record_fields(self):
        for column in HISTORY_COLUMNS:
            assert hasattr(_record(), column)


# ---------------------------------------------------------------------------
# JSON import/export round trip
# ---------------------------------------------------------------------------


class TestJsonRoundTrip:
    def test_export_matches_a_saved_service_byte_for_byte(
        self, tmp_path, small_templates, max_goal, tiny_config, trained_max
    ):
        service = WiSeDBService(registry=tmp_path / "sqlite")
        service.register("acme", small_templates, max_goal, config=tiny_config)
        spec = service.tenant("acme").spec
        fingerprint = spec.fingerprint()
        service.registry.put(
            fingerprint, spec.base_fingerprint(), spec.to_dict(), trained_max
        )
        service.train("acme")  # an exact registry hit
        service.save(tmp_path / "saved")
        (exported,) = service.registry.export_json(tmp_path / "exported")
        service.close()

        original = (tmp_path / "saved" / "models" / f"{fingerprint}.json").read_bytes()
        assert exported.read_bytes() == original

    def test_from_json_dir_imports_without_writing_next_to_the_source(
        self, tmp_path, small_templates, max_goal, tiny_config, trained_max
    ):
        from repro.service.service import TenantSpec

        spec = TenantSpec(
            name="acme",
            templates=small_templates,
            goal=max_goal,
            config=tiny_config,
        )
        source = tmp_path / "legacy"
        exporter = ModelRegistry()
        exporter.put(
            spec.fingerprint(), spec.base_fingerprint(), spec.to_dict(), trained_max
        )
        exporter.export_json(source)

        imported = ModelRegistry.from_json_dir(source)
        assert imported.database_path is None  # in-memory
        assert not (source / "registry.db").exists()
        assert spec.fingerprint() in imported
        # The indexed base query works on the imported rows.
        assert imported.find_base(spec.base_fingerprint()) is not None
        # Metadata came along without a get() (projection from the artifact).
        meta = imported.model_metadata(spec.fingerprint())
        assert meta is not None and meta["goal_kind"] == "max"


class TestFrozenV1Format:
    """The checked-in v1 deployment keeps loading and re-exporting unchanged."""

    def test_saved_v1_deployment_loads_trained_and_schedules(
        self, tmp_path, small_workload
    ):
        deployment = tmp_path / "deployment"
        shutil.copytree(SAVED_V1, deployment)
        service = WiSeDBService.load(deployment)
        tenant = service.tenant("acme")
        assert tenant.is_trained
        assert tenant.provenance == "registry"  # an exact hit, nothing retrained
        outcome = service.schedule_batch("acme", small_workload)
        assert not outcome.degraded
        outcome.schedule.validate_complete(small_workload)
        service.close()

    def test_export_re_emits_the_v1_file_byte_for_byte(self, tmp_path):
        (original,) = (SAVED_V1 / "models").glob("*.json")
        registry = ModelRegistry()
        assert registry.import_json_dir(SAVED_V1 / "models") == 1
        (exported,) = registry.export_json(tmp_path / "exported")
        assert exported.name == original.name
        assert exported.read_bytes() == original.read_bytes()

    def test_files_arriving_after_open_wait_for_an_explicit_import(self, tmp_path):
        (original,) = (SAVED_V1 / "models").glob("*.json")
        base = json.loads(original.read_text(encoding="utf-8"))["base_fingerprint"]
        registry = ModelRegistry(tmp_path)
        late = tmp_path / original.name
        shutil.copy(original, late)
        stray = tmp_path / "stray.json"
        stray.write_text("{{{{")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert registry.get(original.stem) is None
            assert registry.find_base(base) is None
            assert original.stem not in registry
            assert registry.fingerprints() == ()
        assert late.exists() and stray.read_text() == "{{{{"
        with pytest.warns(RuntimeWarning, match="not valid JSON"):
            assert registry.import_json_dir() == 1
        assert registry.get(original.stem) is not None


def _saved_copy(tmp_path, mutate) -> Path:
    """A copy of the v1 deployment whose manifest *mutate* edited in place."""
    deployment = tmp_path / "deployment"
    shutil.copytree(SAVED_V1, deployment)
    manifest_path = deployment / "tenants.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    mutate(manifest)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return deployment


def _untrained_with_strategy(manifest) -> None:
    # A hand-edited entry with no recorded fingerprint and no model, so only
    # the spec itself can be at fault.
    (entry,) = manifest["tenants"]
    entry["spec"]["config"]["search_strategy"] = "imaginary"
    entry["trained"] = False
    del entry["fingerprint"]


class TestManifestValidation:
    """``load`` refuses a manifest it cannot parse, naming the file; a stored
    artifact that no longer parses is quarantined instead, never raised."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda manifest: manifest["tenants"][0]["spec"]["config"].pop("seed"),
            lambda manifest: manifest.pop("tenants"),
            _untrained_with_strategy,
        ],
        ids=["missing-config-field", "missing-tenants", "unknown-search-strategy"],
    )
    def test_a_malformed_manifest_raises_a_specification_error(self, tmp_path, mutate):
        deployment = _saved_copy(tmp_path, mutate)
        with pytest.raises(SpecificationError, match="tenants.json"):
            WiSeDBService.load(deployment)

    def test_a_manifest_naming_the_removed_bound_is_refused(self, tmp_path):
        def name_tight(manifest):
            manifest["tenants"][0]["spec"]["config"]["future_bound"] = "tight"

        deployment = _saved_copy(tmp_path, name_tight)
        with pytest.raises(SpecificationError, match="removed future-cost bound"):
            WiSeDBService.load(deployment)

    def test_a_stored_artifact_naming_the_removed_bound_is_quarantined(self, tmp_path):
        (original,) = (SAVED_V1 / "models").glob("*.json")
        artifact = json.loads(original.read_text(encoding="utf-8"))
        artifact["training"]["config"]["future_bound"] = "tight"
        source = tmp_path / "models"
        source.mkdir()
        (source / original.name).write_text(json.dumps(artifact), encoding="utf-8")
        registry = ModelRegistry()
        assert registry.import_json_dir(source) == 1
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert registry.get(original.stem) is None  # a miss, not a raise
        assert [fingerprint for fingerprint, _ in registry.quarantined()] == [
            original.stem
        ]
        registry.close()


# ---------------------------------------------------------------------------
# Multi-process concurrent writers (the test the JSON layout could not pass)
# ---------------------------------------------------------------------------


def _writer_process(path: str, worker: int, count: int, queue) -> None:
    """Open an independent store over the shared file and hammer it."""
    try:
        store = SQLiteStore(path)
        for index in range(count):
            fingerprint = f"worker{worker}-artifact{index:03d}"
            store.put_artifact(
                fingerprint,
                f"base{index % 3}",
                "fresh",
                json.dumps({"worker": worker}),
                json.dumps({"payload": index}),
                metadata={"goal_kind": "max"},
            )
            payload = store.get_payload(fingerprint)
            assert payload is not None
            assert payload["training"] == {"payload": index}
            store.record_run(
                RunRecord(
                    tenant=f"tenant{worker}",
                    source="batch",
                    scheduler="test",
                    goal_kind="max",
                    num_queries=1,
                    num_vms=1,
                    total_cost=1.0,
                    penalty_cost=0.0,
                    wasted_cost=0.0,
                )
            )
        store.close()
        queue.put((worker, None))
    except BaseException as error:  # pragma: no cover - failure reporting
        queue.put((worker, repr(error)))


class TestConcurrentWriters:
    def test_multiple_processes_share_one_registry_database(self, tmp_path):
        """N processes put/get/record against one WAL database, no failures."""
        path = str(tmp_path / "registry.db")
        SQLiteStore(path).close()  # migrate once up front
        workers, per_worker = 4, 20
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        processes = [
            context.Process(
                target=_writer_process, args=(path, worker, per_worker, queue)
            )
            for worker in range(workers)
        ]
        for process in processes:
            process.start()
        failures = []
        for _ in processes:
            worker, error = queue.get(timeout=60)
            if error is not None:
                failures.append((worker, error))
        for process in processes:
            process.join(timeout=60)
        assert failures == []

        store = SQLiteStore(path)
        assert len(store.fingerprints()) == workers * per_worker
        assert len(store.history()) == workers * per_worker
        summaries = store.tenant_summaries()
        assert len(summaries) == workers
        assert all(s.runs == per_worker for s in summaries.values())
        # Every base bucket is answerable through the index.
        for base in ("base0", "base1", "base2"):
            assert store.find_by_base(base)
        store.close()

    def test_two_registries_over_one_file_pick_the_same_base(
        self, tmp_path, trained_max, trained_average
    ):
        """``find_base`` answers in the store's order, not in 'seen' order."""
        first = ModelRegistry(tmp_path)
        second = ModelRegistry(tmp_path)
        first.put("bbb", "shared-base", {}, trained_average)
        second.put("aaa", "shared-base", {}, trained_max)
        picks = [
            registry.find_base("shared-base").goal.kind
            for registry in (first, second)
        ]
        assert picks == ["max", "max"]
        assert first.find_base("shared-base", exclude=("aaa",)).goal.kind == "average"
