"""Crash-safety of the model registry and the service's degraded mode.

The registry must never serve — or keep re-parsing — a corrupt artifact:
database rows with unloadable blobs are flagged ``quarantined`` and unusable
JSON files are moved into ``quarantine/`` when they are imported — both with
a warning instead of raising or being silently retried forever — and
membership stays consistent with servability.  The service layer, in turn,
must stay available when a tenant's learned path fails: scheduling falls back
to the FFD heuristic and the outcome says so (``degraded`` + reason).
"""

from __future__ import annotations

import base64
import json
import shutil
import sqlite3

import pytest

from repro.config import TrainingConfig
from repro.exceptions import StorageError, TrainingError
from repro.service.registry import QUARANTINE_DIR, ModelRegistry
from repro.service.service import WiSeDBService
from repro.sla.max_latency import MaxLatencyGoal


@pytest.fixture(scope="module")
def config():
    return TrainingConfig.tiny(seed=23)


@pytest.fixture(scope="module")
def goal(small_templates):
    return MaxLatencyGoal.from_factor(small_templates, factor=2.5)


def _train_once(directory, small_templates, goal, config, name="acme"):
    service = WiSeDBService(registry=directory)
    service.register(name, small_templates, goal, config=config)
    service.train(name)
    return service


def _train_and_save(deployment, small_templates, goal, config):
    """A trained service saved as plain files; returns it and its ``models/``."""
    service = _train_once(None, small_templates, goal, config)
    service.save(deployment)
    return service, deployment / "models"


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


class TestAtomicPut:
    def test_sqlite_put_is_durable_and_file_free(
        self, tmp_path, small_templates, goal, config
    ):
        directory = tmp_path / "registry"
        service = _train_once(directory, small_templates, goal, config)
        # No staging files and no per-model JSON — the database is the store.
        leftovers = [p.name for p in directory.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert list(directory.glob("*.json")) == []
        assert (directory / "registry.db").exists()
        fingerprint = service.tenant("acme").spec.fingerprint()
        assert ModelRegistry(directory).get(fingerprint, n_jobs=1) is not None

    def test_save_leaves_no_staging_files(
        self, tmp_path, small_templates, goal, config
    ):
        _, directory = _train_and_save(
            tmp_path / "saved", small_templates, goal, config
        )
        # Plain files only: no staging leftovers and no database.
        assert [p.name for p in directory.iterdir() if p.suffix != ".json"] == []
        artifacts = list(directory.glob("*.json"))
        assert len(artifacts) == 1
        # The artifact under the final name is complete, valid JSON.
        data = json.loads(artifacts[0].read_text(encoding="utf-8"))
        assert data["format"] == "wisedb-model-artifact"

    def test_repeated_put_overwrites_atomically(
        self, tmp_path, small_templates, goal, config
    ):
        directory = tmp_path / "registry"
        service = _train_once(directory, small_templates, goal, config)
        fingerprint = service.tenant("acme").spec.fingerprint()
        registry = ModelRegistry(directory)
        result = registry.get(fingerprint, n_jobs=1)
        assert result is not None
        registry.put(
            fingerprint,
            service.tenant("acme").spec.base_fingerprint(),
            service.tenant("acme").spec.to_dict(),
            result,
        )
        assert ModelRegistry(directory).get(fingerprint, n_jobs=1) is not None

    def test_failed_put_claims_no_membership(
        self, tmp_path, monkeypatch, small_templates, goal, config, small_workload
    ):
        """The store is written before the cache, and its errors are ours."""
        service = WiSeDBService(registry=tmp_path / "registry")
        service.register("acme", small_templates, goal, config=config)
        fingerprint = service.tenant("acme").spec.fingerprint()

        def locked(*args, **kwargs):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(service.registry._store, "put_artifact", locked)
        with pytest.raises(StorageError, match="database is locked"):
            service.train("acme")
        assert fingerprint not in service.registry
        assert service.registry.fingerprints() == ()
        # A WiSeDBError like any other: scheduling degrades instead of crashing.
        outcome = service.schedule_batch("acme", small_workload)
        assert outcome.degraded
        assert "StorageError" in outcome.degraded_reason
        service.close()


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------


class TestQuarantine:
    def test_truncated_artifact_is_quarantined_with_warning(self, tmp_path):
        name = "f" * 64
        bad = tmp_path / f"{name}.json"
        bad.write_text('{"format": "wisedb-model-art')
        with pytest.warns(RuntimeWarning, match="quarantine"):
            registry = ModelRegistry(tmp_path)
        assert registry.get(name) is None
        assert not bad.exists()
        assert (tmp_path / QUARANTINE_DIR / bad.name).exists()
        # Quarantined files disappear from the addressable set.
        assert name not in registry.fingerprints()

    def test_foreign_json_is_quarantined(self, tmp_path):
        bad = tmp_path / "foreign.json"
        bad.write_text('{"hello": "world"}')
        with pytest.warns(RuntimeWarning, match="not a WiSeDB model artifact"):
            registry = ModelRegistry(tmp_path)
        assert registry.get("foreign") is None
        assert (tmp_path / QUARANTINE_DIR / "foreign.json").exists()

    def test_unloadable_training_payload_is_quarantined(self, tmp_path):
        """Import reads headers only; a bad payload surfaces at ``get``."""
        bad = tmp_path / "broken.json"
        bad.write_text(
            json.dumps(
                {
                    "format": "wisedb-model-artifact",
                    "base_fingerprint": "b" * 64,
                    "training": {"not": "a training result"},
                }
            )
        )
        registry = ModelRegistry(tmp_path)
        with pytest.warns(RuntimeWarning, match="unloadable training payload"):
            assert registry.get("broken") is None
        assert registry.quarantined() == (
            ("broken", "holds an unloadable training payload"),
        )
        assert "broken" not in registry.fingerprints()

    def test_collisions_get_unique_quarantine_names(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for expected in ("bad.json", "bad.json.1"):
            (tmp_path / "bad.json").write_text("not json at all")
            with pytest.warns(RuntimeWarning):
                assert registry.import_json_dir() == 0
            assert registry.get("bad") is None
            assert (tmp_path / QUARANTINE_DIR / expected).exists()

    def test_misfiled_artifact_is_quarantined_not_served(
        self, tmp_path, small_templates, goal, config
    ):
        """A copy under another name is not an exact hit for that name."""
        service, directory = _train_and_save(
            tmp_path / "saved", small_templates, goal, config
        )
        fingerprint = service.tenant("acme").spec.fingerprint()
        original = directory / f"{fingerprint}.json"
        shutil.copy(original, directory / f"{'a' * 64}.json")
        # Artifacts that do not embed a fingerprint keep importing by stem.
        headerless = json.loads(original.read_text(encoding="utf-8"))
        del headerless["fingerprint"]
        (directory / f"{'b' * 64}.json").write_text(json.dumps(headerless))

        with pytest.warns(
            RuntimeWarning, match="fingerprint does not match its file name"
        ):
            registry = ModelRegistry.from_json_dir(directory)
        assert registry.get("a" * 64) is None
        assert (directory / QUARANTINE_DIR / f"{'a' * 64}.json").exists()
        assert registry.fingerprints() == tuple(sorted(["b" * 64, fingerprint]))

    def test_quarantine_does_not_break_find_base_scans(
        self, tmp_path, small_templates, goal, config
    ):
        service, directory = _train_and_save(
            tmp_path / "saved", small_templates, goal, config
        )
        # "!" sorts before any hex fingerprint, so the import hits the junk
        # file before it reaches the healthy artifact.
        (directory / "!junk.json").write_text("{{{{")
        with pytest.warns(RuntimeWarning):
            fresh = ModelRegistry(directory)
        base = service.tenant("acme").spec.base_fingerprint()
        assert fresh.find_base(base) is not None
        assert (directory / QUARANTINE_DIR / "!junk.json").exists()

    def test_corrupted_artifact_triggers_fresh_retrain(
        self, tmp_path, small_templates, goal, config
    ):
        """End to end: corrupt the only artifact, a new service retrains."""
        service, directory = _train_and_save(
            tmp_path / "saved", small_templates, goal, config
        )
        artifact = next(directory.glob("*.json"))
        artifact.write_text(artifact.read_text(encoding="utf-8")[:100])

        with pytest.warns(RuntimeWarning, match="quarantine"):
            fresh = WiSeDBService(registry=directory)
        fresh.register("acme", small_templates, goal, config=config)
        fresh.train("acme")
        assert fresh.tenant("acme").provenance == "fresh"
        # The healthy rewrite is addressable again; the damage is preserved.
        assert service.tenant("acme").spec.fingerprint() in fresh.registry
        assert list((directory / QUARANTINE_DIR).iterdir())

    def test_corrupted_database_blob_triggers_fresh_retrain(
        self, tmp_path, small_templates, goal, config
    ):
        """Corrupt the blob inside the database: quarantined row, retrain."""
        directory = tmp_path / "registry"
        service = _train_once(directory, small_templates, goal, config)
        fingerprint = service.tenant("acme").spec.fingerprint()
        with sqlite3.connect(directory / "registry.db") as connection:
            connection.execute(
                "UPDATE artifacts SET training = '{\"not\": \"a result\"}'"
            )

        fresh = WiSeDBService(registry=directory)
        fresh.register("acme", small_templates, goal, config=config)
        with pytest.warns(RuntimeWarning, match="quarantine"):
            fresh.train("acme")
        assert fresh.tenant("acme").provenance == "fresh"
        # The re-put healed the quarantined row in place.
        assert fingerprint in fresh.registry
        assert fresh.registry.quarantined() == ()


    @pytest.mark.parametrize("damage", ("truncated", "bit_flipped"))
    def test_corrupt_training_matrix_block_is_quarantined_and_healed(
        self, tmp_path, small_templates, goal, config, damage
    ):
        """A damaged ``values`` block is a registry miss, never a raise."""
        directory = tmp_path / "registry"
        service = _train_once(directory, small_templates, goal, config)
        fingerprint = service.tenant("acme").spec.fingerprint()
        with sqlite3.connect(directory / "registry.db") as connection:
            (text,) = connection.execute(
                "SELECT training FROM artifacts WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
            training = json.loads(text)
            block = bytearray(base64.b64decode(training["training_set"]["values"]))
            if damage == "truncated":
                block = block[: len(block) // 2]
            else:
                block[len(block) // 2] ^= 0x10
            training["training_set"]["values"] = base64.b64encode(block).decode("ascii")
            connection.execute(
                "UPDATE artifacts SET training = ? WHERE fingerprint = ?",
                (json.dumps(training), fingerprint),
            )

        with pytest.warns(RuntimeWarning, match="unloadable training payload"):
            assert ModelRegistry(directory).get(fingerprint) is None
        fresh = WiSeDBService(registry=directory)
        fresh.register("acme", small_templates, goal, config=config)
        assert fresh.registry.quarantined() == (
            (fingerprint, "holds an unloadable training payload"),
        )
        fresh.train("acme")
        assert fresh.tenant("acme").provenance == "fresh"
        assert fresh.registry.quarantined() == ()
        assert fresh.registry.get(fingerprint) is not None


# ---------------------------------------------------------------------------
# Membership == servability
# ---------------------------------------------------------------------------


class TestMembershipConsistency:
    """``in`` / ``fingerprints()`` / ``len()`` never count unservable artifacts."""

    def test_sqlite_contains_after_blob_corruption(
        self, tmp_path, small_templates, goal, config
    ):
        directory = tmp_path / "registry"
        service = _train_once(directory, small_templates, goal, config)
        fingerprint = service.tenant("acme").spec.fingerprint()
        with sqlite3.connect(directory / "registry.db") as connection:
            connection.execute("UPDATE artifacts SET training = 'garbage'")

        fresh = ModelRegistry(directory)
        with pytest.warns(RuntimeWarning, match="quarantine"):
            assert fingerprint not in fresh
        assert fresh.fingerprints() == ()
        assert len(fresh) == 0
        assert fresh.quarantined() == (
            (fingerprint, "holds an unloadable training payload"),
        )

    def test_json_contains_after_file_corruption(
        self, tmp_path, small_templates, goal, config
    ):
        service, directory = _train_and_save(
            tmp_path / "saved", small_templates, goal, config
        )
        fingerprint = service.tenant("acme").spec.fingerprint()
        artifact = next(directory.glob("*.json"))
        artifact.write_text(artifact.read_text(encoding="utf-8")[:100])

        with pytest.warns(RuntimeWarning, match="quarantine"):
            fresh = ModelRegistry(directory)
        assert fingerprint not in fresh
        assert fresh.fingerprints() == ()
        assert len(fresh) == 0

    def test_served_artifacts_stay_addressable(
        self, tmp_path, small_templates, goal, config
    ):
        directory = tmp_path / "registry"
        service = _train_once(directory, small_templates, goal, config)
        fingerprint = service.tenant("acme").spec.fingerprint()
        fresh = ModelRegistry(directory)
        assert fingerprint in fresh
        assert fresh.fingerprints() == (fingerprint,)
        assert len(fresh) == 1


# ---------------------------------------------------------------------------
# Degraded mode
# ---------------------------------------------------------------------------


class _BrokenTrainingService(WiSeDBService):
    """A service whose learned path always fails (simulates a corrupt model)."""

    def train(self, name, mode="auto"):
        raise TrainingError("simulated: model artifact corrupt")


class TestDegradedMode:
    @pytest.fixture()
    def broken(self, small_templates, goal, config):
        service = _BrokenTrainingService()
        service.register("acme", small_templates, goal, config=config)
        return service

    def test_schedule_batch_degrades_to_ffd(self, broken, small_workload):
        outcome = broken.schedule_batch("acme", small_workload)
        assert outcome.degraded
        assert "TrainingError" in outcome.degraded_reason
        assert outcome.scheduler == "FFD"
        assert len(outcome.query_outcomes) == len(small_workload)

    def test_run_online_degrades_to_ffd(self, broken, small_workload):
        outcome = broken.run_online("acme", small_workload)
        assert outcome.degraded
        assert outcome.scheduler == "FFD"

    def test_degraded_fallback_off_surfaces_the_error(
        self, small_templates, goal, config, small_workload
    ):
        service = _BrokenTrainingService(degraded_fallback=False)
        service.register("acme", small_templates, goal, config=config)
        with pytest.raises(TrainingError):
            service.schedule_batch("acme", small_workload)

    def test_healthy_path_is_not_stamped(
        self, small_templates, goal, config, small_workload
    ):
        service = WiSeDBService()
        service.register("acme", small_templates, goal, config=config)
        outcome = service.schedule_batch("acme", small_workload)
        assert not outcome.degraded
        assert outcome.degraded_reason is None
        service.close()

    def test_unknown_tenant_still_raises(self, broken, small_workload):
        from repro.exceptions import SpecificationError

        with pytest.raises(SpecificationError):
            broken.schedule_batch("nobody", small_workload)
