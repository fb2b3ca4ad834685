"""The persistent decision-model registry.

Trained WiSeDB models used to live and die with the Python process that
trained them.  The registry makes them addressable artifacts instead: every
training run is keyed by a **content fingerprint** — a SHA-256 over the
canonical JSON of the workload specification that produced it (templates, VM
catalogue, performance goal, training configuration) — and persisted in a
SQLite database (see :mod:`repro.service.storage`) holding the full
:class:`~repro.learning.trainer.TrainingResult` (decision model, training set,
sample workloads, optimal costs) plus a queryable metadata projection and the
service's run-history log.

Two fingerprints matter:

* the **full fingerprint** includes the goal — an exact hit means the exact
  model already exists, so retraining is skipped outright;
* the **base fingerprint** excludes the goal — every artifact under one base
  holds the *same sample workloads* solved under some goal, so together they
  are a store of exact (sample, goal) → (optimal path, cost) facts.  A
  service seeds its :class:`~repro.adaptive.retraining.AdaptiveModeler` with
  all of them (:meth:`ModelRegistry.base_results`), which derives a model for
  a new goal far more cheaply than a fresh training run (Section 5).  The
  store answers this with an indexed point query, in sorted fingerprint
  order, so every process over one database seeds alike.

``n_jobs`` never enters a fingerprint: worker counts change wall-clock only,
and training output is bit-identical for any value.

There is one store: a WAL-mode SQLite database (``registry.db``, or
``:memory:``) safe for concurrent writers across processes; lookups read the
process cache and that database and nothing else.  JSON is the interchange
format, not a second store: :meth:`ModelRegistry.export_json` writes one
``<fingerprint>.json`` per model (:meth:`WiSeDBService.save` goes through
it), and :meth:`ModelRegistry.import_json_dir` reads such a directory —
once for the registry's own directory, as it opens, so pointing a registry
at a saved or exported directory just works, and on request for any other.

Membership is **consistent with servability**: ``registry.fingerprints()``
and ``len(registry)`` only count artifacts
:meth:`ModelRegistry.get` would actually return.  Corrupt artifacts are
quarantined (a flagged database row; an unusable JSON file is moved into
``quarantine/`` at import) with a warning — never a raise — and drop out of
the addressable set.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.exceptions import SpecificationError, StorageError, WiSeDBError
from repro.learning.trainer import TrainingResult
from repro.service.storage import (
    DATABASE_NAME,
    RunRecord,
    SQLiteStore,
    TenantRunSummary,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scheduler import SchedulingOutcome

#: Format marker written into every registry artifact.
ARTIFACT_FORMAT = "wisedb-model-artifact"

#: Subdirectory corrupt JSON artifacts are moved into instead of being
#: re-parsed (and re-failed) on every import.
QUARANTINE_DIR = "quarantine"


def canonical_json(data) -> str:
    """Deterministic JSON encoding used for fingerprinting.

    Keys are sorted and separators fixed, and floats serialize via ``repr``
    (exact round-trip), so equal specifications always produce equal bytes.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def fingerprint_payload(payload: dict) -> str:
    """SHA-256 content fingerprint of a JSON-serializable payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GCReport:
    """What one :meth:`ModelRegistry.gc` pass examined, evicted, and kept.

    ``evicted`` lists servable fingerprints removed (or, under ``dry_run``,
    that *would* be removed) by the recency criteria; ``quarantined_evicted``
    lists quarantined rows swept out alongside them.  ``kept`` is the
    surviving servable set.  All tuples are sorted for stable comparison.
    """

    examined: int
    evicted: tuple[str, ...]
    kept: tuple[str, ...]
    quarantined_evicted: tuple[str, ...]
    dry_run: bool


def _parse_timestamp(stamp: str | None) -> datetime:
    """An artifact timestamp as an aware datetime (epoch when unparseable)."""
    if stamp:
        try:
            parsed = datetime.fromisoformat(stamp)
        except ValueError:
            return datetime.fromtimestamp(0, timezone.utc)
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        return parsed
    return datetime.fromtimestamp(0, timezone.utc)


def _metadata_row(training: dict) -> dict | None:
    """The ``model_metadata`` row of a serialized training result.

    The store picks the columns it projects out of the model's metadata.
    """
    model = training.get("model")
    meta = model.get("metadata") if isinstance(model, dict) else None
    if not isinstance(meta, dict):
        return None
    # Only relaxed search strategies stamp a ratio; exact ones are 1.0.
    ratio = (meta.get("extra") or {}).get("worst_optimality_ratio", 1.0)
    return {**meta, "worst_optimality_ratio": ratio}


class ModelRegistry:
    """Stores training results by content fingerprint, optionally on disk.

    Without a directory the registry keeps an in-memory SQLite store (still
    useful: exact-fingerprint hits deduplicate training across tenants, and
    the run-history log stays queryable).  With a directory, every ``put``
    lands in ``<directory>/registry.db`` and a fresh process can ``get`` or
    ``find_base`` everything a previous one trained — including under
    concurrent writers, which WAL mode and the busy timeout make safe.
    ``<fingerprint>.json`` artifacts already in the directory (a saved
    deployment, an export) are imported once, as the registry opens.

    ``db_path`` overrides where the SQLite database lives (``":memory:"``
    included), which :meth:`from_json_dir` uses to import a JSON directory
    without writing next to it.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        db_path: str | Path | None = None,
    ) -> None:
        self._cache: dict[str, TrainingResult] = {}
        self._directory: Path | None = None
        default_db: str | Path = ":memory:"
        if directory is not None:
            self._directory = Path(directory)
            self._directory.mkdir(parents=True, exist_ok=True)
            default_db = self._directory / DATABASE_NAME
        self._store = SQLiteStore(db_path if db_path is not None else default_db)
        if self._directory is not None:
            self.import_json_dir()

    # -- accessors ---------------------------------------------------------------

    @property
    def database_path(self) -> Path | None:
        """The SQLite file backing this registry (``None`` if in-memory)."""
        return self._store.path

    @property
    def schema_version(self) -> int:
        """The store's migrated schema version."""
        return self._store.schema_version

    def close(self) -> None:
        """Release the backing store's connection (idempotent)."""
        self._store.close()

    def fingerprints(self) -> tuple[str, ...]:
        """Every fingerprint the registry can currently **serve**, sorted.

        Membership is consistent with servability: a listed fingerprint is
        one :meth:`get` would return a result for — cached in this process,
        or a row in the store that is not quarantined.
        """
        return tuple(sorted(set(self._cache).union(self._store.fingerprints())))

    def __len__(self) -> int:
        return len(self.fingerprints())

    # -- storage -----------------------------------------------------------------

    def get(self, fingerprint: str, n_jobs: int = 1) -> TrainingResult | None:
        """The stored training result for *fingerprint*, or ``None``.

        Results are cached per process, so repeated hits return the same
        object without re-reading or re-parsing the artifact.  A row whose
        blob no longer loads (corrupt, truncated, foreign) is treated as a
        miss — the caller then retrains and overwrites it — rather than
        poisoning every lookup: it is flagged ``quarantined`` (kept for
        inspection, never re-served), with a warning.
        """
        cached = self._cache.get(fingerprint)
        if cached is not None:
            return cached
        payload = self._store.get_payload(fingerprint)
        if payload is None:
            return None
        try:
            if not isinstance(payload["training"], dict):
                raise ValueError("artifact blob is not a JSON object")
            result = TrainingResult.from_dict(payload["training"], n_jobs=n_jobs)
        except (KeyError, TypeError, ValueError, WiSeDBError):
            reason = "holds an unloadable training payload"
            self._store.quarantine(fingerprint, reason)
            warnings.warn(
                f"model artifact {fingerprint[:12]}… {reason}; its database row "
                "was quarantined and it is treated as a registry miss",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        self._cache[fingerprint] = result
        return result

    def put(
        self,
        fingerprint: str,
        base_fingerprint: str,
        spec: dict,
        result: TrainingResult,
        provenance: str = "fresh",
    ) -> Path | None:
        """Store *result* under *fingerprint*; returns the backing path if persisted.

        *spec* is the JSON-serializable specification the fingerprint was
        computed from; it is embedded in the artifact so a registry is
        self-describing.  *provenance* records how the result was obtained
        (``"fresh"`` from-scratch training, ``"adaptive"`` Section-5
        retraining) — adaptive results are cost-optimal-equivalent but not
        guaranteed bit-identical to a fresh run, and callers insisting on
        fresh semantics filter on it via :meth:`provenance`.  Re-putting a
        fingerprint heals a quarantined row.  The cache is filled only after
        the store accepted the row: a failed write raises
        :class:`~repro.exceptions.StorageError` and claims no membership.
        """
        training = result.to_dict()
        try:
            self._store.put_artifact(
                fingerprint,
                base_fingerprint,
                provenance,
                json.dumps(spec),
                json.dumps(training),
                metadata=_metadata_row(training),
            )
        except sqlite3.Error as error:
            raise StorageError(f"artifact write failed: {error}") from error
        self._cache[fingerprint] = result
        return self._store.path

    # -- adaptive-base lookup ------------------------------------------------------

    def base_results(
        self,
        base_fingerprint: str,
        exclude: Iterable[str] = (),
        n_jobs: int = 1,
    ) -> Iterator[TrainingResult]:
        """Every loadable stored result sharing *base_fingerprint* (any goal).

        These are what a service's adaptive modeler is seeded with: runs over
        the same sample workloads under different goals.  The candidates come
        from the store's indexed ``base_fingerprint`` query in sorted
        fingerprint order — never in the order this process happened to see
        them — so every process sharing one database seeds alike.  Each is
        loaded through :meth:`get`, so an unloadable row is quarantined with
        a warning and skipped.
        """
        for fingerprint in self._store.find_by_base(base_fingerprint, tuple(exclude)):
            result = self.get(fingerprint, n_jobs=n_jobs)
            if result is not None:
                yield result

    def find_base(
        self,
        base_fingerprint: str,
        exclude: Iterable[str] = (),
        n_jobs: int = 1,
    ) -> TrainingResult | None:
        """The first of :meth:`base_results`, or ``None``."""
        return next(self.base_results(base_fingerprint, exclude, n_jobs), None)

    # -- garbage collection ----------------------------------------------------------

    def gc(
        self,
        keep_latest: int | None = None,
        max_age: float | None = None,
        dry_run: bool = False,
        now: datetime | None = None,
    ) -> GCReport:
        """Evict stale artifacts from the store by access recency.

        A registry that trains a model per (spec, goal) fingerprint grows
        monotonically; this is the explicit eviction pass.  Rows are ranked
        by ``last_accessed`` (touched on every servable ``get`` hit, seeded
        to ``created_at`` by the v3 migration) and a row is evicted when
        **either** criterion applies:

        * *keep_latest* — keep only the N most recently accessed servable
          artifacts (ties broken by fingerprint for determinism);
        * *max_age* — evict anything not accessed within the last *max_age*
          seconds.

        Quarantined rows are unservable by definition, so any GC pass sweeps
        them out regardless of the criteria — and they never count against
        *keep_latest*.  ``dry_run=True`` reports the would-be evictions
        without deleting anything.  *now* pins the clock (tests); evicted
        fingerprints are also purged from the process cache so a later
        ``get`` honestly misses.
        """
        if keep_latest is None and max_age is None:
            raise SpecificationError(
                "gc needs at least one criterion: keep_latest or max_age"
            )
        if keep_latest is not None and keep_latest < 0:
            raise SpecificationError("keep_latest must be non-negative")
        if max_age is not None and max_age < 0:
            raise SpecificationError("max_age must be non-negative seconds")
        moment = now if now is not None else datetime.now(timezone.utc)
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        try:
            rows = self._store.access_rows()
        except sqlite3.Error as error:
            raise StorageError(f"gc scan failed: {error}") from error
        quarantined = [row["fingerprint"] for row in rows if row["quarantined"]]
        servable = [row for row in rows if not row["quarantined"]]

        def accessed(row: dict) -> datetime:
            return _parse_timestamp(row["last_accessed"] or row["created_at"])

        ordered = sorted(
            servable, key=lambda row: (accessed(row), row["fingerprint"]), reverse=True
        )
        evicted: list[str] = []
        kept: list[str] = []
        for rank, row in enumerate(ordered):
            stale = keep_latest is not None and rank >= keep_latest
            if not stale and max_age is not None:
                stale = (moment - accessed(row)).total_seconds() > max_age
            (evicted if stale else kept).append(row["fingerprint"])
        doomed = quarantined + evicted
        if not dry_run and doomed:
            try:
                self._store.delete_artifacts(tuple(doomed))
            except sqlite3.Error as error:
                raise StorageError(f"gc delete failed: {error}") from error
            for fingerprint in doomed:
                self._cache.pop(fingerprint, None)
        return GCReport(
            examined=len(rows),
            evicted=tuple(sorted(evicted)),
            kept=tuple(sorted(kept)),
            quarantined_evicted=tuple(sorted(quarantined)),
            dry_run=dry_run,
        )

    # -- metadata and quarantine ---------------------------------------------------

    def model_metadata(self, fingerprint: str) -> dict | None:
        """The queryable metadata projection of a stored artifact, or ``None``.

        Answered straight from the ``model_metadata`` table — strategy,
        bound, worst optimality ratio, tree shape — without materializing
        the model blob.
        """
        return self._store.model_metadata(fingerprint)

    def quarantined(self) -> tuple[tuple[str, str | None], ...]:
        """Quarantined database rows as ``(fingerprint, reason)`` pairs.

        JSON files moved under ``quarantine/`` at import are not listed
        here — those never entered the store.
        """
        return self._store.quarantined()

    def provenance(self, fingerprint: str) -> str | None:
        """How a stored artifact was trained ("fresh"/"adaptive"), if known.

        Answered straight from the ``artifacts`` table without materializing
        the blob.
        """
        return self._store.provenance(fingerprint)

    # -- run history ----------------------------------------------------------------

    def record_outcome(
        self, tenant: str, outcome: "SchedulingOutcome", source: str
    ) -> RunRecord:
        """Append one scheduling outcome to the run-history log.

        *source* names the code path that produced it (``"batch"``,
        ``"online"``, ``"serving"``); the row is durable and queryable across
        processes.
        """
        overhead = outcome.overhead
        try:
            violation = float(outcome.violation_period())
        except WiSeDBError:
            violation = 0.0
        record = RunRecord(
            tenant=tenant,
            source=source,
            scheduler=outcome.scheduler,
            goal_kind=outcome.goal.kind,
            num_queries=outcome.num_queries(),
            num_vms=outcome.num_vms(),
            total_cost=outcome.cost.total,
            penalty_cost=outcome.cost.penalty_cost,
            wasted_cost=outcome.cost.wasted_cost,
            degraded=outcome.degraded,
            degraded_reason=outcome.degraded_reason,
            violation_seconds=violation,
            wall_time_seconds=overhead.wall_time_seconds,
            decisions=overhead.decisions,
            retrains=overhead.retrains,
            cache_hits=overhead.cache_hits,
            fallbacks=overhead.fallbacks,
            retries=overhead.retries,
            vm_failures=overhead.vm_failures,
            requeues=overhead.requeues,
        )
        try:
            return self._store.record_run(record)
        except sqlite3.Error as error:
            raise StorageError(f"run-history write failed: {error}") from error

    def history(
        self,
        tenant: str | None = None,
        goal_kind: str | None = None,
        source: str | None = None,
        limit: int | None = None,
    ) -> tuple[RunRecord, ...]:
        """Recorded scheduling outcomes, oldest first.

        Filter by *tenant*, *goal_kind* (``"max"``/``"percentile"``/...), or
        *source* (``"batch"``/``"online"``/``"serving"``); ``limit`` keeps
        only the most recent N matching rows.
        """
        try:
            return self._store.history(
                tenant=tenant, goal_kind=goal_kind, source=source, limit=limit
            )
        except sqlite3.Error as error:
            raise StorageError(f"run-history query failed: {error}") from error

    def tenant_summaries(self) -> dict[str, TenantRunSummary]:
        """Per-tenant cost and SLA-compliance aggregates over all history."""
        try:
            return self._store.tenant_summaries()
        except sqlite3.Error as error:
            raise StorageError(f"run-history summary failed: {error}") from error

    # -- JSON import/export ----------------------------------------------------------

    def export_json(self, directory: str | Path) -> tuple[Path, ...]:
        """Write every servable artifact to *directory* in the JSON layout.

        This is the only writer of the layout (:meth:`WiSeDBService.save`
        exports through it), so an exported directory round-trips through
        :meth:`from_json_dir` (or an old library version) unchanged.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        exported = []
        for fingerprint in self._store.fingerprints():
            raw = self._store.raw_artifact(fingerprint)
            if raw is None:
                continue
            artifact = {
                "format": ARTIFACT_FORMAT,
                "version": 1,
                "fingerprint": fingerprint,
                "base_fingerprint": raw["base_fingerprint"],
                "provenance": raw["provenance"],
                "spec": json.loads(raw["spec"]),
                "training": json.loads(raw["training"]),
            }
            path = directory / f"{fingerprint}.json"
            # Write-then-rename: a crash mid-write never leaves a truncated
            # artifact under the final name, and the pid-unique staging name
            # keeps concurrent exporters off each other's half-written file.
            staging = path.with_name(f".{fingerprint}.{os.getpid()}.tmp")
            staging.write_text(json.dumps(artifact), encoding="utf-8")
            os.replace(staging, path)
            exported.append(path)
        return tuple(exported)

    def import_json_dir(self, directory: str | Path | None = None) -> int:
        """Import the ``<fingerprint>.json`` artifacts of a directory.

        Headers are validated and rows inserted without materializing the
        training payloads (that stays lazy, at :meth:`get` time); unusable
        files are moved into ``quarantine/`` with a warning, and fingerprints
        the store already serves are skipped.  Returns how many artifacts
        were imported.  With no *directory*, the registry's own directory is
        scanned — what opening the registry did, repeated for files that
        arrived since.
        """
        source = Path(directory) if directory is not None else self._directory
        if source is None:
            raise SpecificationError("no directory to import JSON artifacts from")
        imported = 0
        for path in sorted(source.glob("*.json")):
            if self._store.contains(path.stem):
                continue
            data = self._read_artifact(path)
            if data is None:
                continue
            try:
                self._store.put_artifact(
                    path.stem,
                    data["base_fingerprint"],
                    data.get("provenance", "fresh"),
                    json.dumps(data.get("spec", {})),
                    json.dumps(data["training"]),
                    metadata=_metadata_row(data["training"]),
                )
            except sqlite3.Error as error:
                raise StorageError(f"artifact import failed: {error}") from error
            imported += 1
        return imported

    @classmethod
    def from_json_dir(
        cls, directory: str | Path, db_path: str | Path | None = None
    ) -> "ModelRegistry":
        """A registry imported from a directory of JSON artifacts.

        By default the database lives in memory, so the source directory is
        only read (corrupt files are still quarantined, with a warning);
        pass ``db_path`` to materialize a durable database instead — the
        one-shot migration path from the v1 layout.
        """
        return cls(directory, db_path=db_path if db_path is not None else ":memory:")

    # -- internals -----------------------------------------------------------------

    def _read_artifact(self, path: Path) -> dict | None:
        """Parse a JSON artifact file, returning ``None`` for anything unusable.

        Unusable files (truncated writes, hand-edited JSON, foreign formats,
        or renamed copies) are quarantined so later imports do not re-parse
        — and re-fail on — the same bytes.
        """
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            self._quarantine_file(path, "is not valid JSON (truncated write?)")
            return None
        if not isinstance(data, dict) or data.get("format") != ARTIFACT_FORMAT:
            self._quarantine_file(path, "is not a WiSeDB model artifact")
            return None
        if not isinstance(data.get("training"), dict) or "base_fingerprint" not in data:
            self._quarantine_file(path, "is missing required artifact fields")
            return None
        if data.get("fingerprint", path.stem) != path.stem:
            # A copied or renamed file would otherwise be served as an exact
            # hit for a specification it was never trained for.
            self._quarantine_file(
                path, "is misfiled: its fingerprint does not match its file name"
            )
            return None
        return data

    def _quarantine_file(self, path: Path, reason: str) -> None:
        """Move a corrupt JSON artifact aside (best-effort) and warn about it."""
        if not path.exists():
            return
        target_dir = path.parent / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / path.name
            suffix = 0
            while target.exists():
                suffix += 1
                target = target_dir / f"{path.name}.{suffix}"
            os.replace(path, target)
        except OSError:
            # Quarantine is a convenience; a lookup miss must never raise.
            return
        warnings.warn(
            f"model artifact {path.name} {reason}; moved to "
            f"{target_dir / target.name} and treated as a registry miss",
            RuntimeWarning,
            stacklevel=4,
        )
