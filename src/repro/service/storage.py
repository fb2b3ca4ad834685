"""The SQLite backing store of the model registry and run-history log.

JSON-files-on-disk carried the registry through its first PRs, but it caps
out quickly: directory scans are O(artifacts) per lookup, a second writer is
only safe because ``os.replace`` happens to be atomic, and nothing about a
tenant's *operational* history (what did scheduling cost over time? how often
did the SLA slip?) is queryable at all.  This module rebuilds the persistence
layer on SQLite, configured the way long-lived operational metadata stores
are:

* ``journal_mode=WAL`` — readers never block the (single) writer, and
  concurrent processes sharing one registry file serialize their writes
  through SQLite instead of racing on ``rename``;
* ``busy_timeout=30s`` — a writer that meets a locked database waits instead
  of failing;
* ``foreign_keys=ON`` — metadata rows can never outlive their artifact;
* ``synchronous=NORMAL`` — the standard WAL durability/throughput trade.

Three tables, introduced by a chain of forward migrations (tracked via
``PRAGMA user_version`` so an old file upgrades in place; v3 adds the
``last_accessed`` column registry GC evicts by):

* ``artifacts`` — one row per trained model: fingerprint (primary key),
  base fingerprint (indexed — ``find_base`` is a point query, not a scan),
  provenance, the spec JSON, and the serialized training payload ("the
  blob").  A ``quarantined`` flag replaces the JSON layout's quarantine
  directory: a blob that fails to load is marked, never served again, and
  kept for inspection.
* ``model_metadata`` — the queryable projection of
  :class:`~repro.learning.model.ModelMetadata` (goal kind, search strategy,
  future bound, worst optimality ratio, tree shape) so operators can ask
  "which tenants trained under a relaxed engine?" without materializing a
  single blob.
* ``run_history`` — one row per :class:`~repro.core.scheduler.SchedulingOutcome`
  the service or serving engine produced: costs, penalty, waste, degraded
  flag/reason, overhead counters, and wall time — per-tenant SLA compliance
  and spend become ``SELECT``-able over time.

The store speaks plain rows and JSON text; domain objects stay in
:mod:`repro.service.registry`, which decides *what* to persist.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from repro.exceptions import StorageError

#: Name of the database file a directory-backed registry creates.
DATABASE_NAME = "registry.db"

#: Pragmas applied to every connection (order matters: WAL first).
_PRAGMAS = (
    ("journal_mode", "WAL"),
    ("foreign_keys", "ON"),
    ("synchronous", "NORMAL"),
    ("busy_timeout", "30000"),
)


def utc_timestamp() -> str:
    """The current time as UTC ISO-8601 text (the store's timestamp format)."""
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class RunRecord:
    """One scheduling outcome, as recorded in (and read from) ``run_history``.

    ``recorded_at`` is UTC ISO-8601 wall time; ``row_id`` is the monotonically
    increasing history id (``None`` until the record has been inserted).
    Everything else is a straight projection of the outcome: Equation-1 cost
    components, the degraded stamp, and the operational overhead counters.
    """

    tenant: str
    source: str
    scheduler: str
    goal_kind: str
    num_queries: int
    num_vms: int
    total_cost: float
    penalty_cost: float
    wasted_cost: float
    degraded: bool = False
    degraded_reason: str | None = None
    violation_seconds: float = 0.0
    wall_time_seconds: float = 0.0
    decisions: int = 0
    retrains: int = 0
    cache_hits: int = 0
    fallbacks: int = 0
    retries: int = 0
    vm_failures: int = 0
    requeues: int = 0
    recorded_at: str = ""
    row_id: int | None = None


@dataclass(frozen=True)
class TenantRunSummary:
    """Aggregate view of one tenant's recorded runs (cost and compliance)."""

    tenant: str
    runs: int
    queries: int
    total_cost: float
    penalty_cost: float
    wasted_cost: float
    degraded_runs: int
    violation_runs: int

    @property
    def mean_cost(self) -> float:
        """Mean total cost per run, in cents."""
        return self.total_cost / self.runs if self.runs else 0.0

    @property
    def sla_compliance(self) -> float:
        """Fraction of runs that finished without violation time."""
        return 1.0 - (self.violation_runs / self.runs) if self.runs else 1.0


#: Column order shared by INSERT and SELECT for run_history (id excluded).
_HISTORY_COLUMNS = (
    "recorded_at",
    "tenant",
    "source",
    "scheduler",
    "goal_kind",
    "num_queries",
    "num_vms",
    "total_cost",
    "penalty_cost",
    "wasted_cost",
    "degraded",
    "degraded_reason",
    "violation_seconds",
    "wall_time_seconds",
    "decisions",
    "retrains",
    "cache_hits",
    "fallbacks",
    "retries",
    "vm_failures",
    "requeues",
)


def _execute_statements(connection: sqlite3.Connection, script: str) -> None:
    """Run each ``;``-separated DDL statement via plain ``execute``.

    ``executescript`` would implicitly COMMIT, breaking the explicit
    transaction the migration runner wraps each migration in.
    """
    for statement in script.split(";"):
        if statement.strip():
            connection.execute(statement)


def _migrate_v1(connection: sqlite3.Connection) -> None:
    """Schema v1: the artifact store and its queryable metadata projection."""
    _execute_statements(
        connection,
        """
        CREATE TABLE artifacts (
            fingerprint       TEXT PRIMARY KEY,
            base_fingerprint  TEXT NOT NULL,
            provenance        TEXT NOT NULL DEFAULT 'fresh',
            spec              TEXT NOT NULL,
            training          TEXT NOT NULL,
            quarantined       INTEGER NOT NULL DEFAULT 0,
            quarantine_reason TEXT,
            created_at        TEXT NOT NULL
        );
        CREATE INDEX idx_artifacts_base
            ON artifacts (base_fingerprint, fingerprint);
        CREATE TABLE model_metadata (
            fingerprint            TEXT PRIMARY KEY
                                   REFERENCES artifacts (fingerprint)
                                   ON DELETE CASCADE,
            goal_kind              TEXT,
            search_strategy        TEXT,
            future_bound           TEXT,
            worst_optimality_ratio REAL,
            tree_depth             INTEGER,
            tree_leaves            INTEGER,
            num_training_samples   INTEGER,
            num_training_examples  INTEGER,
            training_time_seconds  REAL
        );
        """,
    )


def _migrate_v2(connection: sqlite3.Connection) -> None:
    """Schema v2: the per-outcome run-history log."""
    _execute_statements(
        connection,
        """
        CREATE TABLE run_history (
            id                INTEGER PRIMARY KEY AUTOINCREMENT,
            recorded_at       TEXT NOT NULL,
            tenant            TEXT NOT NULL,
            source            TEXT NOT NULL,
            scheduler         TEXT NOT NULL,
            goal_kind         TEXT NOT NULL,
            num_queries       INTEGER NOT NULL,
            num_vms           INTEGER NOT NULL,
            total_cost        REAL NOT NULL,
            penalty_cost      REAL NOT NULL,
            wasted_cost       REAL NOT NULL,
            degraded          INTEGER NOT NULL DEFAULT 0,
            degraded_reason   TEXT,
            violation_seconds REAL NOT NULL DEFAULT 0.0,
            wall_time_seconds REAL NOT NULL DEFAULT 0.0,
            decisions         INTEGER NOT NULL DEFAULT 0,
            retrains          INTEGER NOT NULL DEFAULT 0,
            cache_hits        INTEGER NOT NULL DEFAULT 0,
            fallbacks         INTEGER NOT NULL DEFAULT 0,
            retries           INTEGER NOT NULL DEFAULT 0,
            vm_failures       INTEGER NOT NULL DEFAULT 0,
            requeues          INTEGER NOT NULL DEFAULT 0
        );
        CREATE INDEX idx_history_tenant ON run_history (tenant, id);
        """,
    )


def _migrate_v3(connection: sqlite3.Connection) -> None:
    """Schema v3: access tracking, so the registry can GC by recency.

    ``last_accessed`` is touched on every servable ``get_payload`` hit and
    seeded to ``created_at`` for pre-existing rows — an upgraded database
    starts with "accessed when created", the most conservative backfill.
    """
    _execute_statements(
        connection,
        """
        ALTER TABLE artifacts ADD COLUMN last_accessed TEXT;
        UPDATE artifacts SET last_accessed = created_at;
        CREATE INDEX idx_artifacts_accessed ON artifacts (last_accessed);
        """,
    )


#: Forward migrations, applied in order to bring ``user_version`` up to date.
#: Never edit an entry in place — append a new one (old files migrate through
#: the exact statements their data was created under).
MIGRATIONS = (
    (1, _migrate_v1),
    (2, _migrate_v2),
    (3, _migrate_v3),
)

#: The schema version a fully migrated database reports.
SCHEMA_VERSION = MIGRATIONS[-1][0]


class SQLiteStore:
    """Row-level persistence for the model registry (one SQLite database).

    One store owns one connection (shared across threads behind an internal
    lock — SQLite serializes writers anyway, so a finer scheme buys nothing).
    Separate processes open separate stores over the same file; WAL plus the
    busy timeout make that safe.  ``path`` may be ``":memory:"`` for a
    process-local store with the same query surface.
    """

    def __init__(self, path: str | Path, target_version: int | None = None) -> None:
        self._path = str(path)
        self._lock = threading.Lock()
        try:
            self._connection = sqlite3.connect(
                self._path, check_same_thread=False, isolation_level=None
            )
            self._connection.row_factory = sqlite3.Row
            for pragma, value in _PRAGMAS:
                self._connection.execute(f"PRAGMA {pragma}={value}")
            self._migrate(target_version or SCHEMA_VERSION)
            self._version = self.schema_version
        except sqlite3.DatabaseError as error:
            raise StorageError(
                f"cannot open model-registry database {self._path!r}: {error}"
            ) from error

    # -- lifecycle ---------------------------------------------------------------

    @property
    def path(self) -> Path | None:
        """The database file (``None`` for an in-memory store)."""
        return None if self._path == ":memory:" else Path(self._path)

    @property
    def schema_version(self) -> int:
        """The database's current ``PRAGMA user_version``."""
        return int(self._connection.execute("PRAGMA user_version").fetchone()[0])

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            try:
                self._connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass

    def _migrate(self, target_version: int) -> None:
        """Apply forward migrations up to *target_version* (crash-safe)."""
        current = self.schema_version
        if current > SCHEMA_VERSION:
            raise StorageError(
                f"registry database {self._path!r} has schema version "
                f"{current}, newer than this library supports "
                f"({SCHEMA_VERSION}); upgrade the library instead"
            )
        with self._lock:
            for version, migration in MIGRATIONS:
                if version <= current or version > target_version:
                    continue
                self._connection.execute("BEGIN IMMEDIATE")
                try:
                    migration(self._connection)
                    self._connection.execute(f"PRAGMA user_version={version}")
                    self._connection.execute("COMMIT")
                except BaseException:
                    self._connection.execute("ROLLBACK")
                    raise

    # -- artifacts ---------------------------------------------------------------

    def put_artifact(
        self,
        fingerprint: str,
        base_fingerprint: str,
        provenance: str,
        spec_json: str,
        training_json: str,
        metadata: dict | None = None,
    ) -> None:
        """Insert or replace one artifact row (re-putting heals quarantine)."""
        timestamp = utc_timestamp()
        if self._version >= 3:
            columns = (
                "(fingerprint, base_fingerprint, provenance, spec, training,"
                " quarantined, quarantine_reason, created_at, last_accessed) "
                "VALUES (?, ?, ?, ?, ?, 0, NULL, ?, ?)"
            )
            stamps: tuple = (timestamp, timestamp)
        else:  # a store deliberately opened at an old schema version
            columns = (
                "(fingerprint, base_fingerprint, provenance, spec, training,"
                " quarantined, quarantine_reason, created_at) "
                "VALUES (?, ?, ?, ?, ?, 0, NULL, ?)"
            )
            stamps = (timestamp,)
        with self._lock:
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                self._connection.execute(
                    "INSERT OR REPLACE INTO artifacts " + columns,
                    (
                        fingerprint,
                        base_fingerprint,
                        provenance,
                        spec_json,
                        training_json,
                    )
                    + stamps,
                )
                if metadata is not None:
                    # The v1 ``future_bound`` column stays (migrations are
                    # append-only) but is left NULL: the goal picks the bound.
                    self._connection.execute(
                        "INSERT OR REPLACE INTO model_metadata "
                        "(fingerprint, goal_kind, search_strategy,"
                        " worst_optimality_ratio, tree_depth, tree_leaves,"
                        " num_training_samples, num_training_examples,"
                        " training_time_seconds) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            fingerprint,
                            metadata.get("goal_kind"),
                            metadata.get("search_strategy"),
                            metadata.get("worst_optimality_ratio"),
                            metadata.get("tree_depth"),
                            metadata.get("tree_leaves"),
                            metadata.get("num_training_samples"),
                            metadata.get("num_training_examples"),
                            metadata.get("training_time_seconds"),
                        ),
                    )
                self._connection.execute("COMMIT")
            except BaseException:
                self._connection.execute("ROLLBACK")
                raise

    def get_payload(self, fingerprint: str) -> dict | None:
        """The raw artifact payload for a servable row, or ``None``.

        Returns ``{"base_fingerprint", "provenance", "training"}`` with the
        training blob JSON-parsed; quarantined rows are never returned.  A
        blob that is no longer valid JSON (external corruption) comes back
        with ``training=None`` so the caller can quarantine it — a lookup
        must never raise.
        """
        row = self._connection.execute(
            "SELECT base_fingerprint, provenance, training FROM artifacts "
            "WHERE fingerprint = ? AND quarantined = 0",
            (fingerprint,),
        ).fetchone()
        if row is None:
            return None
        if self._version >= 3:
            # Touch-on-read: GC evicts by recency of *use*, not of training.
            # Best effort: a read-only or busy database still serves the row.
            try:
                with self._lock:
                    self._connection.execute(
                        "UPDATE artifacts SET last_accessed = ? WHERE fingerprint = ?",
                        (utc_timestamp(), fingerprint),
                    )
            except sqlite3.Error:
                pass
        try:
            training = json.loads(row["training"])
        except json.JSONDecodeError:
            training = None
        return {
            "base_fingerprint": row["base_fingerprint"],
            "provenance": row["provenance"],
            "training": training,
        }

    def raw_artifact(self, fingerprint: str) -> dict | None:
        """A servable row with spec and training as raw JSON text (for export)."""
        row = self._connection.execute(
            "SELECT base_fingerprint, provenance, spec, training FROM artifacts "
            "WHERE fingerprint = ? AND quarantined = 0",
            (fingerprint,),
        ).fetchone()
        return dict(row) if row is not None else None

    def contains(self, fingerprint: str) -> bool:
        """Whether a non-quarantined row exists for *fingerprint*."""
        row = self._connection.execute(
            "SELECT 1 FROM artifacts WHERE fingerprint = ? AND quarantined = 0",
            (fingerprint,),
        ).fetchone()
        return row is not None

    def fingerprints(self) -> tuple[str, ...]:
        """All servable fingerprints, sorted."""
        rows = self._connection.execute(
            "SELECT fingerprint FROM artifacts WHERE quarantined = 0 "
            "ORDER BY fingerprint"
        ).fetchall()
        return tuple(row["fingerprint"] for row in rows)

    def find_by_base(
        self, base_fingerprint: str, exclude: tuple[str, ...] = ()
    ) -> tuple[str, ...]:
        """Servable fingerprints sharing *base_fingerprint*, sorted (indexed)."""
        rows = self._connection.execute(
            "SELECT fingerprint FROM artifacts "
            "WHERE base_fingerprint = ? AND quarantined = 0 "
            "ORDER BY fingerprint",
            (base_fingerprint,),
        ).fetchall()
        return tuple(
            row["fingerprint"] for row in rows if row["fingerprint"] not in exclude
        )

    def provenance(self, fingerprint: str) -> str | None:
        """The recorded provenance of a servable row, or ``None``."""
        row = self._connection.execute(
            "SELECT provenance FROM artifacts "
            "WHERE fingerprint = ? AND quarantined = 0",
            (fingerprint,),
        ).fetchone()
        return row["provenance"] if row is not None else None

    def quarantine(self, fingerprint: str, reason: str) -> None:
        """Mark a row unservable, keeping the damaged blob for inspection."""
        with self._lock:
            self._connection.execute(
                "UPDATE artifacts SET quarantined = 1, quarantine_reason = ? "
                "WHERE fingerprint = ?",
                (reason, fingerprint),
            )

    def quarantined(self) -> tuple[tuple[str, str | None], ...]:
        """Every quarantined row as ``(fingerprint, reason)``, sorted."""
        rows = self._connection.execute(
            "SELECT fingerprint, quarantine_reason FROM artifacts "
            "WHERE quarantined = 1 ORDER BY fingerprint"
        ).fetchall()
        return tuple((row["fingerprint"], row["quarantine_reason"]) for row in rows)

    def access_rows(self) -> tuple[dict, ...]:
        """Every artifact's GC bookkeeping, sorted by fingerprint.

        Each row carries ``fingerprint``, ``quarantined`` (0/1),
        ``created_at``, and ``last_accessed`` — what the registry's
        :meth:`~repro.service.registry.ModelRegistry.gc` ranks and filters on
        without touching a single blob.
        """
        rows = self._connection.execute(
            "SELECT fingerprint, quarantined, created_at, last_accessed "
            "FROM artifacts ORDER BY fingerprint"
        ).fetchall()
        return tuple(dict(row) for row in rows)

    def delete_artifacts(self, fingerprints: tuple[str, ...]) -> int:
        """Delete the given artifact rows (metadata cascades); returns count."""
        if not fingerprints:
            return 0
        placeholders = ", ".join("?" for _ in fingerprints)
        with self._lock:
            cursor = self._connection.execute(
                f"DELETE FROM artifacts WHERE fingerprint IN ({placeholders})",
                tuple(fingerprints),
            )
        return cursor.rowcount

    def model_metadata(self, fingerprint: str) -> dict | None:
        """The metadata projection for a servable artifact (no blob touched)."""
        row = self._connection.execute(
            "SELECT m.* FROM model_metadata m "
            "JOIN artifacts a ON a.fingerprint = m.fingerprint "
            "WHERE m.fingerprint = ? AND a.quarantined = 0",
            (fingerprint,),
        ).fetchone()
        return dict(row) if row is not None else None

    # -- run history -------------------------------------------------------------

    def record_run(self, record: RunRecord) -> RunRecord:
        """Append one history row, returning the record with its id stamped."""
        stamped = record
        if not stamped.recorded_at:
            stamped = replace(stamped, recorded_at=utc_timestamp())
        values = tuple(
            int(getattr(stamped, column))
            if column == "degraded"
            else getattr(stamped, column)
            for column in _HISTORY_COLUMNS
        )
        placeholders = ", ".join("?" for _ in _HISTORY_COLUMNS)
        with self._lock:
            cursor = self._connection.execute(
                f"INSERT INTO run_history ({', '.join(_HISTORY_COLUMNS)}) "
                f"VALUES ({placeholders})",
                values,
            )
            return replace(stamped, row_id=cursor.lastrowid)

    def history(
        self,
        tenant: str | None = None,
        goal_kind: str | None = None,
        source: str | None = None,
        limit: int | None = None,
    ) -> tuple[RunRecord, ...]:
        """Recorded runs, oldest first; ``limit`` keeps the most recent N."""
        clauses, parameters = [], []
        for column, value in (
            ("tenant", tenant),
            ("goal_kind", goal_kind),
            ("source", source),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                parameters.append(value)
        query = f"SELECT id, {', '.join(_HISTORY_COLUMNS)} FROM run_history"
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id DESC"
        if limit is not None:
            query += " LIMIT ?"
            parameters.append(int(limit))
        rows = self._connection.execute(query, parameters).fetchall()
        records = []
        for row in reversed(rows):
            data = {column: row[column] for column in _HISTORY_COLUMNS}
            data["degraded"] = bool(data["degraded"])
            records.append(RunRecord(row_id=row["id"], **data))
        return tuple(records)

    def tenant_summaries(self) -> dict[str, TenantRunSummary]:
        """Per-tenant cost and SLA-compliance aggregates over all history."""
        rows = self._connection.execute(
            "SELECT tenant, COUNT(*) AS runs, SUM(num_queries) AS queries,"
            " SUM(total_cost) AS total_cost, SUM(penalty_cost) AS penalty_cost,"
            " SUM(wasted_cost) AS wasted_cost,"
            " SUM(degraded) AS degraded_runs,"
            " SUM(violation_seconds > 0) AS violation_runs"
            " FROM run_history GROUP BY tenant ORDER BY tenant"
        ).fetchall()
        return {
            row["tenant"]: TenantRunSummary(
                tenant=row["tenant"],
                runs=row["runs"],
                queries=row["queries"] or 0,
                total_cost=row["total_cost"] or 0.0,
                penalty_cost=row["penalty_cost"] or 0.0,
                wasted_cost=row["wasted_cost"] or 0.0,
                degraded_runs=row["degraded_runs"] or 0,
                violation_runs=row["violation_runs"] or 0,
            )
            for row in rows
        }


#: Public column list (used by tests asserting the queryable surface).
HISTORY_COLUMNS = _HISTORY_COLUMNS

__all__ = [
    "DATABASE_NAME",
    "HISTORY_COLUMNS",
    "MIGRATIONS",
    "RunRecord",
    "SCHEMA_VERSION",
    "SQLiteStore",
    "TenantRunSummary",
    "utc_timestamp",
]
