"""Sqlite persistence in WAL mode: one transaction per ingested execution.

Concurrency model
-----------------
The database runs in write-ahead-log mode (readers never block the
writer, the writer never blocks readers) and every ``commit()`` is one
``BEGIN IMMEDIATE`` transaction: take the write lock, re-check the
persisted generation against the caller's expectation, upsert exactly
the rows the ingest touched, bump the generation, commit.  A stale
expectation rolls back untouched and surfaces as
:class:`~.base.BackendConflict`, which the store's transactional ingest
answers by reloading and re-folding — the optimistic-retry loop.  Lock
contention (not staleness) is absorbed by sqlite's busy timeout.

Schema migrations
-----------------
``PRAGMA user_version`` records the schema generation; :data:`_MIGRATIONS`
is an ordered chain of idempotent upgrade steps applied inside one
transaction on open.  A fresh database walks the whole chain; an old
file resumes from its recorded version; a *newer* file than this code
understands fails loudly instead of guessing.

Values round-trip exactly: floats are bound as 8-byte IEEE ``REAL``,
counters as ``INTEGER``, and store-level config (decay, staleness
horizon, the run-dedupe map) as JSON text in the ``meta`` table — so a
state written by one process re-loads bit-identically in another.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
from pathlib import Path

from ...core.errors import FeedbackError
from .base import BackendConflict, CommitDelta

#: Current schema generation (PRAGMA user_version).
SCHEMA_VERSION = 2

#: Store format the payloads speak (mirrors the JSON snapshot format).
_FORMAT = 2


def _migrate_v1(con: sqlite3.Connection) -> None:
    """v1: the original tables — meta kv, nodes, sources, plans."""
    con.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
    con.execute(
        "CREATE TABLE nodes (key TEXT PRIMARY KEY, op_name TEXT NOT NULL,"
        " kind TEXT NOT NULL, rows_in REAL NOT NULL, rows_out REAL NOT NULL,"
        " udf_calls REAL NOT NULL, cpu_per_call REAL NOT NULL,"
        " runs INTEGER NOT NULL, last_seen INTEGER NOT NULL)"
    )
    con.execute(
        "CREATE TABLE sources (name TEXT PRIMARY KEY, rows REAL NOT NULL,"
        " scan_bytes REAL NOT NULL, runs INTEGER NOT NULL,"
        " last_seen INTEGER NOT NULL)"
    )
    con.execute(
        "CREATE TABLE plans (key TEXT PRIMARY KEY, seconds REAL NOT NULL,"
        " runs INTEGER NOT NULL, last_seen INTEGER NOT NULL)"
    )


def _migrate_v2(con: sqlite3.Connection) -> None:
    """v2: measured wall-clock runtimes alongside modeled seconds."""
    con.execute(
        "ALTER TABLE plans ADD COLUMN wall_seconds REAL NOT NULL DEFAULT 0"
    )
    con.execute(
        "ALTER TABLE plans ADD COLUMN wall_runs INTEGER NOT NULL DEFAULT 0"
    )


#: Ordered upgrade chain: step i migrates user_version i -> i+1.
_MIGRATIONS = (_migrate_v1, _migrate_v2)


def _open_error(path: Path, exc: sqlite3.Error) -> FeedbackError:
    """A clean error for a store path sqlite cannot open."""
    message = f"cannot open sqlite statistics store {str(path)!r}: {exc}"
    with contextlib.suppress(OSError), open(path, "rb") as handle:
        if handle.read(1) == b"{":
            message += (
                " — the file is a JSON statistics snapshot; import it with "
                "`repro stats migrate OLD.json NEW.sqlite`"
            )
    return FeedbackError(message)


class SqliteBackend:
    """WAL-mode sqlite backend with per-execution transactions."""

    def __init__(self, path: str | Path, busy_timeout: float = 30.0) -> None:
        self.path = Path(path)
        try:
            # check_same_thread off: a store is single-owner but not
            # thread-pinned — the planning server opens it on the event
            # loop and syncs/ingests from executor threads, serialized
            # by its per-tenant lock.  Concurrent *processes* are the
            # supported concurrency model (WAL + per-commit IMMEDIATE
            # transactions); concurrent threads on one handle stay the
            # caller's responsibility, exactly as before.
            self._con = sqlite3.connect(
                str(self.path),
                timeout=busy_timeout,
                isolation_level=None,
                check_same_thread=False,
            )
        except sqlite3.Error as exc:
            raise _open_error(self.path, exc) from None
        # sqlite reads the file lazily: a file that is not a database
        # fails here, on the first statement, not in connect().
        try:
            self._con.execute("PRAGMA journal_mode=WAL")
            self._con.execute("PRAGMA synchronous=NORMAL")
            self._migrate()
        except BaseException as exc:
            self._con.close()
            if isinstance(exc, sqlite3.Error):
                raise _open_error(self.path, exc) from None
            raise

    def _migrate(self) -> None:
        con = self._con
        con.execute("BEGIN IMMEDIATE")
        try:
            (version,) = con.execute("PRAGMA user_version").fetchone()
            if version > SCHEMA_VERSION:
                raise FeedbackError(
                    f"statistics store {str(self.path)!r} has schema "
                    f"version {version}, newer than this build "
                    f"({SCHEMA_VERSION}) — upgrade the code, not the file"
                )
            for step in _MIGRATIONS[version:]:
                step(con)
            if version < SCHEMA_VERSION:
                con.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            con.execute("COMMIT")
        except BaseException:
            con.execute("ROLLBACK")
            raise

    # -- meta helpers ------------------------------------------------------

    def _meta(self) -> dict[str, str]:
        return dict(self._con.execute("SELECT key, value FROM meta"))

    def _generation_row(self) -> int:
        row = self._con.execute(
            "SELECT value FROM meta WHERE key = 'generation'"
        ).fetchone()
        return int(row[0]) if row is not None else 0

    # -- StatsBackend ------------------------------------------------------

    def load(self) -> tuple[dict | None, int]:
        meta = self._meta()
        generation = int(meta.get("generation", 0))
        if "version" not in meta:
            return None, generation
        payload: dict = {
            "format": _FORMAT,
            "decay": json.loads(meta["decay"]),
            "staleness_horizon": json.loads(meta["staleness_horizon"]),
            "version": int(meta["version"]),
            # Sorted row order mirrors to_dict() and the JSON snapshot's
            # sort_keys serialization, so a reload is bit-identical to
            # the in-memory store (learned-hint folds iterate entries in
            # store order).
            "nodes": {
                key: {
                    "op_name": op_name,
                    "kind": kind,
                    "rows_in": rows_in,
                    "rows_out": rows_out,
                    "udf_calls": udf_calls,
                    "cpu_per_call": cpu_per_call,
                    "runs": runs,
                    "last_seen": last_seen,
                }
                for (
                    key, op_name, kind, rows_in, rows_out,
                    udf_calls, cpu_per_call, runs, last_seen,
                ) in self._con.execute(
                    "SELECT key, op_name, kind, rows_in, rows_out,"
                    " udf_calls, cpu_per_call, runs, last_seen"
                    " FROM nodes ORDER BY key"
                )
            },
            "sources": {
                name: {
                    "rows": rows,
                    "scan_bytes": scan_bytes,
                    "runs": runs,
                    "last_seen": last_seen,
                }
                for name, rows, scan_bytes, runs, last_seen in self._con.execute(
                    "SELECT name, rows, scan_bytes, runs, last_seen"
                    " FROM sources ORDER BY name"
                )
            },
            "plans": {
                key: {
                    "seconds": seconds,
                    "wall_seconds": wall_seconds,
                    "wall_runs": wall_runs,
                    "runs": runs,
                    "last_seen": last_seen,
                }
                for key, seconds, wall_seconds, wall_runs, runs, last_seen
                in self._con.execute(
                    "SELECT key, seconds, wall_seconds, wall_runs, runs,"
                    " last_seen FROM plans ORDER BY key"
                )
            },
            "run_ingested": json.loads(meta.get("run_ingested", "[]")),
        }
        return payload, generation

    def generation(self) -> int:
        return self._generation_row()

    def commit(
        self, payload: dict, delta: CommitDelta, expected_generation: int
    ) -> int:
        con = self._con
        con.execute("BEGIN IMMEDIATE")
        try:
            current = self._generation_row()
            if current != expected_generation:
                raise BackendConflict(
                    f"statistics store {str(self.path)!r} moved to "
                    f"generation {current} (expected {expected_generation})"
                )
            for key, row in delta.nodes.items():
                con.execute(
                    "INSERT OR REPLACE INTO nodes (key, op_name, kind,"
                    " rows_in, rows_out, udf_calls, cpu_per_call, runs,"
                    " last_seen) VALUES (?,?,?,?,?,?,?,?,?)",
                    (
                        key, row["op_name"], row["kind"], row["rows_in"],
                        row["rows_out"], row["udf_calls"],
                        row["cpu_per_call"], row["runs"], row["last_seen"],
                    ),
                )
            for name, row in delta.sources.items():
                con.execute(
                    "INSERT OR REPLACE INTO sources (name, rows, scan_bytes,"
                    " runs, last_seen) VALUES (?,?,?,?,?)",
                    (
                        name, row["rows"], row["scan_bytes"], row["runs"],
                        row["last_seen"],
                    ),
                )
            for key, row in delta.plans.items():
                con.execute(
                    "INSERT OR REPLACE INTO plans (key, seconds,"
                    " wall_seconds, wall_runs, runs, last_seen)"
                    " VALUES (?,?,?,?,?,?)",
                    (
                        key, row["seconds"], row["wall_seconds"],
                        row["wall_runs"], row["runs"], row["last_seen"],
                    ),
                )
            meta_rows = (
                ("generation", str(current + 1)),
                ("version", str(delta.version)),
                ("decay", json.dumps(payload["decay"])),
                ("staleness_horizon", json.dumps(payload["staleness_horizon"])),
                ("run_ingested", json.dumps(delta.run_ingested)),
            )
            con.executemany(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?,?)",
                meta_rows,
            )
            con.execute("COMMIT")
        except BaseException:
            con.execute("ROLLBACK")
            raise
        return current + 1

    def close(self) -> None:
        self._con.close()
