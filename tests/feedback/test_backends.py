"""The persistence layer under the statistics store.

Covers the :class:`~repro.feedback.backends.StatsBackend` contract —
generation counters, optimistic-conflict detection, transactional
commits — on sqlite and on an in-memory fake (the protocol is the seam
tests substitute backends through), plus sqlite's own guarantees: schema
migrations from a hand-crafted v1 database and clean errors for a file
that is not a database.  The JSON snapshot (``save()`` / ``load()``)
keeps its atomic-replace crash safety, and ``repro stats migrate`` moves
state between snapshots — old JSON stores included — and sqlite without
loss.
"""

import json
import os
import signal
import sqlite3

import pytest

from repro.bench import run_experiment
from repro.cli import main
from repro.core.errors import FeedbackError
from repro.datagen import TpchScale
from repro.feedback import (
    BackendConflict,
    SqliteBackend,
    StatisticsStore,
    StatsBackend,
)
from repro.feedback.backends import sqlite_backend, write_json_atomic
from repro.feedback.backends.sqlite_backend import SCHEMA_VERSION
from repro.feedback.observation import ExecutionObservation, OpObservation
from repro.serve import ServerConfig
from repro.workloads import build_q15
from tests.feedback.fakes import FakeBackend

SMALL_TPCH = TpchScale(suppliers=40, customers=80, orders=400)


def obs(key="k1", rows_out=40, seconds=2.0, run_id=None, wall=0.0):
    return ExecutionObservation(
        plan_key="p1",
        seconds=seconds,
        ops=(
            OpObservation(
                key=key,
                op_name=key,
                kind="map",
                rows_in=100,
                rows_out=rows_out,
                udf_calls=100,
                cpu_per_call=1.5,
                disk_bytes=0.0,
            ),
        ),
        run_id=run_id,
        wall_seconds=wall,
    )


@pytest.fixture(params=["sqlite", "fake"])
def backend(request, tmp_path):
    if request.param == "sqlite":
        backend = SqliteBackend(tmp_path / "stats.sqlite")
    else:
        backend = FakeBackend()
    yield backend
    backend.close()


def attach(backend):
    """Open a store over ``backend``'s persisted state, as another
    process would: its own sqlite connection, or the shared fake."""
    if isinstance(backend, SqliteBackend):
        return StatisticsStore.open(backend.path)
    return StatisticsStore.open(backend.path, backend=backend)


def test_both_backends_satisfy_the_protocol(tmp_path):
    assert isinstance(FakeBackend(), StatsBackend)
    sqlite_store = SqliteBackend(tmp_path / "a.sqlite")
    assert isinstance(sqlite_store, StatsBackend)
    sqlite_store.close()


@pytest.mark.parametrize(
    "call",
    [
        lambda tmp_path: StatisticsStore().migrate_to(
            tmp_path / "stats.json", backend="json"
        ),
        lambda tmp_path: run_experiment(
            build_q15(SMALL_TPCH), stats_store=tmp_path / "s.json",
            stats_backend="json",
        ),
        lambda tmp_path: ServerConfig(stats_dir=tmp_path, stats_backend="json"),
    ],
    ids=["migrate_to-backend", "run_experiment-stats_backend",
         "ServerConfig-stats_backend"],
)
def test_removed_backend_options_are_rejected(tmp_path, call):
    """sqlite is the one durable backend: the options that picked
    another are gone, and passing one creates no file."""
    with pytest.raises(TypeError, match="backend"):
        call(tmp_path)
    assert list(tmp_path.iterdir()) == []


class TestBackendContract:
    def test_fresh_backend_loads_empty_at_generation_zero(self, backend):
        payload, generation = backend.load()
        assert payload is None
        assert generation == 0
        assert backend.generation() == 0

    def test_commit_bumps_generation_and_round_trips(self, backend):
        store = StatisticsStore()
        delta = store._fold(obs())
        generation = backend.commit(store.to_dict(), delta, 0)
        assert generation == 1
        payload, loaded_generation = backend.load()
        assert loaded_generation == 1
        assert StatisticsStore.from_dict(payload).to_dict() == store.to_dict()

    def test_stale_expectation_conflicts_and_changes_nothing(self, backend):
        store = StatisticsStore()
        delta = store._fold(obs())
        backend.commit(store.to_dict(), delta, 0)
        before = backend.load()
        with pytest.raises(BackendConflict):
            backend.commit(store.to_dict(), delta, 0)  # stale: now at 1
        assert backend.load() == before

    def test_store_ingest_retries_through_conflicts(self, backend):
        a = attach(backend)
        b = attach(backend)
        a.ingest(obs(rows_out=10))
        b.ingest(obs(rows_out=90))  # conflicts, reloads, re-folds
        a.sync()
        assert a.version == b.version == 2
        assert a.estimator_view() == b.estimator_view()
        # EMA folded both observations in commit order: 10 then 90.
        assert a.nodes["k1"].rows_out == 0.5 * 90 + 0.5 * 10

    def test_generation_counts_commits_from_any_writer(self, backend):
        a = attach(backend)  # creation commit: gen 1
        b = attach(backend)
        for i in range(3):
            (a if i % 2 else b).ingest(obs(rows_out=i))
        assert backend.generation() == 4  # 1 creation + 3 ingests

    def test_run_dedupe_map_is_persisted(self, backend):
        writer = attach(backend)
        writer.ingest(obs(run_id="run-7", seconds=1.0))
        reader = attach(backend)
        assert reader._run_ingested == {"run-7": {"k1"}}
        reader.ingest(obs(run_id="run-7", rows_out=999))
        assert reader.nodes["k1"].runs == 1  # deduped across processes


class TestAtomicJsonWrites:
    def test_write_lands_complete_or_not_at_all(self, tmp_path):
        path = tmp_path / "stats.json"
        write_json_atomic(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        assert list(tmp_path.iterdir()) == [path]  # no tmp litter

    def test_crash_between_write_and_replace_keeps_old_state(self, tmp_path):
        """Kill ``save()`` after the temp file is written but before the
        atomic rename: the snapshot must still hold the previous state
        and load cleanly."""
        path = tmp_path / "stats.json"
        store = StatisticsStore()
        store.ingest(obs(rows_out=10))
        store.save(path)
        good = path.read_text()

        child = os.fork()
        if child == 0:  # pragma: no cover - exercised in the fork
            # Crash at the worst instant: after fsync, before replace.
            os.replace = lambda *_: os.kill(os.getpid(), signal.SIGKILL)
            store.ingest(obs(rows_out=999))
            store.save(path)
            os._exit(0)  # unreachable
        _, status = os.waitpid(child, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

        assert path.read_text() == good
        assert StatisticsStore.load(path).nodes["k1"].rows_out == 10.0

    def test_torn_file_raises_clean_feedback_error(self, tmp_path):
        """A simulated torn write (truncated JSON, as the seed's
        ``write_text`` could leave behind) fails loudly, not obscurely —
        loaded as a snapshot or opened as a store."""
        path = tmp_path / "stats.json"
        StatisticsStore().save(path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(FeedbackError, match="not valid JSON"):
            StatisticsStore.load(path)
        with pytest.raises(FeedbackError, match="repro stats migrate"):
            StatisticsStore.open(path)


class TestStorePaths:
    @pytest.mark.parametrize(
        "name",
        [
            "stats.sqlite",
            "stats.sqlite3",
            "stats.db",
            "stats.SQLITE",
            "stats.json",
            "stats",
            "stats.txt",
        ],
    )
    def test_any_store_path_opens_as_sqlite(self, tmp_path, name):
        """No extension sniffing: every store path is a sqlite database,
        and what one store learns another reads back from the file."""
        path = tmp_path / name
        store = StatisticsStore.open(path)
        assert isinstance(store.backend, SqliteBackend)
        store.ingest(obs(run_id="run-1"))
        store.close()
        assert path.read_bytes().startswith(b"SQLite format 3\x00")
        reopened = StatisticsStore.open(path)
        assert isinstance(reopened.backend, SqliteBackend)
        assert reopened.to_dict() == store.to_dict()
        assert reopened._run_ingested == {"run-1": {"k1"}}
        reopened.close()

    def test_empty_file_opens_as_a_fresh_store(self, tmp_path):
        """A zero-byte file (``touch stats.db``) is an empty sqlite
        database, not a foreign file: it opens as a fresh store."""
        path = tmp_path / "stats.db"
        path.touch()
        store = StatisticsStore.open(path)
        assert store.version == 0
        assert store.to_dict() == StatisticsStore().to_dict()
        store.close()
        assert path.read_bytes().startswith(b"SQLite format 3\x00")


def _torn_database(path):
    """The first half of a real store's database file."""
    store = StatisticsStore.open(path)
    for i in range(20):
        store.ingest(obs(key=f"k{i}", rows_out=i))
    store.close()
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


class TestNotADatabase:
    """A store path holding something other than a sqlite database fails
    with a :class:`FeedbackError` and leaks no connection."""

    @pytest.mark.parametrize("content", ["garbage", "torn-database"])
    def test_non_database_file_raises_feedback_error(
        self, tmp_path, monkeypatch, content
    ):
        path = tmp_path / "junk.db"
        if content == "garbage":
            path.write_bytes(b"not a database, not JSON either\n" * 8)
        else:
            _torn_database(path)
        before = path.read_bytes()
        opened = []
        connect = sqlite3.connect

        def recording_connect(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sqlite_backend.sqlite3, "connect", recording_connect)
        with pytest.raises(FeedbackError, match="cannot open sqlite") as info:
            StatisticsStore.open(path)
        assert "stats migrate" not in str(info.value)
        (con,) = opened
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            con.execute("SELECT 1")
        assert path.read_bytes() == before

    @pytest.mark.parametrize("layout", ["save", "json-backend"])
    def test_json_store_names_the_migrate_command(self, tmp_path, layout):
        """A ``save()`` snapshot, or a store the deleted JSON backend
        wrote (the same payload plus a ``"generation"`` counter), at a
        store path names the import command and is left untouched."""
        path = tmp_path / "stats.json"
        store = StatisticsStore()
        store.ingest(obs())
        store.save(path)
        if layout == "json-backend":
            payload = json.loads(path.read_text())
            payload["generation"] = 2
            path.write_text(json.dumps(payload))
        before = path.read_bytes()
        with pytest.raises(
            FeedbackError, match="repro stats migrate OLD.json NEW.sqlite"
        ):
            StatisticsStore.open(path)
        assert path.read_bytes() == before
        assert StatisticsStore.load(path).to_dict() == store.to_dict()


class TestSqliteMigrations:
    def _make_v1_db(self, path):
        """A database exactly as schema v1 would have written it."""
        con = sqlite3.connect(path)
        con.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        con.execute(
            "CREATE TABLE nodes (key TEXT PRIMARY KEY, op_name TEXT NOT NULL,"
            " kind TEXT NOT NULL, rows_in REAL NOT NULL, rows_out REAL NOT"
            " NULL, udf_calls REAL NOT NULL, cpu_per_call REAL NOT NULL,"
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
        con.execute(
            "INSERT INTO nodes VALUES ('k1','k1','map',100,40,100,1.5,1,1)"
        )
        con.execute("INSERT INTO plans VALUES ('p1', 2.0, 1, 1)")
        con.executemany(
            "INSERT INTO meta VALUES (?,?)",
            [
                ("generation", "1"),
                ("version", "1"),
                ("decay", "0.5"),
                ("staleness_horizon", "null"),
            ],
        )
        con.execute("PRAGMA user_version = 1")
        con.commit()
        con.close()

    def test_v1_database_upgrades_in_place(self, tmp_path):
        path = tmp_path / "old.sqlite"
        self._make_v1_db(path)
        store = StatisticsStore.open(path)
        assert store.version == 1
        assert store.nodes["k1"].rows_out == 40.0
        # The migrated plans gained wall columns with empty defaults.
        assert store.plans["p1"].seconds == 2.0
        assert store.plans["p1"].wall_runs == 0
        assert store.plan_wall_seconds("p1") is None
        con = sqlite3.connect(path)
        (user_version,) = con.execute("PRAGMA user_version").fetchone()
        con.close()
        assert user_version == SCHEMA_VERSION

    def test_migrated_store_keeps_learning(self, tmp_path):
        path = tmp_path / "old.sqlite"
        self._make_v1_db(path)
        store = StatisticsStore.open(path)
        store.ingest(obs(rows_out=90, wall=0.25))
        reloaded = StatisticsStore.open(path)
        assert reloaded.nodes["k1"].rows_out == 0.5 * 90 + 0.5 * 40
        assert reloaded.plan_wall_seconds("p1") == 0.25

    def test_newer_schema_than_this_build_fails_loudly(self, tmp_path):
        path = tmp_path / "future.sqlite"
        con = sqlite3.connect(path)
        con.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        con.commit()
        con.close()
        with pytest.raises(FeedbackError, match="newer than this build"):
            SqliteBackend(path)

    def test_fresh_database_walks_the_whole_chain(self, tmp_path):
        backend = SqliteBackend(tmp_path / "fresh.sqlite")
        (user_version,) = backend._con.execute(
            "PRAGMA user_version"
        ).fetchone()
        assert user_version == SCHEMA_VERSION
        (mode,) = backend._con.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        backend.close()


def _same_state(got, want):
    assert got.estimator_view() == want.estimator_view()
    assert got.to_dict() == want.to_dict()
    assert got._run_ingested == want._run_ingested
    assert got.plan_wall_seconds("p1") == want.plan_wall_seconds("p1")


class TestMigrateAcrossFormats:
    """``repro stats migrate``: a path ending in ``.json`` is a snapshot,
    any other path a sqlite store."""

    @staticmethod
    def _learned():
        store = StatisticsStore()
        store.ingest(obs(rows_out=10, run_id="run-1", wall=0.5))
        store.ingest(obs(key="k2", rows_out=77, seconds=9.0))
        return store

    def test_sqlite_to_snapshot_to_sqlite_is_lossless(self, tmp_path, capsys):
        source = self._learned().migrate_to(tmp_path / "src.sqlite")
        snapshot = tmp_path / "snap.json"
        back = tmp_path / "back.sqlite"
        src = str(source.backend.path)
        assert main(["stats", "migrate", src, str(snapshot)]) == 0
        _same_state(StatisticsStore.load(snapshot), source)
        assert main(["stats", "migrate", str(snapshot), str(back)]) == 0
        _same_state(StatisticsStore.open(back), source)
        assert capsys.readouterr().out.count("verified identical") == 2

    @pytest.mark.parametrize("layout", ["json-backend", "save"])
    def test_old_json_store_imports_into_sqlite(self, tmp_path, capsys, layout):
        """A store written by the deleted JSON backend (a ``save()``
        payload plus its ``"generation"`` commit counter) or by a plain
        ``save()`` migrates into sqlite with nothing lost."""
        source = self._learned()
        payload = source.to_dict()
        if layout == "json-backend":
            payload["generation"] = 3
        old = tmp_path / "x.json"
        old.write_text(json.dumps(payload, indent=1, sort_keys=True))
        new = tmp_path / "x.sqlite"
        assert main(["stats", "migrate", str(old), str(new)]) == 0
        assert "verified identical" in capsys.readouterr().out
        migrated = StatisticsStore.open(new)
        _same_state(migrated, source)
        migrated.ingest(obs(rows_out=30))  # and it keeps learning
        assert StatisticsStore.open(new).version == source.version + 1
