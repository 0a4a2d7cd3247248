"""CLI smoke tests (python -m repro ...)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.feedback import StatisticsStore

SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("tpch_q7", "tpch_q15", "clickstream", "textmining"):
        assert name in out


def test_analyze_sca(capsys):
    assert main(["analyze", "tpch_q15"]) == 0
    out = capsys.readouterr().out
    assert "sigma_shipdate_q15" in out
    assert "l.shipdate" in out  # derived read set rendered

def test_analyze_conservative_column(capsys):
    assert main(["analyze", "clickstream"]) == 0
    out = capsys.readouterr().out
    assert "filter_buy_sessions" in out
    assert "yes" in out  # the conservative fallback is visible


def test_enumerate_manual(capsys):
    assert main(["enumerate", "clickstream", "--mode", "manual"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("9 valid reordered data flows")


def test_enumerate_limit(capsys):
    assert main(["enumerate", "tpch_q7", "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "more" in out


def test_experiment(capsys):
    assert main(["experiment", "tpch_q15", "--all"]) == 0
    out = capsys.readouterr().out
    assert "plans enumerated: 3" in out
    assert "runtime spread" in out


def test_experiment_with_feedback_rounds(capsys, tmp_path):
    store = tmp_path / "stats.sqlite"
    assert (
        main(
            [
                "experiment",
                "tpch_q15",
                "--picks",
                "3",
                "--feedback-rounds",
                "1",
                "--stats-store",
                str(store),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "adaptive optimization — tpch_q15" in out
    assert "round 0:" in out and "round 1:" in out
    assert "q-error median" in out
    assert store.exists()  # the store persisted for a warm start
    # Warm start: the saved store is accepted on a second run.
    assert (
        main(
            [
                "experiment",
                "tpch_q15",
                "--picks",
                "3",
                "--stats-store",
                str(store),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "round 0:" in out


@pytest.mark.parametrize("name", ["stats.sqlite", "stats.db", "stats.sqlte"])
def test_experiment_store_is_sqlite_whatever_the_extension(
    capsys, tmp_path, name
):
    store = tmp_path / name
    assert (
        main(
            [
                "experiment",
                "tpch_q15",
                "--picks",
                "3",
                "--feedback-rounds",
                "1",
                "--stats-store",
                str(store),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "round 0:" in out and "round 1:" in out
    assert store.read_bytes().startswith(b"SQLite format 3")


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "tpch_q15", "--stats-store", "{dir}/stats.sqlite",
         "--stats-backend", "sqlite"],
        ["serve", "--stats-dir", "{dir}", "--stats-backend", "sqlite"],
        ["stats", "migrate", "{dir}/a.json", "{dir}/b.sqlite",
         "--from-backend", "json"],
        ["stats", "migrate", "{dir}/a.sqlite", "{dir}/b.json",
         "--to-backend", "json"],
    ],
    ids=["experiment", "serve", "migrate-from", "migrate-to"],
)
def test_removed_backend_flags_are_rejected(capsys, tmp_path, argv):
    """sqlite is the only durable backend, so the flags that picked
    another are gone: argparse refuses them before anything runs."""
    with pytest.raises(SystemExit) as info:
        main([arg.format(dir=tmp_path) for arg in argv])
    assert info.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_stats_migrate_json_to_sqlite(capsys, tmp_path):
    live = tmp_path / "live.sqlite"
    src = tmp_path / "stats.json"
    dst = tmp_path / "stats.sqlite"
    assert (
        main(
            [
                "experiment",
                "tpch_q15",
                "--picks",
                "3",
                "--feedback-rounds",
                "1",
                "--stats-store",
                str(live),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["stats", "migrate", str(live), str(src)]) == 0
    assert src.read_text().startswith("{")  # a JSON snapshot
    assert main(["stats", "migrate", str(src), str(dst)]) == 0
    out = capsys.readouterr().out
    assert "estimator view verified identical" in out
    # The migrated store warm-starts the adaptive loop.
    assert (
        main(
            [
                "experiment",
                "tpch_q15",
                "--picks",
                "3",
                "--stats-store",
                str(dst),
            ]
        )
        == 0
    )
    assert "round 0:" in capsys.readouterr().out


def test_stats_migrate_refuses_to_clobber_without_force(capsys, tmp_path):
    src = tmp_path / "stats.json"
    dst = tmp_path / "existing.sqlite"
    dst.touch()
    assert main(["stats", "migrate", str(src), str(dst)]) == 2
    assert "use --force" in capsys.readouterr().err


def test_stats_migrate_reports_unreadable_source(capsys, tmp_path):
    src = tmp_path / "torn.json"
    src.write_text('{"version": ')  # torn write
    dst = tmp_path / "out.sqlite"
    assert main(["stats", "migrate", str(src), str(dst)]) == 1
    assert "migration failed" in capsys.readouterr().err


def test_stats_migrate_missing_source_creates_nothing(capsys, tmp_path):
    src = tmp_path / "typo.sqlite"
    dst = tmp_path / "out.sqlite"
    assert main(["stats", "migrate", str(src), str(dst)]) == 1
    assert "does not exist" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no empty store at either path


def test_stats_migrate_force_overwrites_a_snapshot(capsys, tmp_path):
    src = tmp_path / "stats.sqlite"
    StatisticsStore.open(src).close()
    dst = tmp_path / "export.json"
    dst.write_text("stale")
    assert main(["stats", "migrate", str(src), str(dst), "--force"]) == 0
    assert "verified identical" in capsys.readouterr().out
    assert StatisticsStore.load(dst).to_dict() == StatisticsStore().to_dict()


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["analyze", "nope"])


def test_experiment_rejects_removed_jobs_flag(capsys):
    """The costing pool is gone, and so is ``--jobs``."""
    with pytest.raises(SystemExit):
        main(["experiment", "tpch_q15", "--jobs", "2"])
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["experiment", "migrate"])
def test_non_database_store_fails_cleanly(tmp_path, command):
    """A file that is not a sqlite database at a store path exits 1 with
    a one-line error, not a traceback, and the file is left alone."""
    junk = tmp_path / "junk.db"
    content = b"torn or foreign bytes, not a database\n" * 8
    junk.write_bytes(content)
    argv = {
        "experiment": [
            "experiment", "clickstream", "--feedback-rounds", "1",
            "--stats-store", str(junk),
        ],
        "migrate": ["stats", "migrate", str(junk), str(tmp_path / "out.sqlite")],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "cannot open sqlite statistics store" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert junk.read_bytes() == content


def test_old_json_store_at_store_path_names_migrate(capsys, tmp_path):
    store = tmp_path / "stats.json"
    StatisticsStore().save(store)
    code = main(
        [
            "experiment",
            "tpch_q15",
            "--feedback-rounds",
            "1",
            "--stats-store",
            str(store),
        ]
    )
    assert code == 1
    assert "repro stats migrate OLD.json NEW.sqlite" in capsys.readouterr().err
