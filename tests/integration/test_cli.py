"""CLI smoke tests (python -m repro ...)."""

import pytest

from repro.cli import main


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
    store = tmp_path / "stats.json"
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


def test_experiment_with_sqlite_store_sniffed_from_extension(
    capsys, tmp_path
):
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
    assert "round 0:" in out and "round 1:" in out
    assert store.exists()
    assert store.read_bytes().startswith(b"SQLite format 3")


def test_experiment_stats_backend_overrides_extension(capsys, tmp_path):
    store = tmp_path / "stats.json"  # sniffs json; the flag wins
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
                "--stats-backend",
                "sqlite",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert store.read_bytes().startswith(b"SQLite format 3")


def test_stats_migrate_json_to_sqlite(capsys, tmp_path):
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
                str(src),
            ]
        )
        == 0
    )
    capsys.readouterr()
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


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["analyze", "nope"])


def test_experiment_rejects_removed_jobs_flag(capsys):
    """The costing pool is gone, and so is ``--jobs``."""
    with pytest.raises(SystemExit):
        main(["experiment", "tpch_q15", "--jobs", "2"])
    assert "--jobs" in capsys.readouterr().err


def test_experiment_warns_on_unknown_store_extension(capsys, tmp_path):
    """A typo'd extension must not *silently* fall back to JSON: the
    sniff warns (naming the path and the fallback) and still works."""
    store = tmp_path / "stats.sqlte"  # the classic typo
    with pytest.warns(UserWarning, match="unknown extension '.sqlte'"):
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
    capsys.readouterr()
    # The documented fallback still happened: a JSON store was written.
    assert store.read_text().lstrip().startswith("{")


def test_experiment_known_store_extensions_do_not_warn(
    capsys, tmp_path, recwarn
):
    for name in ("stats.json", "stats.sqlite"):
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
                    str(tmp_path / name),
                ]
            )
            == 0
        )
    capsys.readouterr()
    assert not [
        w for w in recwarn if "unknown extension" in str(w.message)
    ]
