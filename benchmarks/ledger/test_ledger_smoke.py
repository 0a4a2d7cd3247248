"""Smoke test of the perf ledger (collected by the tier-1 command).

Runs every workload for one second with a single set-up and checks that
what ``run.py`` prints and writes is exactly what ``BENCHMARK.json``
promises — names, units, limits, no failed operation — and that the span
logs load through ``repro.obs.load_trace``.  The time goes into the
stress space's eager oracle and the server spawn.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import load_trace

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
UNITS = {
    kind: {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    for kind in ("end_to_end", "per_layer")
}


def run_py(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds=1", "--setups=1", *args],
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    done = run_py("--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads((out / "ledger.json").read_text()), done.stdout


def test_benchmark_json_stays_within_the_contract():
    names = WORKLOADS + [n for kind in UNITS.values() for n in kind]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(UNITS["end_to_end"]) <= 16
    assert 1 <= len(UNITS["per_layer"]) <= 128
    assert "setup_s" in UNITS["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_every_listed_metric_is_measured_and_nothing_else(ledger):
    _, result, stdout = ledger
    runs = {run["workload"]: run for run in result["runs"]}
    assert list(runs) == WORKLOADS
    assert set(result["host"]) == {"cores", "python", "platform", "commit"}
    produced = set()
    for run in runs.values():
        assert run["failed_share"] == 0 and run["correct"], run["workload"]
        assert run["clients"] <= result["host"]["cores"]
        assert run["seed"] == 1 and run["samples"]["untraced"]["headline_s"] >= 1
        # Every workload reports every end-to-end metric, none of them 0.
        assert {
            name: metric["unit"] for name, metric in run["end_to_end"].items()
        } == UNITS["end_to_end"]
        assert all(metric["value"] > 0 for metric in run["end_to_end"].values())
        for name, metric in run["per_layer"].items():
            assert metric["unit"] == UNITS["per_layer"][name]
            assert f"  {name} " in stdout
        produced |= set(run["per_layer"])
    # ... and vice versa: no per-layer name is listed but never measured.
    assert produced == set(UNITS["per_layer"])


def test_span_logs_load_and_account_for_the_iterations(ledger):
    out, result, _ = ledger
    for run in result["runs"]:
        spans = load_trace(out / f"trace_{run['workload']}.jsonl")
        assert len(spans) == run["trace"]["spans"] > 0
        ids = {span.span_id for span in spans}
        assert all(s.parent_id is None or s.parent_id in ids for s in spans)
        assert {s.category for s in spans} <= {
            "bench", "sca", "optimizer", "engine", "feedback", "serve"
        }


def test_compare_accepts_a_ledger_against_itself(ledger):
    out, _, _ = ledger
    path = str(out / "ledger.json")
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), path, path],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 regressions, 0 unresolved" in done.stdout


def test_driver_mode_prints_one_result_with_every_metric(tmp_path):
    done = run_py(
        "--workload", "textmining_job", "--seed", "7", "--trace", "1",
        "--out", str(tmp_path),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 < result["attempted"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == UNITS["per_layer"]
    assert result["metrics"]["serve.requests"]["value"] == 0
    assert result["metrics"]["engine.rows_out"]["value"] > 0
