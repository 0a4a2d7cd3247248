"""Pins the CI pipeline's structural invariants to the repo's contents.

YAML is not parseable with the stdlib, so these pins grep the workflow
files for the specific structured lines they own — crude, but they turn
"someone added tests/newdir and forgot the shard matrix" from a silent
coverage hole into a red test.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CI = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
NIGHTLY = (REPO_ROOT / ".github" / "workflows" / "nightly.yml").read_text()


def test_every_test_directory_is_in_exactly_one_shard():
    sharded: list[str] = []
    for line in CI.splitlines():
        match = re.match(r"\s*paths:\s*(.+)$", line)
        if match:
            sharded.extend(match.group(1).split())
    actual = {
        f"tests/{p.name}"
        for p in (REPO_ROOT / "tests").iterdir()
        if p.is_dir() and any(p.glob("test_*.py"))
    }
    assert sorted(sharded) == sorted(set(sharded)), "directory in two shards"
    assert set(sharded) == actual, (
        "ci.yml shard matrix and tests/ directories disagree — update the "
        "shard `paths:` entries when adding or removing a test directory"
    )


def test_ci_cancels_superseded_runs_but_never_main():
    assert "concurrency:" in CI
    assert "group: ${{ github.workflow }}-${{ github.ref }}" in CI
    assert (
        "cancel-in-progress: ${{ github.ref != 'refs/heads/main' }}" in CI
    )


def test_bench_smoke_matrix_covers_every_baseline():
    """Each committed baseline is produced and gated by one matrix job."""
    results = set(re.findall(r"result:\s*(\S+\.json)", CI))
    baselines = {
        p.name for p in (REPO_ROOT / "benchmarks" / "baselines").glob("*.json")
    }
    assert results == baselines, (
        "bench-smoke matrix and benchmarks/baselines/ disagree — every "
        "baseline needs a CI job producing its result (and vice versa)"
    )


def test_serve_bench_is_wired_into_ci_and_nightly():
    assert "bench_serve.py" in CI and "serve.json" in CI
    assert "bench_serve.py" in NIGHTLY
    assert "REPRO_BENCH_SERVE_TENANTS" in NIGHTLY


def test_nightly_is_scheduled_with_artifact_upload():
    assert "schedule:" in NIGHTLY and re.search(r"cron:", NIGHTLY)
    assert "workflow_dispatch:" in NIGHTLY
    assert "actions/upload-artifact" in NIGHTLY
    assert "retention-days:" in NIGHTLY
    # Larger-than-CI scale knobs are actually set.
    assert re.search(r'STORE_BENCH_WRITERS:\s*"8"', NIGHTLY)
    assert re.search(r'REPRO_BENCH_SERVE_WARM:\s*"100"', NIGHTLY)
