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
WORKFLOWS = REPO_ROOT / ".github" / "workflows"
CI = (WORKFLOWS / "ci.yml").read_text()


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


def test_ci_runs_the_ledger_smoke_and_names_only_existing_files():
    """The perf ledger is CI's one measurement job, and every file a
    workflow names exists: a path at that path, a bare name anywhere."""
    assert "python -m pytest benchmarks/ledger/test_ledger_smoke.py" in CI
    for workflow in sorted(WORKFLOWS.glob("*.yml")):
        for name in re.findall(
            r"[\w./-]*\w\.(?:py|json|txt|yml)\b", workflow.read_text()
        ):
            if "/" in name:
                assert (REPO_ROOT / name).exists(), f"{workflow.name}: {name}"
            else:
                assert any(REPO_ROOT.rglob(name)), f"{workflow.name}: {name}"
