"""Every example script runs end to end, as a user would start it.

Each ``examples/*.py`` runs in a fresh interpreter with only ``src`` on
the path and must exit 0 within the timeout; its output is not pinned.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert [path.name for path in EXAMPLES] == [
        "clickstream_sessions.py",
        "quickstart.py",
        "relational_tpch.py",
        "text_mining.py",
    ]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path):
    done = subprocess.run(
        [sys.executable, str(path)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
