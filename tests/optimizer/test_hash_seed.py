"""Rankings do not depend on the interpreter's string-hash seed.

Sets and dicts keyed by strings iterate in a ``PYTHONHASHSEED``-dependent
order, so any such iteration that leaks into enumeration order, float
summation order or tie-breaking would change a ranking between
processes.  Each case plans in a fresh interpreter under one seed:
``tpch_q7-sca`` eagerly, compared in full — signature, ``float.hex``
cost and describe digest — with the frozen fixture, and every space with
``search="guided"`` (its cells are keyed by operator-name *sets*),
compared with the fixture's first ``GUIDED_TOP_K`` entries.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.optimizer.spaces import SPACE_NAMES, frozen

ROOT = Path(__file__).resolve().parents[2]
SPACE = "tpch_q7-sca"
GUIDED_TOP_K = 10
GUIDED_SEED = "7"

PLAN = f"""
import json
from tests.optimizer.spaces import entry, space

sp = space({SPACE!r})
result = sp.optimizer().optimize(sp.plan)
print(json.dumps({{
    "plan_count": result.plan_count,
    "ranking": [entry(plan) for plan in result.ranked],
}}))
"""

GUIDED = """
import json, sys
from tests.optimizer.spaces import entry, space

sp = space(sys.argv[1])
result = sp.optimizer(search="guided", top_k=int(sys.argv[2])).optimize(sp.plan)
print(json.dumps([entry(plan) for plan in result.ranked]))
"""


def run_under_seed(seed, script, *args):
    """The JSON ``script`` prints, run under ``PYTHONHASHSEED=seed``."""
    env = {
        **os.environ,
        "PYTHONHASHSEED": seed,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    }
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("seed", ["0", "1", "3141592653"])
def test_eager_ranking_is_hash_seed_independent(seed):
    assert run_under_seed(seed, PLAN) == frozen(SPACE)


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_guided_prefix_is_hash_seed_independent(name):
    ranking = run_under_seed(GUIDED_SEED, GUIDED, name, str(GUIDED_TOP_K))
    assert ranking == frozen(name)["ranking"][:GUIDED_TOP_K]
