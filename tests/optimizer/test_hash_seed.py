"""Rankings and executions depend on neither the string-hash seed nor
the memory layout of attributes.

Sets and dicts keyed by strings iterate in a ``PYTHONHASHSEED``-dependent
order.  Attributes are interned and hash by identity, so sets of
attributes iterate in an order that follows their addresses.  Any such
iteration that leaks into enumeration order, float summation order, a
ship key or tie-breaking would change a ranking or an execution between
processes.

Each case runs in a fresh interpreter under one seed, which sets both
``PYTHONHASHSEED`` and the attribute layout: before anything is built the
interpreter interns every attribute name the spaces use, in a seeded
shuffled order, with a seeded number of same-sized padding objects
allocated between them.  ``tpch_q7-sca`` is planned eagerly and compared
in full — signature, ``float.hex`` cost and describe digest — with the
frozen fixture, and the engine's rank-1 Q7 golden execution is replayed.
Every space is planned with ``search="guided"`` (its cells are keyed by
operator-name *sets*) and compared with the fixture's first
``GUIDED_TOP_K`` entries.
"""

import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from tests.engine.golden import frozen as frozen_execution
from tests.optimizer.spaces import SPACE_NAMES, frozen

ROOT = Path(__file__).resolve().parents[2]
SPACE = "tpch_q7-sca"
GOLDEN = "tpch_q7"
GUIDED_TOP_K = 10
GUIDED_SEED = "7"

# Prints every attribute name that the spaces and the golden case intern.
NAMES = f"""
import json
from repro.core.schema import _INTERNED
from repro.engine import Engine
from tests.engine.golden import planned
from tests.optimizer.spaces import SPACE_NAMES, space

for name in SPACE_NAMES:
    space(name).optimizer(search="guided", top_k=1).optimize(space(name).plan)
workload, ranked = planned({GOLDEN!r})
Engine(workload.params, workload.true_costs).execute(ranked[0].physical, workload.data)
print(json.dumps(sorted(_INTERNED)))
"""

# Interns argv[1]'s names in an order and at addresses that argv[2] seeds.
LAYOUT = """
import json, random, sys
from repro.core.schema import Attribute

class Pad:
    __slots__ = ("slot",)  # the size class of an Attribute

rng = random.Random(sys.argv[2])
order = json.loads(sys.argv[1])
rng.shuffle(order)
pads = []
for name in order:
    pads.extend(Pad() for _ in range(rng.randrange(16)))
    Attribute(name)
"""

PLAN = LAYOUT + f"""
from repro.engine import Engine
from tests.engine.golden import execution_entry, planned
from tests.optimizer.spaces import entry, space

sp = space({SPACE!r})
result = sp.optimizer().optimize(sp.plan)
workload, ranked = planned({GOLDEN!r})
engine = Engine(workload.params, workload.true_costs)
executed = engine.execute(ranked[0].physical, workload.data)
print(json.dumps({{
    "plan_count": result.plan_count,
    "ranking": [entry(plan) for plan in result.ranked],
    "execution": execution_entry(ranked[0], executed),
}}))
"""

GUIDED = LAYOUT + """
from tests.optimizer.spaces import entry, space

sp = space(sys.argv[3])
result = sp.optimizer(search="guided", top_k=int(sys.argv[4])).optimize(sp.plan)
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


@cache
def attribute_names() -> str:
    """Every attribute name the cases intern, as a JSON list."""
    return json.dumps(run_under_seed("0", NAMES))


def test_layout_covers_the_spaces_attributes():
    names = json.loads(attribute_names())
    assert len(names) == len(set(names)) > 50
    assert {"c.custkey", "click.session_id"} <= set(names)


@pytest.mark.parametrize("seed", ["0", "1", "3141592653"])
def test_eager_ranking_is_hash_seed_independent(seed):
    got = run_under_seed(seed, PLAN, attribute_names(), seed)
    want_execution = dict(frozen_execution(GOLDEN)["executions"][0])
    assert want_execution.pop("which") == "first"
    assert got.pop("execution") == want_execution
    assert got == frozen(SPACE)


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_guided_prefix_is_hash_seed_independent(name):
    ranking = run_under_seed(
        GUIDED_SEED, GUIDED, attribute_names(), GUIDED_SEED, name, str(GUIDED_TOP_K)
    )
    assert ranking == frozen(name)["ranking"][:GUIDED_TOP_K]
