"""Every engine path reproduces the frozen golden executions bit for bit.

See :mod:`tests.engine.golden` for what the fixtures hold.  The engine
with default options, one replaying shared subtrees from its cache
across the ranked plans, one recording spans into a
:class:`~repro.obs.Tracer`, and ``execute_staged`` without a controller
must each return the frozen records in the frozen order and the frozen
per-operator metrics to the last bit.
"""

import pytest

from repro.core.plan import signature_key
from repro.engine import Engine
from repro.obs import Tracer
from tests.engine.golden import (
    CASES,
    execution_entry,
    frozen,
    planned,
    rank_index,
)


def execute(engine, plan, data):
    return engine.execute(plan, data)


def execute_staged(engine, plan, data):
    return engine.execute_staged(plan, data, controller=None)


# path -> (Engine keyword arguments, how each plan is run)
PATHS = {
    "streaming": (dict, execute),
    "cached": (lambda: {"reuse_subtree_results": True}, execute),
    "traced": (lambda: {"tracer": Tracer()}, execute),
    "staged": (dict, execute_staged),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_reproduces_golden(name, path):
    workload, ranked = planned(name)
    fixture = frozen(name)
    assert len(ranked) == fixture["plan_count"]
    options, run = PATHS[path]
    engine = Engine(workload.params, workload.true_costs, **options())
    for want in fixture["executions"]:
        plan = ranked[rank_index(want["which"], len(ranked))]
        assert signature_key(plan.body) == want["signature"]
        got = execution_entry(plan, run(engine, plan.physical, workload.data))
        got["which"] = want["which"]
        assert got == want
    if path == "traced":
        assert engine.tracer.spans  # the tracer really recorded
