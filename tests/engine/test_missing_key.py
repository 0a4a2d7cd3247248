"""A key attribute absent at runtime raises the same error on both paths.

The reference evaluator and the engine read keys through one
``itemgetter`` per keyed input and fall back to ``key_of`` only after a
``KeyError``, to raise its ``ExecutionError``.  Each case drops the key
attribute from one row of one keyed input.  The engine plan is given
forward ships so that the local strategy, not a hash repartition (pinned
in ``test_partition.py``), is what meets the row.  A bare ``KeyError``
escaping from either path fails the ``match``.
"""

import dataclasses

import pytest

from repro.core import (
    AnnotationMode,
    Catalog,
    CoGroupOp,
    ExecutionError,
    FieldMap,
    MatchOp,
    ReduceOp,
    Source,
    SourceStats,
    attrs,
    binary_udf,
    cogroup_udf,
    evaluate,
    node,
    reduce_udf,
)
from repro.engine import Engine
from repro.optimizer import CardinalityEstimator, CostParams, PlanContext
from repro.optimizer.physical import Ship, ShipKind
from tests.conftest import concat_udf
from tests.optimizer.tree_costing import optimize_physical

L = attrs("l.k", "l.v")
R = attrs("r.k", "r.w")
MISSING = "missing from record at runtime"


def first_of_group(records, out):
    out.emit(records[0])


def first_of_either(left, right, out):
    out.emit((left or right)[0])


def keyed_op(kind):
    if kind == "match":
        return MatchOp("m", binary_udf(concat_udf), FieldMap(L), FieldMap(R), (0,), (0,))
    if kind == "reduce":
        return ReduceOp("r", reduce_udf(first_of_group), FieldMap(L), (0,))
    return CoGroupOp(
        "cg", cogroup_udf(first_of_either), FieldMap(L), FieldMap(R), (0,), (0,)
    )


def data_without_key(side):
    """Ten rows per source; row 5 of ``side`` lacks its key attribute."""
    data = {
        "L": [{L[0]: i % 3, L[1]: i} for i in range(10)],
        "R": [{R[0]: i % 4, R[1]: -i} for i in range(10)],
    }
    key = L[0] if side == "L" else R[0]
    del data[side][5][key]
    return data


CASES = {
    "match-probe": ("match", "L"),
    "match-build": ("match", "R"),
    "reduce": ("reduce", "L"),
    "cogroup-left": ("cogroup", "L"),
    "cogroup-right": ("cogroup", "R"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_missing_key_raises_execution_error_on_both_paths(case):
    kind, side = CASES[case]
    op = keyed_op(kind)
    sources = [node(Source("L", L))]
    if op.arity == 2:
        sources.append(node(Source("R", R)))
    flow = node(op, *sources)
    data = data_without_key(side)

    with pytest.raises(ExecutionError, match=MISSING):
        evaluate(flow, data)

    catalog = Catalog()
    catalog.add_source("L", SourceStats(10))
    catalog.add_source("R", SourceStats(10))
    ctx = PlanContext(catalog, AnnotationMode.SCA)
    params = CostParams(degree=2)
    phys = optimize_physical(flow, ctx, CardinalityEstimator(ctx), params)
    assert phys.logical.op is op
    forward = dataclasses.replace(
        phys, ships=tuple(Ship(ShipKind.FORWARD) for _ in phys.ships)
    )
    with pytest.raises(ExecutionError, match=MISSING):
        Engine(params).execute(forward, data)
