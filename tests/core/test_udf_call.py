"""The one UDF call path: a Python UDF runs natively against the record API.

The reference evaluator and the engine share these operator helpers, so
what a UDF emits here is what both execution paths see.  Where a UDF does
something the static analysis cannot model, it still runs (or fails) as
plain Python, and its derived properties fall back to conservative.
"""

import pytest

from repro.core import AnnotationMode, FieldMap, MapOp, ReduceOp, attrs, map_udf, reduce_udf
from repro.core.reference import apply_map, apply_reduce
from tests.conftest import paper_f1, paper_f2

A, B = attrs("a", "b")
FMAP = FieldMap((A, B))


def double(x):
    return x * 2


def run(fn, *pairs):
    op = MapOp("m", map_udf(fn), FMAP)
    return apply_map(op, [{A: a, B: b} for a, b in pairs])


def sca(fn):
    return map_udf(fn).properties(AnnotationMode.SCA)


def test_paper_f1_abs():
    assert run(paper_f1, (2, -3)) == [{A: 2, B: 3}]
    assert run(paper_f1, (2, 3)) == [{A: 2, B: 3}]


def test_filter_drops():
    assert run(paper_f2, (-2, 0)) == []
    assert run(paper_f2, (2, 0), (-1, 5), (0, 7)) == [{A: 2, B: 0}, {A: 0, B: 7}]


def test_loop_over_group():
    def total(records, out):
        s = 0
        for r in records:
            s = s + r.get_field(1)
        o = records[0].copy()
        o.set_field(1, s)
        out.emit(o)

    op = ReduceOp("r", reduce_udf(total), FMAP, (0,))
    rows = [{A: 1, B: v} for v in (3, 4, 5)] + [{A: 2, B: 9}]
    assert apply_reduce(op, rows) == [{A: 1, B: 12}, {A: 2, B: 9}]


def test_opaque_call_env():
    # A module-level helper is an opaque value function: it runs as
    # written, and the analysis keeps the field it is fed.
    def udf(rec, out):
        o = rec.copy()
        o.set_field(0, double(rec.get_field(0)))
        out.emit(o)

    assert run(udf, (21, 0)) == [{A: 42, B: 0}]
    props = sca(udf)
    assert props.origin == "sca"
    assert props.reads.finite_items() == frozenset({(0, 0)})
    assert props.writes_modified.finite_items() == frozenset({0})


def test_builtin_call():
    def udf(rec, out):
        o = rec.copy()
        o.set_field(0, abs(rec.get_field(0)))
        out.emit(o)

    assert run(udf, (-5, 0)) == [{A: 5, B: 0}]
    assert sca(udf).origin == "sca"


def test_unknown_call_rejected():
    def udf(rec, out):
        out.emit(nonexistent(rec.copy()))  # noqa: F821

    assert sca(udf).is_conservative()
    with pytest.raises(NameError):
        run(udf, (1, 2))


def test_uninitialized_variable():
    def udf(rec, out):
        if rec.get_field(0) > 0:
            o = rec.copy()
        out.emit(o)

    assert sca(udf).is_conservative()
    assert run(udf, (1, 2)) == [{A: 1, B: 2}]
    with pytest.raises(UnboundLocalError):
        run(udf, (-1, 2))
