"""Property-based soundness of reordering (the theorems of Section 4).

Random UDFs + random data: every plan the enumerator derives must produce
a bag-identical result to the original flow.  This exercises Theorems 1/2
end to end through SCA-derived properties — if either the analyzer or the
swap conditions were too permissive, this test would find it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnnotationMode,
    Catalog,
    FieldMap,
    MapOp,
    ReduceOp,
    Source,
    SourceStats,
    attrs,
    chain,
    datasets_equal,
    evaluate,
    map_udf,
    project,
    reduce_udf,
)
from repro.optimizer import PlanContext, enumerate_flows
from tests.conftest import compile_udf

WIDTH = 3
ATTRS = attrs(*(f"t.f{i}" for i in range(WIDTH)))
FMAP = FieldMap(ATTRS)


@st.composite
def map_udf_sources(draw) -> str:
    """Small random Map UDFs as Python source: optional filter, optional
    field rewrites."""
    lines = ["def f(ir, out):"]
    guard_pos = draw(st.one_of(st.none(), st.integers(0, WIDTH - 1)))
    if guard_pos is not None:
        lines.append(f"g = ir.get_field({guard_pos})")
        lines.append(f"if g < {draw(st.integers(-1, 1))}:")
        lines.append("    return")
    lines.append("r = ir.copy()")
    for i in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, WIDTH - 1))
        src = draw(st.integers(0, WIDTH - 1))
        lines.append(f"v{i} = ir.get_field({src})")
        lines.append(f"w{i} = v{i} + {draw(st.integers(1, 3))}")
        lines.append(f"r.set_field({pos}, w{i})")
    lines.append("out.emit(r)")
    return "\n    ".join(lines) + "\n"


def sum_reduce(recs, out):
    """Reduce summing position 1 of the group into its first record."""
    total = 0
    for r in recs:
        total = total + r.get_field(1)
    o = recs[0].copy()
    o.set_field(1, total)
    out.emit(o)


def make_ctx():
    catalog = Catalog()
    catalog.add_source("T", SourceStats(16))
    return PlanContext(catalog, AnnotationMode.SCA)


def rows_from(ints):
    rows = []
    for chunk_start in range(0, len(ints) - WIDTH + 1, WIDTH):
        chunk = ints[chunk_start : chunk_start + WIDTH]
        rows.append({a: v for a, v in zip(ATTRS, chunk)})
    return rows


@settings(max_examples=60, deadline=None)
@given(
    sources=st.lists(map_udf_sources(), min_size=2, max_size=3),
    ints=st.lists(st.integers(-3, 3), min_size=WIDTH, max_size=WIDTH * 6),
)
def test_all_enumerated_map_chains_equivalent(sources, ints):
    ops = [MapOp(f"m{i}", map_udf(compile_udf(s)), FMAP) for i, s in enumerate(sources)]
    flow = chain(Source("T", ATTRS), *ops)
    ctx = make_ctx()
    alternatives = enumerate_flows(flow, ctx)
    data = {"T": rows_from(ints)}
    baseline = evaluate(flow, data)
    for alternative in alternatives:
        assert datasets_equal(evaluate(alternative, data), baseline)


@settings(max_examples=40, deadline=None)
@given(
    source=map_udf_sources(),
    ints=st.lists(st.integers(-3, 3), min_size=WIDTH, max_size=WIDTH * 6),
)
def test_map_reduce_reorderings_equivalent(source, ints):
    m = MapOp("m", map_udf(compile_udf(source)), FMAP)
    r = ReduceOp("agg", reduce_udf(sum_reduce), FMAP, (0,))
    flow = chain(Source("T", ATTRS), m, r)
    ctx = make_ctx()
    alternatives = enumerate_flows(flow, ctx)
    data = {"T": rows_from(ints)}
    baseline = project(evaluate(flow, data), (ATTRS[0], ATTRS[1]))
    for alternative in alternatives:
        result = project(evaluate(alternative, data), (ATTRS[0], ATTRS[1]))
        assert datasets_equal(result, baseline)


@settings(max_examples=40, deadline=None)
@given(sources=st.lists(map_udf_sources(), min_size=2, max_size=2))
def test_swap_legality_is_symmetric(sources):
    """If m over n may swap, the swapped plan must offer the inverse swap."""
    ctx = make_ctx()
    ops = [MapOp(f"m{i}", map_udf(compile_udf(s)), FMAP) for i, s in enumerate(sources)]
    flow = chain(Source("T", ATTRS), *ops)
    alternatives = enumerate_flows(flow, ctx)
    from repro.core import signature

    for alternative in alternatives:
        back = {signature(f) for f in enumerate_flows(alternative, ctx)}
        assert signature(flow) in back
