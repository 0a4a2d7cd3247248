"""The group memo stands for exactly the closure, cell by cell.

``Memo.explore`` fires the swap rules on cell expressions instead of
trees.  Everything guided planning returns rests on three properties
pinned here, on the nine reference spaces and on hypothesis-generated
Map/Reduce/Match flows:

* the set of trees extractable from the root cells equals
  ``set(iter_flows(flow))`` and ``SearchStats.expanded`` is its size;
* every member of a cell agrees with the others on the four facts a swap
  rule can read of a sub-flow (operator names, output attributes, unique
  keys, row preservation) — which is what lets one representative decide
  legality for the whole cell;
* classes really split into several cells where derived uniqueness is
  shape-dependent (Q15, clickstream), so the class-sibling path runs;
* the cost a cell table records as its cheapest left-out option is a
  lower bound on the cost of every tree the tables dropped — the
  certificate guided planning checks before trusting its top ``k``.
"""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnnotationMode,
    Catalog,
    FieldMap,
    MapOp,
    MatchOp,
    ReduceOp,
    Source,
    SourceStats,
    attrs,
    binary_udf,
    map_udf,
    node,
    reduce_udf,
)
from repro.core.plan import Node, body as plan_body
from repro.optimizer import Memo, Optimizer, PlanContext, iter_flows
from repro.sca import parse_tac
from tests.conftest import concat_udf
from tests.optimizer.spaces import SPACE_NAMES, space
from tests.optimizer.test_reorder_soundness import (
    ATTRS,
    SUM_REDUCE,
    map_udf_texts,
)


def members(cell, cache):
    """Every tree a cell stands for."""
    got = cache.get(cell)
    if got is None:
        got = cache[cell] = [
            Node(expr.op, kids)
            for expr in cell.exprs
            for kids in product(*(members(c, cache) for c in expr.children))
        ]
    return got


def facts(ctx, tree):
    return (
        ctx.op_names(tree),
        ctx.out_attrs(tree),
        ctx.unique_keys(tree),
        ctx.row_preserving(tree),
    )


def check_memo_is_the_closure(flow, ctx):
    """Explore ``flow``; returns the memo after checking it against BFS."""
    memo = Memo(op_names=ctx.op_names)
    roots = memo.explore(flow, ctx)
    cache = {}
    extracted = [tree for cell in roots for tree in members(cell, cache)]
    closure = set(iter_flows(flow, ctx))
    assert len(extracted) == len(set(extracted))  # each tree in one cell
    assert set(extracted) == closure
    assert memo.tree_count(roots) == len(closure)
    for cells in memo.classes.values():
        for cell in cells.values():
            agreed = {facts(ctx, tree) for tree in members(cell, cache)}
            assert agreed == {facts(ctx, cell.rep)}
    return memo


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_reference_space_memo_is_the_closure(name):
    sp = space(name)
    optimizer = sp.optimizer(search="guided")
    memo = check_memo_is_the_closure(plan_body(sp.plan), optimizer.ctx)
    result = optimizer.optimize(sp.plan)
    assert result.search_stats.expanded == memo.tree_count(
        memo.classes[optimizer.ctx.op_names(plan_body(sp.plan))].values()
    )


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", [n for n in SPACE_NAMES if n != "stress"])
def test_left_out_cost_bounds_every_dropped_tree(name, k):
    sp = space(name)
    eager = sp.optimizer().optimize(sp.plan)
    optimizer = sp.optimizer(search="guided", top_k=k)
    memo = optimizer.new_memo()
    optimizer.optimize(sp.plan, memo=memo)
    kept, lost = set(), math.inf
    for cell in memo.explore(plan_body(sp.plan), optimizer.ctx):
        for options, left_out in memo.cell_options[cell].values():
            kept.update(option.logical for option in options)
            lost = min(lost, left_out)
    dropped = [plan.cost for plan in eager.ranked if plan.body not in kept]
    assert all(cost >= lost for cost in dropped)
    assert len(kept) + len(dropped) == eager.plan_count
    if name.startswith("tpch_q7"):
        assert dropped and lost > eager.ranked[k - 1].cost


@pytest.mark.parametrize(
    "name",
    ["tpch_q15-sca", "tpch_q15-manual", "clickstream-sca", "clickstream-manual"],
)
def test_shape_dependent_uniqueness_splits_a_class(name):
    """Same operators, different derived unique keys: two cells, one class."""
    sp = space(name)
    ctx = sp.optimizer().ctx
    memo = Memo(op_names=ctx.op_names)
    memo.explore(plan_body(sp.plan), ctx)
    split = [cells for cells in memo.classes.values() if len(cells) > 1]
    assert split
    for cells in split:
        assert len({ctx.unique_keys(cell.rep) for cell in cells.values()}) > 1


# -- hypothesis-generated Map / Reduce / Match flows ------------------------

DIM = attrs("d.k", "d.v")
JOINED = ATTRS + DIM


def reduce_op(name, field_map, key_position):
    return ReduceOp(
        name, reduce_udf(parse_tac(SUM_REDUCE)), field_map, (key_position,)
    )


@st.composite
def join_flows(draw):
    """Random maps and sum-reduces around a key/foreign-key Match.

    The fact side ``t`` carries 0-2 random maps and maybe a reduce on the
    join key; the dimension side ``d`` (unique on ``d.k``, maybe totally
    referenced) maybe a reduce; above the Match come 0-2 more maps and
    maybe a reduce on the join key — the shapes in which invariant
    grouping moves a Reduce through the Match and derived uniqueness
    depends on where it sits.
    """
    catalog = Catalog()
    catalog.add_source("T", SourceStats(16))
    catalog.add_source("D", SourceStats(8))
    catalog.declare_unique(DIM[0])
    if draw(st.booleans()):
        catalog.declare_reference(
            (ATTRS[0],), (DIM[0],), total=draw(st.booleans())
        )

    def maps(prefix, field_map):
        texts = draw(st.lists(map_udf_texts(), max_size=2))
        return [
            MapOp(f"{prefix}{i}", map_udf(parse_tac(t)), field_map)
            for i, t in enumerate(texts)
        ]

    fact = node(Source("T", ATTRS))
    for op in maps("below", FieldMap(ATTRS)):
        fact = node(op, fact)
    if draw(st.booleans()):
        fact = node(reduce_op("agg_t", FieldMap(ATTRS), 0), fact)
    dim = node(Source("D", DIM))
    if draw(st.booleans()):
        dim = node(reduce_op("agg_d", FieldMap(DIM), 0), dim)
    join = MatchOp(
        "join", binary_udf(concat_udf), FieldMap(ATTRS), FieldMap(DIM), (0,), (0,)
    )
    flow = node(join, fact, dim)
    for op in maps("above", FieldMap(JOINED)):
        flow = node(op, flow)
    if draw(st.booleans()):
        flow = node(reduce_op("agg_top", FieldMap(JOINED), 0), flow)
    return flow, catalog


@settings(max_examples=80, deadline=None)
@given(join_flows())
def test_generated_flow_memo_is_the_closure(case):
    flow, catalog = case
    ctx = PlanContext(catalog, AnnotationMode.SCA)
    check_memo_is_the_closure(flow, ctx)
    k = 3
    guided = Optimizer(catalog, search="guided", top_k=k).optimize(flow)
    eager = Optimizer(catalog).optimize(flow)
    assert guided.search_stats.expanded == eager.plan_count
    assert [(p.body, p.cost) for p in guided.ranked] == [
        (p.body, p.cost) for p in eager.ranked[:k]
    ]
