"""The group memo stands for exactly the closure, cell by cell.

``Memo.explore`` fires the swap rules on cell expressions instead of
trees.  Everything guided planning returns rests on three properties
pinned here, on the nine reference spaces and on hypothesis-generated
Map/Reduce flows around a Match, Cross or CoGroup:

* the set of trees extractable from the root cells equals the reference
  closure ``set(iter_flows(flow))`` (:mod:`tests.optimizer.closure`) and
  ``SearchStats.expanded`` is its size, and ``enumerate_flows`` lists
  that closure once each, the flow first;
* every member of a cell agrees with the others on the four facts a swap
  rule can read of a sub-flow (operator names, output attributes, unique
  keys, row preservation) — which is what lets one representative decide
  legality for the whole cell;
* classes really split into several cells where derived uniqueness is
  shape-dependent (Q15, clickstream), so the class-sibling path runs;
* the cost a cell table records as its cheapest left-out option is a
  lower bound on the cost of every tree the tables dropped — the
  certificate guided planning checks before trusting its top ``k``.

The generated flows also carry the differential property behind the
paper's Theorems 1–4 at the layer users execute: every alternative's
physical plan, run by :class:`~repro.engine.Engine`, returns a bag equal
to ``evaluate()`` of the original flow.
"""

import math
import random
from datetime import timedelta
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnnotationMode,
    Catalog,
    CoGroupOp,
    CrossOp,
    FieldMap,
    MapOp,
    MatchOp,
    ReduceOp,
    Source,
    SourceStats,
    attrs,
    binary_udf,
    cogroup_udf,
    datasets_equal,
    evaluate,
    map_udf,
    node,
    reduce_udf,
)
from repro.core.plan import Node, body as plan_body
from repro.engine import Engine
from repro.optimizer import Memo, Optimizer, PlanContext, enumerate_flows
from tests.conftest import compile_udf, concat_udf, identity_udf, paper_f1, paper_f2
from tests.optimizer.closure import iter_flows
from tests.optimizer.spaces import SPACE_NAMES, space
from tests.optimizer.test_reorder_soundness import (
    ATTRS,
    map_udf_sources,
    sum_reduce,
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


def check_listing_is_the_closure(flow, ctx):
    """The enumerator lists the reference closure: each tree once, the
    flow first, as many trees as the memo's root cells stand for — also
    from a memo that first explored the closure's last tree."""
    closure = list(iter_flows(flow, ctx))
    memo = Memo(op_names=ctx.op_names)
    memo.explore(closure[-1], ctx)
    for listed in (enumerate_flows(flow, ctx), memo.trees(flow, ctx)):
        assert listed[0] is flow
        assert len(listed) == len(set(listed))
        assert set(listed) == set(closure)
        assert len(listed) == memo.tree_count(memo.explore(flow, ctx))


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_reference_space_listing_is_the_closure(name):
    sp = space(name)
    check_listing_is_the_closure(plan_body(sp.plan), sp.optimizer().ctx)


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


# -- the exploration work, as counts ----------------------------------------

#: Space -> (rule firings, cells, expressions) of a cold ``Memo.explore``.
EXPLORE_COUNTS = {"stress": (907, 60, 208), "tpch_q7-sca": (267, 37, 89)}


@pytest.mark.parametrize("name", sorted(EXPLORE_COUNTS))
def test_explore_builds_no_throwaway_trees(name, monkeypatch):
    """Rules fire on cells, so a cold exploration constructs at most one
    ``Node`` (intern probes included) per expression, its representative;
    firing them on trees took 3,683 constructions for stress's 208."""
    sp = space(name)
    ctx = sp.optimizer(search="guided").ctx
    flow = plan_body(sp.plan)
    memo = Memo(op_names=ctx.op_names)
    built = []
    new = Node.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Node, "__new__", counting)
    memo.explore(flow, ctx)
    monkeypatch.undo()
    fired, cells, exprs = EXPLORE_COUNTS[name]
    assert len(built) <= len(memo.exprs) == exprs
    assert memo.fired == fired
    assert sum(map(len, memo.classes.values())) == cells


# -- hypothesis-generated Map / Reduce / Match / Cross / CoGroup flows ------

DIM = attrs("d.k", "d.v")
JOINED = ATTRS + DIM
DIM_KEYS = 8
#: The third source of a chained Match, joined on the lower join's key.
EXTRA = attrs("e.k", "e.w")
BINARY_KINDS = ("match", "cross", "cogroup")


def sum_reduce_source(width: int) -> str:
    """Reduce on position 0 summing every other position of the group.

    Sums do not depend on the order of a group's records, so the engine
    (which sees groups in shipped-partition order) and ``evaluate()``
    agree on every output field, not just on a projection.  It writes
    every position, so it blocks more Map swaps than ``sum_reduce``
    does; only the execution tests use it.
    """
    lines = ["def agg(recs, out):"]
    lines += [f"s{p} = 0" for p in range(1, width)]
    lines.append("for r in recs:")
    lines += [f"    s{p} = s{p} + r.get_field({p})" for p in range(1, width)]
    lines.append("o = recs[0].copy()")
    lines += [f"o.set_field({p}, s{p})" for p in range(1, width)]
    lines.append("out.emit(o)")
    return "\n    ".join(lines) + "\n"


def reduce_op(name, field_map, key_position, all_sums):
    fn = compile_udf(sum_reduce_source(len(field_map))) if all_sums else sum_reduce
    return ReduceOp(name, reduce_udf(fn), field_map, (key_position,))


def cogroup_pairs(left_recs, right_recs, out):
    """CoGroup UDF: every left/right pair of a key group, concatenated."""
    for left in left_recs:
        for right in right_recs:
            out.emit(left.concat(right))


def binary_op(kind):
    if kind == "match":
        return MatchOp(
            "join", binary_udf(concat_udf), FieldMap(ATTRS), FieldMap(DIM),
            (0,), (0,),
        )
    if kind == "cross":
        return CrossOp("join", binary_udf(concat_udf), FieldMap(ATTRS), FieldMap(DIM))
    return CoGroupOp(
        "join", cogroup_udf(cogroup_pairs), FieldMap(ATTRS), FieldMap(DIM),
        (0,), (0,),
    )


@st.composite
def join_flows(draw, kinds=BINARY_KINDS, all_sums=False, chained=False):
    """Random maps and sum-reduces around a Match, Cross or CoGroup.

    A reduce sums position 1 (``sum_reduce``), or with ``all_sums`` every
    position but the key.  The fact side ``t`` carries 0-2 random maps and maybe a reduce on the
    join key; the dimension side ``d`` (unique on ``d.k``, maybe totally
    referenced) maybe a reduce; above the binary operator come 0-2 more
    maps and maybe a reduce on the join key — around a key/foreign-key
    Match, the shapes in which invariant grouping moves a Reduce through
    it and derived uniqueness depends on where it sits.  With ``chained``
    a second Match joins a source ``e`` on the lower join's key ``t.f0``,
    ``e`` on either side: the shapes in which the upper join forwards the
    lower one's partitioning through its left or its right key.  Half
    the time that key is ``d.k`` instead, which rotating the upper join
    onto the fact side would leave unbound.  The operators above then
    carry ``e``'s fields too, so an all-sums reduce stays independent of
    record order.
    """
    catalog = Catalog()
    catalog.add_source("T", SourceStats(16))
    catalog.add_source("D", SourceStats(DIM_KEYS))
    catalog.declare_unique(DIM[0])
    if draw(st.booleans()):
        catalog.declare_reference(
            (ATTRS[0],), (DIM[0],), total=draw(st.booleans())
        )

    def maps(prefix, field_map):
        sources = draw(st.lists(map_udf_sources(), max_size=2))
        return [
            MapOp(f"{prefix}{i}", map_udf(compile_udf(source)), field_map)
            for i, source in enumerate(sources)
        ]

    fact = node(Source("T", ATTRS))
    for op in maps("below", FieldMap(ATTRS)):
        fact = node(op, fact)
    if draw(st.booleans()):
        fact = node(reduce_op("agg_t", FieldMap(ATTRS), 0, all_sums), fact)
    dim = node(Source("D", DIM))
    if draw(st.booleans()):
        dim = node(reduce_op("agg_d", FieldMap(DIM), 0, all_sums), dim)
    join = binary_op(draw(st.sampled_from(kinds)))
    flow = node(join, fact, dim)
    top = JOINED + EXTRA if chained else JOINED
    if chained:
        catalog.add_source("E", SourceStats(draw(st.sampled_from((4, 64)))))
        extra = node(Source("E", EXTRA))
        udf = binary_udf(concat_udf)
        key = JOINED.index(draw(st.sampled_from((ATTRS[0], DIM[0]))))
        if draw(st.booleans()):
            upper = MatchOp("join2", udf, FieldMap(JOINED), FieldMap(EXTRA), (key,), (0,))
            flow = node(upper, flow, extra)
        else:
            upper = MatchOp("join2", udf, FieldMap(EXTRA), FieldMap(JOINED), (0,), (key,))
            flow = node(upper, extra, flow)
    for op in maps("above", FieldMap(top)):
        flow = node(op, flow)
    if draw(st.booleans()):
        flow = node(reduce_op("agg_top", FieldMap(top), 0, all_sums), flow)
    return flow, catalog


@pytest.mark.parametrize("kind", BINARY_KINDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_generated_flow_memo_is_the_closure(kind, data):
    flow, catalog = data.draw(join_flows(kinds=(kind,)))
    ctx = PlanContext(catalog, AnnotationMode.SCA)
    check_memo_is_the_closure(flow, ctx)
    k = 3
    guided = Optimizer(catalog, search="guided", top_k=k).optimize(flow)
    eager = Optimizer(catalog).optimize(flow)
    assert guided.search_stats.expanded == eager.plan_count
    assert [(p.body, p.cost) for p in guided.ranked] == [
        (p.body, p.cost) for p in eager.ranked[:k]
    ]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_generated_listing_is_the_closure(data):
    flow, catalog = data.draw(join_flows(chained=data.draw(st.booleans())))
    check_listing_is_the_closure(flow, PlanContext(catalog, AnnotationMode.SCA))


def mirrored(flow, twins):
    """``flow`` with the inputs of every binary operator swapped; ``twins``
    maps each binary operator to its mirror image."""
    children = tuple(mirrored(child, twins) for child in flow.children)
    op = flow.op
    if op.arity != 2:
        return Node(op, children)
    twin = twins.get(op)
    if twin is None:
        maps = (op.right_map, op.left_map)
        if isinstance(op, CrossOp):
            twin = CrossOp(op.name, op.udf, *maps)
        else:
            keys = (op.right_key_positions, op.left_key_positions)
            twin = type(op)(op.name, op.udf, *maps, *keys)
        twins[op] = twin
    return Node(twin, children[::-1])


@pytest.mark.parametrize("key", (ATTRS[0], DIM[0]))
def test_a_chained_match_rotates_onto_the_side_of_its_key(key):
    """``join2`` over ``join(T, D)`` moves below ``join`` onto the input
    that holds its key, and never onto the other one.  The generated
    oracles pass a rule that forbids every rotation: dropping
    alternatives changes no result."""
    catalog = Catalog()
    for name in ("T", "D", "E"):
        catalog.add_source(name, SourceStats(16))
    catalog.declare_unique(DIM[0])
    t, d, e = node(Source("T", ATTRS)), node(Source("D", DIM)), node(Source("E", EXTRA))
    join = binary_op("match")
    join2 = MatchOp(
        "join2", binary_udf(concat_udf), FieldMap(JOINED), FieldMap(EXTRA),
        (JOINED.index(key),), (0,),
    )
    closure = set(iter_flows(node(join2, node(join, t, d), e), PlanContext(catalog)))
    onto_t = node(join, node(join2, t, e), d)
    onto_d = node(join, t, node(join2, d, e))
    assert (onto_t in closure, onto_d in closure) == (key in ATTRS, key in DIM)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mirroring_the_inputs_mirrors_the_closure(data):
    """No rule favours an input side: mirroring every binary operator's
    inputs mirrors the closure, so a swap lost on one side shows even
    though trees and cells share the rule body.  Over one or two Matches
    (rotations), the memo stands for that closure too."""
    flow, catalog = data.draw(join_flows(chained=data.draw(st.booleans())))
    ctx = PlanContext(catalog, AnnotationMode.SCA)
    twins = {}
    want = {mirrored(tree, twins) for tree in iter_flows(flow, ctx)}
    assert set(iter_flows(mirrored(flow, twins), ctx)) == want
    check_memo_is_the_closure(flow, ctx)


@st.composite
def flows_with_data(draw):
    """A generated flow plus data honouring its catalog's declarations:
    ``d.k`` unique, and every fact key present in ``D``.  Its reduces
    sum every non-key position, so each output field is independent of
    the order in which a group's records arrive.  Half the flows are
    chained, with ``E`` keys drawn from the same range."""
    flow, catalog = draw(join_flows(all_sums=True, chained=draw(st.booleans())))
    small = st.integers(-3, 3)
    fact = draw(
        st.lists(
            st.tuples(st.integers(0, DIM_KEYS - 1), small, small),
            min_size=6,
            max_size=16,
        )
    )
    dim_values = draw(st.lists(small, min_size=DIM_KEYS, max_size=DIM_KEYS))
    extra = draw(
        st.lists(st.tuples(st.integers(0, DIM_KEYS - 1), small), max_size=8)
    )
    data = {
        "T": [dict(zip(ATTRS, row)) for row in fact],
        "D": [{DIM[0]: k, DIM[1]: v} for k, v in enumerate(dim_values)],
        "E": [dict(zip(EXTRA, row)) for row in extra],
    }
    return flow, catalog, data


def check_executes_like_evaluate(flow, catalog, data):
    """Each ranked alternative's physical plan returns ``evaluate(flow)``;
    returns how many alternatives ran."""
    want = evaluate(flow, data)
    # The optimizer's default CostParams, as planned.  Alternatives share
    # most physical subtrees; reusing their results is bit-identical to
    # executing each afresh (``test_golden.py``'s cached mode pins it).
    engine = Engine(reuse_subtree_results=True)
    ranked = Optimizer(catalog).optimize(flow).ranked
    for plan in ranked:
        got = engine.execute(plan.physical, data).records
        assert datasets_equal(got, want), plan.body
    return len(ranked)


@settings(max_examples=100, deadline=timedelta(seconds=10))
@given(flows_with_data())
def test_every_alternative_executes_like_evaluate(case):
    """Theorems 1–4 through the physical engine: each enumerated
    alternative's chosen physical plan returns ``evaluate(flow)``."""
    check_executes_like_evaluate(*case)


def test_the_widest_generated_shape_executes_like_evaluate():
    """The largest unchained shape ``flows_with_data`` draws,
    ``agg_top(above1(above0(join(agg_t(below1(below0(T))), agg_d(D)))))``
    around a Match, over 13 ``T`` rows, with the paper's f1 (a rewrite)
    and f2 (a filter) below the join and f1 and a copy above it: each of
    its 657 alternatives executes like ``evaluate()``.  With four copy
    maps, the generator's shrink target, the same shape has 12,096."""
    catalog = Catalog()
    catalog.add_source("T", SourceStats(16))
    catalog.add_source("D", SourceStats(DIM_KEYS))
    catalog.declare_unique(DIM[0])
    catalog.declare_reference((ATTRS[0],), (DIM[0],), total=True)
    top = FieldMap(JOINED)
    fact = node(Source("T", ATTRS))
    for name, fn in (("below0", paper_f1), ("below1", paper_f2)):
        fact = node(MapOp(name, map_udf(fn), FieldMap(ATTRS)), fact)
    fact = node(reduce_op("agg_t", FieldMap(ATTRS), 0, True), fact)
    dim = node(reduce_op("agg_d", FieldMap(DIM), 0, True), node(Source("D", DIM)))
    flow = node(binary_op("match"), fact, dim)
    for name, fn in (("above0", paper_f1), ("above1", identity_udf)):
        flow = node(MapOp(name, map_udf(fn), top), flow)
    flow = node(reduce_op("agg_top", top, 0, True), flow)
    rng = random.Random(13)
    data = {
        "T": [
            dict(zip(ATTRS, (rng.randrange(DIM_KEYS), rng.randint(-3, 3), rng.randint(-3, 3))))
            for _ in range(13)
        ],
        "D": [{DIM[0]: k, DIM[1]: rng.randint(-3, 3)} for k in range(DIM_KEYS)],
    }
    assert check_executes_like_evaluate(flow, catalog, data) == 657
