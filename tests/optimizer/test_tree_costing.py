"""Full-width cell tables equal the tree-level reference on every tree.

The optimizer ranks a plan space from the option tables of the group
memo's root cells (:meth:`~repro.optimizer.physical.PhysicalOptimizer.
cell_options`).  Asked at a width of the space's tree count, those
tables keep every tree of the space, and each tree's cheapest option
must be the plan the tree-level search (:mod:`tests.optimizer.
tree_costing`) gives it: the same cost, bit for bit, and the same
``describe()`` (ships, local strategies, build sides, row estimates and
cumulative costs of the whole physical tree).  Pinned on the nine
reference spaces, on generated join flows (chained too) and under
learned statistics stores; ranked prefixes are pinned against the
reference where float-equal costs straddle rank k.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from itertools import product

from repro.core import AnnotationMode
from repro.core.plan import Node, body as plan_body, map_nodes, signature_key
from repro.feedback import FeedbackEstimator, StatisticsStore
from repro.optimizer import (
    CardinalityEstimator,
    CostParams,
    Memo,
    Optimizer,
    PlanContext,
)
from repro.optimizer.physical import PhysicalOptimizer, PhysNode
from repro.workloads import build_clickstream, build_q7, build_textmining
from tests.feedback.test_group_memo_pins import execute_and_ingest, optimizer_over
from tests.optimizer.closure import iter_flows
from tests.optimizer.spaces import SPACE_NAMES, space
from tests.optimizer.test_group_memo import join_flows
from tests.optimizer.test_guided_search import (
    ROUNDING_TIE_HINTS,
    TIED_FLOWS,
    filter_chain,
)
from tests.optimizer.tree_costing import TreeCosting, ranking
from tests.serve.test_entry_points_agree import Q7Changes


def full_width(
    flow: Node, ctx: PlanContext, estimator: CardinalityEstimator, params: CostParams
) -> dict[Node, PhysNode]:
    """Each tree the root cells' tables keep at the space's full width,
    with its cheapest option (the first bucket's on a tie)."""
    memo = Memo(op_names=ctx.op_names)
    memo.bind(estimator)
    roots = memo.explore(flow, ctx)
    width = memo.tree_count(roots)
    physical = PhysicalOptimizer(ctx, estimator, params, memo=memo)
    cheapest: dict[Node, PhysNode] = {}
    for cell in roots:
        for options, _ in physical.cell_options(cell, width).values():
            for option in options:
                known = cheapest.get(option.logical)
                if known is None or option.cost_total < known.cost_total:
                    cheapest[option.logical] = option
    return cheapest


def assert_tables_equal_the_reference(flow, ctx, make_estimator, params) -> int:
    """Every tree of ``flow``'s space, costed both ways; returns how many."""
    tables = full_width(flow, ctx, make_estimator(), params)
    reference = TreeCosting(ctx, make_estimator(), params)
    trees = list(iter_flows(flow, ctx))
    assert set(tables) == set(trees)
    for tree in trees:
        got, want = tables[tree], reference.optimize(tree)
        assert got.cost_total.hex() == want.cost_total.hex(), signature_key(tree)
        assert got.describe() == want.describe(), signature_key(tree)
    return len(trees)


def described(plans) -> list[tuple]:
    return [
        (signature_key(body), physical.cost_total.hex(), physical.describe())
        for body, physical in plans
    ]


def ranked(result) -> list[tuple]:
    return described((p.body, p.physical) for p in result.ranked)


# -- the nine reference spaces ------------------------------------------------


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_full_width_tables_equal_the_reference(name):
    sp = space(name)
    ctx = PlanContext(sp.catalog, sp.mode)
    count = assert_tables_equal_the_reference(
        plan_body(sp.plan), ctx, lambda: CardinalityEstimator(ctx, sp.hints),
        sp.params,
    )
    assert count == sp.optimizer().optimize(sp.plan).plan_count


# -- generated flows ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(case=join_flows(chained=True))
def test_generated_chained_flows_equal_the_reference(case):
    flow, catalog = case
    ctx = PlanContext(catalog)
    assert_tables_equal_the_reference(
        flow, ctx, lambda: CardinalityEstimator(ctx), CostParams()
    )


@settings(max_examples=60, deadline=None)
@given(case=join_flows())
def test_generated_flows_equal_the_reference(case):
    flow, catalog = case
    ctx = PlanContext(catalog)
    assert_tables_equal_the_reference(
        flow, ctx, lambda: CardinalityEstimator(ctx), CostParams()
    )
    want = described(ranking(flow, ctx, CardinalityEstimator(ctx), CostParams()))
    assert ranked(Optimizer(catalog).optimize(flow)) == want


# -- learned statistics ----------------------------------------------------------


def assert_store_equals_the_reference(workload, store) -> None:
    ctx = PlanContext(workload.catalog, AnnotationMode.SCA)
    assert_tables_equal_the_reference(
        plan_body(workload.plan), ctx,
        lambda: FeedbackEstimator(ctx, workload.hints, store), workload.params,
    )


@pytest.mark.parametrize(
    "build", [build_q7, build_clickstream, build_textmining],
    ids=["tpch_q7", "clickstream", "textmining"],
)
def test_tables_equal_the_reference_under_a_learned_store(build):
    """The store ``test_group_memo_pins.py`` learns: the rank-1, median
    and last-rank executions ingested."""
    workload = build()
    store = StatisticsStore()
    plans = optimizer_over(workload, store).optimize(workload.plan).ranked
    execute_and_ingest(workload, store, [plans[0], plans[len(plans) // 2], plans[-1]])
    assert store.nodes
    assert_store_equals_the_reference(workload, store)


def test_tables_equal_the_reference_under_the_entry_point_store(tmp_path):
    """The store ``test_entry_points_agree.py`` seeds (one operator's
    statistics past the staleness horizon), before and after its two
    changes."""
    workload = build_q7()
    changes = Q7Changes(workload)
    path = tmp_path / "seeded.sqlite"
    changes.seed(path)
    store = StatisticsStore.open(path)
    try:
        assert_store_equals_the_reference(workload, store)
        changes.foreign(path)
        store.ingest(changes.local)
        assert_store_equals_the_reference(workload, store)
    finally:
        store.close()


# -- narrow tables ---------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", SPACE_NAMES)
def test_narrow_tables_keep_the_cheapest_and_bound_the_rest(name, k):
    """At width ``k`` each bucket of every cell keeps the ``k`` cheapest
    trees the reference puts in it, each with the reference's plan, and
    every tree it leaves out costs at least the bucket's left-out cost —
    the bound the ranking widens on."""
    sp = space(name)
    ctx = PlanContext(sp.catalog, sp.mode)
    estimator = CardinalityEstimator(ctx, sp.hints)
    memo = Memo(op_names=ctx.op_names)
    memo.bind(estimator)
    physical = PhysicalOptimizer(ctx, estimator, sp.params, memo=memo)
    for cell in memo.explore(plan_body(sp.plan), ctx):
        physical.cell_options(cell, k)
    reference = TreeCosting(ctx, CardinalityEstimator(ctx, sp.hints), sp.params)
    reference.optimize(plan_body(sp.plan))  # the same keys, the same buckets
    members: dict = {}

    def listed(cell) -> list[Node]:
        if cell not in members:
            members[cell] = [
                Node(expr.op, children)
                for expr in cell.exprs
                for children in product(*map(listed, expr.children))
            ]
        return members[cell]

    for cell, table in memo.cell_options.items():
        buckets: dict[tuple, dict[Node, PhysNode]] = {}
        for tree in listed(cell):
            pin = tree if not tree.children else None
            for option in reference.options(tree):
                key = (option.partitioning, option.est.rows, pin)
                buckets.setdefault(key, {})[tree] = option
        assert buckets.keys() == table.keys()
        for key, (options, lost) in table.items():
            want = buckets[key]
            costs = sorted(option.cost_total for option in want.values())
            kth = costs[min(k, len(costs)) - 1]
            kept = {option.logical: option for option in options}
            assert sorted(o.cost_total for o in options)[:k] == costs[:k]
            for tree, option in kept.items():
                if option.cost_total <= kth:
                    assert option.describe() == want[tree].describe()
            assert all(
                option.cost_total >= lost
                for tree, option in want.items()
                if tree not in kept
            )


# -- ranked prefixes where float-equal costs straddle rank k -------------------


def assert_prefix_equals_the_reference(plan, catalog, hints, mode, params, k):
    ctx = PlanContext(catalog, mode)
    estimator = CardinalityEstimator(ctx, hints)
    want = described(ranking(plan_body(plan), ctx, estimator, params))[:k]
    result = Optimizer(
        catalog, hints, mode, params, search="guided", top_k=k
    ).optimize(plan)
    assert ranked(result) == want


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_prefix_tying_after_rounding_equals_the_reference(k):
    workload = build_q7()
    assert_prefix_equals_the_reference(
        workload.plan, workload.catalog, ROUNDING_TIE_HINTS,
        AnnotationMode.MANUAL, workload.params, k,
    )


def renamed(plan: Node, old: str, new: str) -> Node:
    """``plan`` with operator ``old`` called ``new``."""

    def rename(node: Node) -> Node | None:
        if node.op.name == old:
            op = copy.copy(node.op)
            op.name = new
            return Node(op, node.children)
        return None

    return map_nodes(plan, rename)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_prefix_tying_after_rounding_on_the_dropped_tree_equals_the_reference(k):
    """Renamed so the tie key ranks first the tree whose sub-flow, one
    ulp dearer, a one-tree bucket leaves out: rank 1 is found only by
    widening the tables when their left-out cost reaches it."""
    workload = build_q7()
    hints = {
        ("z_join_c_n1" if name == "join_c_n1" else name): hint
        for name, hint in ROUNDING_TIE_HINTS.items()
    }
    assert_prefix_equals_the_reference(
        renamed(workload.plan, "join_c_n1", "z_join_c_n1"), workload.catalog,
        hints, AnnotationMode.MANUAL, workload.params, k,
    )


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(TIED_FLOWS))
def test_prefix_of_float_equal_trees_equals_the_reference(name, k):
    hints = TIED_FLOWS[name]
    flow, catalog = filter_chain(hints)
    assert_prefix_equals_the_reference(
        flow, catalog, hints, AnnotationMode.MANUAL, CostParams(), k
    )
