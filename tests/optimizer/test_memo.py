"""The Memo subsystem: ownership, dependency index, invalidation, reuse.

The memo is first-class state: it owns the physical options table, the
memo-scoped estimator caches, and the enumerated closure; it maintains a
reverse dependency index (operator name -> entries whose subtree contains
the operator); and ``invalidate`` evicts exactly the dirty spine above a
changed operator.  Re-optimization over an invalidated memo must be
bit-identical to a full rebuild, and an ``Optimizer`` instance must stay
re-entrant: no memo state may leak between plans or calls unless the
caller passes a memo explicitly.
"""

import pytest

from repro.core import AnnotationMode
from repro.core.plan import body as plan_body, signature
from repro.optimizer import (
    CardinalityEstimator,
    Hints,
    Memo,
    Optimizer,
    PlanContext,
    enumerate_flows,
)
from repro.optimizer.physical import PhysicalOptimizer
from repro.workloads import (
    build_clickstream,
    build_q7,
    build_q15,
    build_textmining,
)

BUILDERS = {
    "tpch_q7": build_q7,
    "tpch_q15": build_q15,
    "clickstream": build_clickstream,
    "textmining": build_textmining,
}


@pytest.fixture(scope="module")
def workloads():
    return {name: build() for name, build in BUILDERS.items()}


def assert_identical(got, want):
    assert got.plan_count == want.plan_count
    for g, w in zip(got.ranked, want.ranked):
        assert g.rank == w.rank
        assert signature(g.body) == signature(w.body)
        assert g.cost == w.cost  # exact float equality, not approx
        assert g.physical.describe() == w.physical.describe()


# -- ownership and the dependency index ---------------------------------------


def test_memo_owns_options_estimates_and_closure(workloads):
    w = workloads["tpch_q7"]
    opt = Optimizer(w.catalog, w.hints, AnnotationMode.SCA, w.params)
    memo = opt.new_memo()
    result = opt.optimize(w.plan, memo=memo)
    flow = plan_body(w.plan)
    # closure cached under the optimized flow
    assert flow in memo.closures
    assert len(memo.closures[flow]) == result.plan_count
    # options table holds exactly the distinct sub-plans of the closure
    distinct = set()
    for alt in memo.closures[flow]:
        stack = [alt]
        while stack:
            n = stack.pop()
            distinct.add(n)
            stack.extend(n.children)
    assert set(memo.table) == distinct
    # estimates are memo-scoped: the estimator wrote into the memo's cache
    assert set(memo.est_cache) == distinct
    assert opt.last_estimator._cache is memo.est_cache


def test_dependency_index_tracks_subtree_containment(workloads):
    w = workloads["tpch_q7"]
    opt = Optimizer(w.catalog, w.hints, AnnotationMode.SCA, w.params)
    memo = opt.new_memo()
    opt.optimize(w.plan, memo=memo)
    dependents = memo.dependents_of("gamma_revenue")
    assert dependents  # the reduce appears in every alternative
    for node in memo.table:
        contains = "gamma_revenue" in opt.ctx.op_names(node)
        assert (node in dependents) == contains
    # an unknown operator has no dependents
    assert memo.dependents_of("no_such_op") == frozenset()


def test_invalidate_evicts_exactly_the_dirty_spine(workloads):
    w = workloads["tpch_q7"]
    opt = Optimizer(w.catalog, w.hints, AnnotationMode.SCA, w.params)
    memo = opt.new_memo()
    opt.optimize(w.plan, memo=memo)
    before = set(memo.table)
    dirty = {n for n in before if "gamma_revenue" in opt.ctx.op_names(n)}
    evicted = memo.invalidate({"gamma_revenue"})
    assert evicted == len(dirty)
    assert 0 < evicted < len(before)  # a spine, not the whole memo
    assert set(memo.table) == before - dirty
    assert set(memo.est_cache) == before - dirty
    # clean entries survived untouched; a second invalidation is a no-op
    assert memo.invalidate({"gamma_revenue"}) == 0
    # width caches and closures are hint-independent and survive
    assert memo.width_cache
    assert memo.closures


def test_invalidate_unknown_op_is_noop(workloads):
    w = workloads["clickstream"]
    opt = Optimizer(w.catalog, w.hints, AnnotationMode.SCA, w.params)
    memo = opt.new_memo()
    opt.optimize(w.plan, memo=memo)
    size = len(memo)
    assert memo.invalidate({"never_heard_of_it"}) == 0
    assert len(memo) == size


def test_size_and_evictions_count_the_group_memo_tables(workloads):
    """``size()`` (the server's footprint figure) and ``invalidate()``'s
    eviction count cover the per-cell option tables; the cells themselves
    are legality only and survive."""
    w = workloads["tpch_q7"]
    opt = Optimizer(
        w.catalog, w.hints, AnnotationMode.SCA, w.params,
        search="guided", top_k=3,
    )
    memo = opt.new_memo()
    opt.optimize(w.plan, memo=memo)
    assert memo.cell_options
    assert memo.size() == (
        len(memo.table) + len(memo.cell_options) + len(memo.est_cache)
    )
    cells = set(memo.cell_options)
    dirty_cells = {c for c in cells if "gamma_revenue" in c.names}
    trees = set(memo.table) | set(memo.est_cache)
    dirty_trees = {t for t in trees if "gamma_revenue" in opt.ctx.op_names(t)}
    assert dirty_cells and dirty_cells != cells
    exprs = len(memo.exprs)
    assert memo.invalidate({"gamma_revenue"}) == len(dirty_cells) + len(dirty_trees)
    assert set(memo.cell_options) == cells - dirty_cells
    assert set(memo.table) | set(memo.est_cache) == trees - dirty_trees
    assert memo.size() == (
        len(memo.table) + len(memo.cell_options) + len(memo.est_cache)
    )
    assert len(memo.exprs) == exprs and memo.classes
    assert memo.invalidate({"gamma_revenue"}) == 0


# -- dirty-spine re-optimization parity ---------------------------------------


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_reoptimize_after_hint_change_matches_full_rebuild(workloads, name):
    w = workloads[name]
    opt = Optimizer(w.catalog, w.hints, AnnotationMode.SCA, w.params)
    memo = opt.new_memo()
    opt.optimize(w.plan, memo=memo)
    # change one hinted operator (or hint a previously unhinted one)
    target = sorted(opt.ctx.op_names(plan_body(w.plan)))[0]
    opt.hints = {**w.hints, target: Hints(selectivity=0.31, cpu_per_call=2.7)}
    incremental = opt.reoptimize(w.plan, memo, {target})
    full = Optimizer(
        w.catalog, opt.hints, AnnotationMode.SCA, w.params
    ).optimize(w.plan)
    assert_identical(incremental, full)


def test_repeated_invalidations_converge(workloads):
    """Alternating between two hint sets over one memo stays exact."""
    w = workloads["tpch_q7"]
    opt = Optimizer(w.catalog, w.hints, AnnotationMode.SCA, w.params)
    memo = opt.new_memo()
    opt.optimize(w.plan, memo=memo)
    changed = {**w.hints, "gamma_revenue": Hints(distinct_keys=5, cpu_per_call=2.0)}
    for hints in (changed, w.hints, changed):
        opt.hints = hints
        incremental = opt.reoptimize(w.plan, memo, {"gamma_revenue"})
        full = Optimizer(
            w.catalog, hints, AnnotationMode.SCA, w.params
        ).optimize(w.plan)
        assert_identical(incremental, full)


def test_memo_reuse_without_changes_is_identical(workloads):
    w = workloads["textmining"]
    opt = Optimizer(w.catalog, w.hints, AnnotationMode.SCA, w.params)
    memo = opt.new_memo()
    first = opt.optimize(w.plan, memo=memo)
    again = opt.optimize(w.plan, memo=memo)  # fully warm: no recompute
    assert_identical(again, first)


# -- optimizer re-entrancy (satellite regression) ------------------------------


def test_optimizer_reentrant_across_plans_and_calls(workloads):
    """One Optimizer instance, several plans: results must be bit-identical
    to fresh-instance runs — no shared-PhysicalOptimizer memo state may
    leak between plans or calls."""
    w = workloads["tpch_q7"]
    ctx = PlanContext(w.catalog, AnnotationMode.SCA)
    alternatives = enumerate_flows(plan_body(w.plan), ctx)
    other_plan = alternatives[len(alternatives) // 2]  # a reordered body

    shared = Optimizer(w.catalog, w.hints, AnnotationMode.SCA, w.params)
    first = shared.optimize(w.plan)
    second = shared.optimize(other_plan)
    third = shared.optimize(w.plan)

    fresh_first = Optimizer(
        w.catalog, w.hints, AnnotationMode.SCA, w.params
    ).optimize(w.plan)
    fresh_second = Optimizer(
        w.catalog, w.hints, AnnotationMode.SCA, w.params
    ).optimize(other_plan)
    assert_identical(first, fresh_first)
    assert_identical(second, fresh_second)
    assert_identical(third, fresh_first)


def test_optimizer_reentrant_after_hint_mutation(workloads):
    """Without an explicit memo, a hint change needs no invalidation: the
    next optimize() call starts from a fresh memo."""
    w = workloads["clickstream"]
    opt = Optimizer(w.catalog, w.hints, AnnotationMode.SCA, w.params)
    opt.optimize(w.plan)
    opt.hints = {**w.hints, "condense_sessions": Hints(distinct_keys=3)}
    changed = opt.optimize(w.plan)
    fresh = Optimizer(
        w.catalog, opt.hints, AnnotationMode.SCA, w.params
    ).optimize(w.plan)
    assert_identical(changed, fresh)


def test_physical_optimizer_default_memo_is_private(workloads):
    """Two PhysicalOptimizer instances never share state by accident."""
    w = workloads["tpch_q15"]
    ctx = PlanContext(w.catalog, AnnotationMode.SCA)
    est = CardinalityEstimator(ctx, w.hints)
    a = PhysicalOptimizer(ctx, est, w.params)
    b = PhysicalOptimizer(ctx, est, w.params)
    assert a.memo is not b.memo
    a.optimize(plan_body(w.plan))
    assert len(b.memo) == 0
