"""Costing each cell once must not change optimization results.

Every ranking is read from the group memo's cell tables, each cell
costed once for all the alternatives it takes part in.  These tests pin
that the results are plan-for-plan identical (ranked order, costs,
shipping and local strategies) to an unmemoized reference built here,
which plans every tree of the reference closure with a fresh tree-level
search (:mod:`tests.optimizer.tree_costing`) and sorts by cost, then by
the canonical tie key, on all four paper workloads, in both annotation
modes.
"""

import pytest

from repro.core import AnnotationMode
from repro.core.plan import body as plan_body, signature
from repro.optimizer import (
    CardinalityEstimator,
    Optimizer,
    PlanContext,
    enumerate_flows,
)
from repro.optimizer.optimizer import tie_key
from repro.workloads import (
    build_clickstream,
    build_q7,
    build_q15,
    build_textmining,
)
from tests.optimizer.closure import iter_flows
from tests.optimizer.tree_costing import optimize_physical

BUILDERS = {
    "tpch_q7": build_q7,
    "tpch_q15": build_q15,
    "clickstream": build_clickstream,
    "textmining": build_textmining,
}


@pytest.fixture(scope="module")
def workloads():
    return {name: build() for name, build in BUILDERS.items()}


def optimize(workload, mode):
    return Optimizer(
        workload.catalog, workload.hints, mode, workload.params
    ).optimize(workload.plan)


def unmemoized(workload, mode):
    """(cost, alternative, physical) per alternative, each planned from
    scratch, in eager's order: by cost, then by ``tie_key``."""
    ctx = PlanContext(workload.catalog, mode)
    estimator = CardinalityEstimator(ctx, workload.hints)
    scored = []
    for alt in iter_flows(plan_body(workload.plan), ctx):
        phys = optimize_physical(alt, ctx, estimator, workload.params)
        scored.append((phys.cost_total, alt, phys))
    scored.sort(key=lambda item: (item[0], tie_key(item[1])))
    return scored


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("mode", [AnnotationMode.SCA, AnnotationMode.MANUAL])
def test_memoized_matches_unmemoized(workloads, name, mode):
    workload = workloads[name]
    memoized = optimize(workload, mode)
    reference = unmemoized(workload, mode)
    assert memoized.plan_count == len(reference)
    assert len(memoized.ranked) == len(reference)
    for got, (cost, alt, phys) in zip(memoized.ranked, reference):
        assert signature(got.body) == signature(alt)
        assert got.cost == cost  # exact float equality, not approx
        # describe() covers ships, local strategies, build sides, row
        # estimates, and per-node cumulative costs of the whole tree.
        assert got.physical.describe() == phys.describe()


def test_rank_of_distinguishes_equal_signatures():
    """Two distinct commuting operators that merely share a name give
    plans with identical signatures; the identity-keyed rank index must
    still resolve each plan to its own rank.  The optimizer refuses such
    a flow (its memo classes sub-flows by operator names, and plan
    validation rejects duplicate names), so the ranking is built here."""
    from repro.core import (
        Catalog,
        EmitBounds,
        FieldMap,
        FieldSet,
        MapOp,
        OptimizationError,
        SourceStats,
        Source,
        UdfProperties,
        attrs,
        chain,
        map_udf,
    )
    from repro.optimizer import (
        CostParams,
        OptimizationResult,
        RankedPlan,
        optimize as optimize_plan,
    )
    from tests.conftest import identity_udf

    fields = attrs("t.a", "t.b")
    catalog = Catalog()
    catalog.add_source("T", SourceStats(10))

    def named_map(read_pos):
        props = UdfProperties(
            reads=FieldSet.of((0, read_pos)),
            emit_bounds=EmitBounds.exactly(1),
        )
        return MapOp("m", map_udf(identity_udf, props), FieldMap(fields))

    first, second = named_map(0), named_map(1)
    bodies = [
        chain(Source("T", fields), first, second),
        chain(Source("T", fields), second, first),
    ]
    with pytest.raises(OptimizationError, match="one plan space"):
        optimize_plan(bodies[0], catalog)
    ctx = PlanContext(catalog)
    estimator = CardinalityEstimator(ctx, {})
    ranked = [
        RankedPlan(rank, body, optimize_physical(body, ctx, estimator, CostParams()))
        for rank, body in enumerate(bodies, 1)
    ]
    result = OptimizationResult(bodies[0], ranked, 0.0, 0.0)
    sigs = {signature(p.body) for p in result.ranked}
    assert len(sigs) == 1  # the two orders are indistinguishable by name
    for plan in result.ranked:
        assert result.rank_of(plan.body) == plan.rank


def test_memo_is_shared_across_alternatives(workloads):
    """A full ranking computes one option table per cell, far fewer than
    the distinct sub-plans of the space its alternatives are made of."""
    workload = workloads["tpch_q7"]
    optimizer = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params
    )
    memo = optimizer.new_memo()
    result = optimizer.optimize(workload.plan, memo=memo)
    cells = sum(map(len, memo.classes.values()))
    distinct = set()
    for alt in enumerate_flows(plan_body(workload.plan), optimizer.ctx):
        stack = [alt]
        while stack:
            n = stack.pop()
            distinct.add(n)
            stack.extend(n.children)
    assert result.search_stats.bounds_computed == len(memo.cell_options) == cells
    assert cells < len(distinct)
