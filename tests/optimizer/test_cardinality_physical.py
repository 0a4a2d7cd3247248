"""Cardinality estimation and physical strategy selection."""

from repro.core import (
    AnnotationMode,
    Catalog,
    EmitBounds,
    FieldMap,
    FieldSet,
    MapOp,
    MatchOp,
    ReduceOp,
    Sink,
    Source,
    SourceStats,
    UdfProperties,
    attrs,
    binary_udf,
    chain,
    map_udf,
    node,
    reduce_udf,
)
from repro.optimizer import (
    CardinalityEstimator,
    CostParams,
    Hints,
    LocalStrategy,
    PlanContext,
    ShipKind,
)
from tests.conftest import concat_udf, identity_udf
from tests.optimizer.tree_costing import optimize_physical

L = attrs("l.k", "l.v")
S = attrs("s.k", "s.name")


def setup_env(l_rows=1000, s_rows=10):
    catalog = Catalog()
    catalog.add_source(
        "L", SourceStats(l_rows, distinct={L[0]: s_rows}, attr_bytes={a: 8.0 for a in L})
    )
    catalog.add_source(
        "S", SourceStats(s_rows, distinct={S[0]: s_rows}, attr_bytes={a: 8.0 for a in S})
    )
    catalog.declare_unique(S[0])
    ctx = PlanContext(catalog, AnnotationMode.MANUAL)
    return catalog, ctx


def exactly_one():
    return UdfProperties(emit_bounds=EmitBounds.exactly(1))


def filter_half():
    return UdfProperties(
        reads=FieldSet.of((0, 1)),
        branch_reads=FieldSet.of((0, 1)),
        emit_bounds=EmitBounds.at_most_one(),
    )


class TestEstimator:
    def test_source_rows(self):
        _, ctx = setup_env()
        est = CardinalityEstimator(ctx)
        assert est.estimate(node(Source("L", L))).rows == 1000

    def test_map_hint_selectivity(self):
        _, ctx = setup_env()
        m = MapOp("f", map_udf(identity_udf, filter_half()), FieldMap(L))
        flow = chain(Source("L", L), m)
        est = CardinalityEstimator(ctx, {"f": Hints(selectivity=0.25)})
        assert est.estimate(flow).rows == 250

    def test_map_default_selectivity_from_bounds(self):
        _, ctx = setup_env()
        m = MapOp("f", map_udf(identity_udf, filter_half()), FieldMap(L))
        flow = chain(Source("L", L), m)
        est = CardinalityEstimator(ctx)
        assert est.estimate(flow).rows == 500  # (0,1) bounds default 0.5

    def test_reduce_groups_from_catalog_distinct(self):
        _, ctx = setup_env()
        r = ReduceOp("g", reduce_udf(identity_udf, exactly_one()), FieldMap(L), (0,))
        flow = chain(Source("L", L), r)
        est = CardinalityEstimator(ctx)
        assert est.estimate(flow).rows == 10

    def test_reduce_per_group_honors_emit_bounds(self):
        """Pin the Reduce output cardinality per emit-bounds shape: an
        exactly-one aggregation keeps every group, a filter-like reduce
        (lo=0, hi=1) defaults to dropping half, anything else defaults to
        one record per group."""
        _, ctx = setup_env()

        def reduce_rows(props):
            r = ReduceOp("g", reduce_udf(identity_udf, props), FieldMap(L), (0,))
            flow = chain(Source("L", L), r)
            return CardinalityEstimator(ctx).estimate(flow)

        agg = reduce_rows(exactly_one())
        assert (agg.rows, agg.calls) == (10, 10)
        filtering = reduce_rows(
            UdfProperties(emit_bounds=EmitBounds.at_most_one())
        )
        assert (filtering.rows, filtering.calls) == (5, 10)
        unbounded = reduce_rows(UdfProperties())
        assert (unbounded.rows, unbounded.calls) == (10, 10)

    def test_reduce_hint_selectivity_overrides_bounds(self):
        _, ctx = setup_env()
        r = ReduceOp(
            "g",
            reduce_udf(identity_udf, exactly_one()),
            FieldMap(L),
            (0,),
        )
        flow = chain(Source("L", L), r)
        est = CardinalityEstimator(ctx, {"g": Hints(selectivity=3.0)})
        assert est.estimate(flow).rows == 30

    def test_match_uses_key_distincts(self):
        _, ctx = setup_env()
        m = MatchOp("j", binary_udf(concat_udf, exactly_one()),
                    FieldMap(L), FieldMap(S), (0,), (0,))
        flow = node(m, node(Source("L", L)), node(Source("S", S)))
        est = CardinalityEstimator(ctx)
        # 1000 x 10 / max(10, 10) = 1000
        assert est.estimate(flow).rows == 1000

    def test_width_includes_new_attrs(self):
        _, ctx = setup_env()
        props = UdfProperties(
            writes_modified=FieldSet.of(2), emit_bounds=EmitBounds.exactly(1)
        )
        m = MapOp("w", map_udf(identity_udf, props), FieldMap(L))
        flow = chain(Source("L", L), m)
        est = CardinalityEstimator(ctx)
        assert est.estimate(flow).width > est.estimate(flow.only_child).width


class TestPhysical:
    def make_q15_like(self):
        catalog, ctx = setup_env()
        r = ReduceOp(
            "agg",
            reduce_udf(identity_udf, UdfProperties(
                reads=FieldSet.of((0, 1)),
                emit_bounds=EmitBounds.exactly(1),
            )),
            FieldMap(L), (0,),
        )
        m = MatchOp("join", binary_udf(concat_udf, exactly_one()),
                    FieldMap(L), FieldMap(S), (0,), (0,))
        flow = node(m, node(r, node(Source("L", L))), node(Source("S", S)))
        return ctx, flow

    def test_partitioning_reuse_after_reduce(self):
        """The Q15 story: Match reuses the Reduce's partitioning (forward)."""
        ctx, flow = self.make_q15_like()
        est = CardinalityEstimator(ctx)
        phys = optimize_physical(flow, ctx, est, CostParams(degree=8))
        assert phys.local is LocalStrategy.HASH_JOIN
        left_ship = phys.ships[0]
        assert left_ship.kind is ShipKind.FORWARD  # reduce side reused

    def test_reduce_partitions_random_input(self):
        catalog, ctx = setup_env()
        r = ReduceOp("agg", reduce_udf(identity_udf, exactly_one()), FieldMap(L), (0,))
        flow = chain(Source("L", L), r)
        est = CardinalityEstimator(ctx)
        phys = optimize_physical(flow, ctx, est, CostParams(degree=8))
        assert phys.ships[0].kind is ShipKind.PARTITION

    def test_broadcast_chosen_for_tiny_build_side(self):
        catalog, ctx = setup_env(l_rows=100_000, s_rows=5)
        m = MatchOp("join", binary_udf(concat_udf, exactly_one()),
                    FieldMap(L), FieldMap(S), (0,), (0,))
        flow = node(m, node(Source("L", L)), node(Source("S", S)))
        est = CardinalityEstimator(ctx)
        phys = optimize_physical(flow, ctx, est, CostParams(degree=8))
        kinds = {s.kind for s in phys.ships}
        assert ShipKind.BROADCAST in kinds
        assert phys.build_side == 1  # the tiny supplier side builds

    def test_map_preserves_partitioning_unless_writing_it(self):
        catalog, ctx = setup_env()
        r = ReduceOp("agg", reduce_udf(identity_udf, exactly_one()), FieldMap(L), (0,))
        touch_key = UdfProperties(
            writes_modified=FieldSet.of(0), emit_bounds=EmitBounds.exactly(1)
        )
        m = MapOp("touch", map_udf(identity_udf, touch_key), FieldMap(L))
        flow = chain(Source("L", L), r, m)
        est = CardinalityEstimator(ctx)
        phys = optimize_physical(flow, ctx, est, CostParams(degree=8))
        assert phys.partitioning == frozenset()  # key was overwritten

    def test_costs_monotone_with_children(self):
        ctx, flow = self.make_q15_like()
        est = CardinalityEstimator(ctx)
        phys = optimize_physical(flow, ctx, est, CostParams(degree=8))
        assert phys.cost_total >= max(c.cost_total for c in phys.children)
        assert phys.cost_self >= 0

    def test_sink_wrapping(self):
        ctx, flow = self.make_q15_like()
        est = CardinalityEstimator(ctx)
        plan = node(Sink("out"), flow)
        phys = optimize_physical(plan, ctx, est, CostParams(degree=8))
        assert phys.local is LocalStrategy.COLLECT

    def test_describe_renders(self):
        ctx, flow = self.make_q15_like()
        est = CardinalityEstimator(ctx)
        phys = optimize_physical(flow, ctx, est, CostParams(degree=8))
        text = phys.describe()
        assert "join" in text and "hash join" in text
