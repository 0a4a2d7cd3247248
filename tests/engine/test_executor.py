"""Engine correctness: physical execution must match the oracle evaluator,
and the time model must behave sensibly."""

import dataclasses

import pytest

from repro.core import (
    AnnotationMode,
    Catalog,
    FieldMap,
    MapOp,
    MatchOp,
    ReduceOp,
    Sink,
    Source,
    SourceStats,
    attrs,
    binary_udf,
    chain,
    datasets_equal,
    evaluate,
    map_udf,
    node,
    reduce_udf,
)
from repro.datagen import ClickScale
from repro.engine import Engine, execute_physical
from repro.feedback import AdaptiveOptimizer
from repro.optimizer import (
    CardinalityEstimator,
    CostParams,
    PlanContext,
)
from repro.optimizer.physical import Ship, ShipKind, pipelineable
from repro.workloads import build_clickstream
from tests.conftest import concat_udf, random_rows
from tests.optimizer.tree_costing import optimize_physical

L = attrs("l.k", "l.v")
S = attrs("s.k", "s.name")


def sum_reduce(records, out):
    total = 0
    for r in records:
        total = total + r.get_field(1)
    o = records[0].copy()
    o.set_field(1, total)
    out.emit(o)


def double_map(rec, out):
    r = rec.copy()
    r.set_field(1, rec.get_field(1) * 2)
    out.emit(r)


def build_env():
    catalog = Catalog()
    catalog.add_source("L", SourceStats(60, distinct={L[0]: 7}))
    catalog.add_source("S", SourceStats(7, distinct={S[0]: 7}))
    catalog.declare_unique(S[0])
    ctx = PlanContext(catalog, AnnotationMode.SCA)
    l_rows = random_rows(L, 60, seed=3, lo=0, hi=6)
    s_rows = [{S[0]: k, S[1]: f"n{k}"} for k in range(7)]
    return ctx, {"L": l_rows, "S": s_rows}


def physical_for(flow, ctx, degree=8):
    est = CardinalityEstimator(ctx)
    return optimize_physical(flow, ctx, est, CostParams(degree=degree))


class TestCorrectness:
    @pytest.mark.parametrize("degree", [1, 2, 7, 16])
    def test_map_reduce_chain_matches_oracle(self, degree):
        ctx, data = build_env()
        flow = chain(
            Source("L", L),
            MapOp("dbl", map_udf(double_map), FieldMap(L)),
            ReduceOp("sum", reduce_udf(sum_reduce), FieldMap(L), (0,)),
        )
        est = CardinalityEstimator(ctx)
        phys = optimize_physical(flow, ctx, est, CostParams(degree=degree))
        result = execute_physical(phys, data, CostParams(degree=degree))
        assert datasets_equal(result.records, evaluate(flow, data))

    @pytest.mark.parametrize("degree", [1, 4])
    def test_reduce_writing_its_key_claims_no_partitioning(self, degree):
        """A Reduce whose UDF rewrites its key leaves the data partitioned
        on the old values: a Reduce above on the same key must shuffle.
        Forwarding instead returned 4 rows against 2 at degree 4."""

        def parity(records, out):
            o = records[0].copy()
            o.set_field(0, records[0].get_field(0) % 2)
            out.emit(o)

        catalog = Catalog()
        catalog.add_source("L", SourceStats(8, distinct={L[0]: 8}))
        ctx = PlanContext(catalog, AnnotationMode.SCA)
        flow = chain(
            Source("L", L),
            ReduceOp("parity", reduce_udf(parity), FieldMap(L), (0,)),
            ReduceOp("sum", reduce_udf(sum_reduce), FieldMap(L), (0,)),
        )
        data = {"L": [{L[0]: k, L[1]: 1} for k in range(8)]}
        phys = physical_for(flow, ctx, degree)
        assert phys.ships == (Ship(ShipKind.PARTITION, (L[0],)),)
        result = execute_physical(phys, data, CostParams(degree=degree))
        assert datasets_equal(result.records, evaluate(flow, data))
        assert len(result.records) == 2

    def test_match_repartition_matches_oracle(self):
        ctx, data = build_env()
        flow = node(
            MatchOp("j", binary_udf(concat_udf), FieldMap(L), FieldMap(S), (0,), (0,)),
            node(Source("L", L)),
            node(Source("S", S)),
        )
        phys = physical_for(flow, ctx)
        result = execute_physical(phys, data, CostParams(degree=8))
        assert datasets_equal(result.records, evaluate(flow, data))

    def test_match_broadcast_matches_oracle(self):
        catalog = Catalog()
        catalog.add_source("L", SourceStats(100_000, distinct={L[0]: 7}))
        catalog.add_source("S", SourceStats(7, distinct={S[0]: 7}))
        ctx = PlanContext(catalog, AnnotationMode.SCA)
        _, data = build_env()
        flow = node(
            MatchOp("j", binary_udf(concat_udf), FieldMap(L), FieldMap(S), (0,), (0,)),
            node(Source("L", L)),
            node(Source("S", S)),
        )
        phys = physical_for(flow, ctx)
        from repro.optimizer import ShipKind

        assert any(s.kind is ShipKind.BROADCAST for s in phys.ships)
        result = execute_physical(phys, data, CostParams(degree=8))
        assert datasets_equal(result.records, evaluate(flow, data))

    def test_sink_plan_executes(self):
        ctx, data = build_env()
        flow = chain(Source("L", L), MapOp("dbl", map_udf(double_map), FieldMap(L)))
        plan = node(Sink("out"), flow)
        phys = physical_for(plan, ctx)
        result = execute_physical(phys, data, CostParams(degree=8))
        assert datasets_equal(result.records, evaluate(plan, data))


class TestTimeModel:
    def test_metrics_accumulate(self):
        ctx, data = build_env()
        flow = chain(
            Source("L", L),
            ReduceOp("sum", reduce_udf(sum_reduce), FieldMap(L), (0,)),
        )
        phys = physical_for(flow, ctx)
        result = execute_physical(phys, data, CostParams(degree=8))
        report = result.report
        assert result.seconds > 0
        assert report.udf_calls == 7  # one call per key group
        names = [m.name for m in report.per_op]
        assert "sum" in names and "L" in names
        reduce_metrics = next(m for m in report.per_op if m.name == "sum")
        assert reduce_metrics.net_bytes > 0  # repartition happened
        assert reduce_metrics.rows_in == 60

    def test_true_costs_scale_runtime(self):
        ctx, data = build_env()
        flow = chain(Source("L", L), MapOp("dbl", map_udf(double_map), FieldMap(L)))
        phys = physical_for(flow, ctx)
        cheap = Engine(CostParams(degree=8), {"dbl": 1.0}).execute(phys, data)
        pricey = Engine(CostParams(degree=8), {"dbl": 1000.0}).execute(phys, data)
        assert pricey.seconds > cheap.seconds
        assert datasets_equal(cheap.records, pricey.records)

    def test_minutes_label(self):
        from repro.engine.metrics import ExecutionReport, OpMetrics

        report = ExecutionReport(per_op=[OpMetrics(name="x", local_seconds=383.0)])
        assert report.minutes_label() == "6:23 min"

    def test_missing_source_data(self):
        ctx, _ = build_env()
        flow = chain(Source("L", L), MapOp("dbl", map_udf(double_map), FieldMap(L)))
        phys = physical_for(flow, ctx)
        from repro.core import ExecutionError

        with pytest.raises(ExecutionError):
            execute_physical(phys, {}, CostParams(degree=8))


class TestConfig:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Engine(streaming=False),
            lambda: Engine(stream_batch_rows=7),
            lambda: AdaptiveOptimizer(
                build_clickstream(ClickScale(sessions=20)), streaming=True
            ),
        ],
        ids=["engine-streaming", "engine-stream_batch_rows", "adaptive-streaming"],
    )
    def test_removed_engine_options_are_rejected(self, build):
        """One engine path: the materializing switch and the batch-size
        option are gone, and so is the adaptive loop's engine switch."""
        with pytest.raises(TypeError):
            build()

    def test_map_reaching_a_local_strategy_is_an_error(self):
        """The Map planner emits forward ships only, so every Map runs
        fused; a hand-built Map behind a partition ship has no local
        evaluation and must fail loudly."""
        ctx, data = build_env()
        flow = chain(Source("L", L), MapOp("dbl", map_udf(double_map), FieldMap(L)))
        phys = physical_for(flow, ctx)
        assert isinstance(phys.logical.op, MapOp) and pipelineable(phys)
        shuffled = dataclasses.replace(
            phys, ships=(Ship(ShipKind.PARTITION, (L[0],)),)
        )
        assert not pipelineable(shuffled)
        from repro.core import ExecutionError

        with pytest.raises(ExecutionError, match="cannot execute"):
            execute_physical(shuffled, data, CostParams(degree=8))
