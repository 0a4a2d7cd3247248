"""The engine's streaming pipeline: batching, stage cache and stages.

Fused forward-shipped Map chains (and the Sink) stream each partition
in bounded batches, and the subtree cache keys on pipeline-stage
boundaries.  These tests pin that the batch size never changes a fused
chain's output or row counts, that neither cache replays nor tracing
change the feedback observations, that cache replays are exact, how plans
decompose into stages, and that mixed-type keys group as the reference
evaluator groups them.  The records and metrics themselves are pinned
by the engine goldens (``tests/engine/test_golden.py``).
"""

import copy

import pytest

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
    reduce_udf,
)
from repro.datagen import ClickScale, CorpusScale, TpchScale
from repro.engine import Engine, executor, round_robin
from repro.engine.executor import BATCH_ROWS, run_chain_partition
from repro.feedback import ObservationCollector
from repro.obs import Tracer
from repro.optimizer import (
    CardinalityEstimator,
    CostParams,
    Optimizer,
    PlanContext,
)
from repro.optimizer.physical import PhysNode, pipelineable
from repro.workloads import (
    build_clickstream,
    build_q7,
    build_q15,
    build_textmining,
)
from tests.optimizer.tree_costing import optimize_physical

SMALL_TPCH = TpchScale(suppliers=40, customers=80, orders=400)

BUILDERS = {
    "tpch_q7": lambda: build_q7(SMALL_TPCH),
    "tpch_q15": lambda: build_q15(SMALL_TPCH),
    "clickstream": lambda: build_clickstream(ClickScale(sessions=250)),
    "textmining": lambda: build_textmining(CorpusScale(documents=250)),
}


@pytest.fixture(scope="module")
def optimized():
    """workload name -> (workload, rank-picked plans), optimized once."""
    out = {}
    for name, build in BUILDERS.items():
        workload = build()
        result = Optimizer(
            workload.catalog, workload.hints, AnnotationMode.SCA, workload.params
        ).optimize(workload.plan)
        out[name] = (workload, result.picks(5))
    return out


class TestBatchSize:
    @pytest.mark.parametrize("batch", [1, 7, 100_000])
    def test_batch_size_does_not_change_results(self, optimized, batch):
        """Every text-mining partition streamed through the fused chain in
        ``batch``-row batches equals one whole-partition batch: same rows,
        same order, same per-operator row counts."""
        workload, picks = optimized["textmining"]
        (stage,) = picks[0].physical.pipeline_stages()
        scan, *chain = stage
        ops = [node.logical.op for node in chain]
        rows = workload.data[scan.logical.op.name]
        partitions = round_robin(rows, workload.params.degree)
        assert sum(map(len, partitions)) == len(rows) > 0
        for part in partitions:
            whole = run_chain_partition(ops, part, max(len(part), 1))
            assert run_chain_partition(ops, part, batch) == whole

    @pytest.mark.parametrize("name", ["textmining", "tpch_q15", "tpch_q7"])
    def test_every_fused_chain_is_batch_invariant(
        self, optimized, monkeypatch, name
    ):
        """Every partition the engine streams through a fused chain, on
        every picked plan (breaker-led chains included), gives in batches
        of 1 and 7 rows what it gave at ``BATCH_ROWS`` and in one batch."""
        workload, picks = optimized[name]
        calls = []

        def recording(ops, rows, batch):
            assert batch == BATCH_ROWS
            rows = copy.deepcopy(rows)
            got = run_chain_partition(ops, copy.deepcopy(rows), batch)
            calls.append((list(ops), rows, got))
            return got

        monkeypatch.setattr(executor, "run_chain_partition", recording)
        engine = Engine(workload.params, workload.true_costs)
        for plan in picks:
            engine.execute(plan.physical, workload.data)
        assert any(rows for _, rows, _ in calls)
        for ops, rows, got in calls:
            whole = run_chain_partition(ops, rows, max(len(rows), 1))
            assert got == whole
            for batch in (1, 7):
                assert run_chain_partition(ops, rows, batch) == whole

    def test_an_emptied_batch_skips_the_rest_of_the_chain(self):
        """A Map that drops every row ends the batch: later Maps see no
        input, so they count neither calls nor rows."""
        fields = attrs("e.k")

        def drop(_rec, _out):
            pass

        def keep(rec, out):
            out.emit(rec.copy())

        ops = [
            MapOp("keep", map_udf(keep), FieldMap(fields)),
            MapOp("drop", map_udf(drop), FieldMap(fields)),
            MapOp("after", map_udf(keep), FieldMap(fields)),
        ]
        rows = [{fields[0]: i} for i in range(5)]
        assert run_chain_partition(ops, rows, 2) == ([], [5, 5, 0], [5, 0, 0])
        assert run_chain_partition(ops, [], 2) == ([], [0, 0, 0], [0, 0, 0])


class TestObservations:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_collected_observations_identical_across_engine_paths(
        self, optimized, name
    ):
        """The feedback subsystem's per-op observations — rows-in,
        rows-out, UDF calls, everything — must not depend on whether the
        engine replays cached subtrees or records a trace."""
        workload, picks = optimized[name]
        paths = {
            "plain": {},
            "cached": {"reuse_subtree_results": True},
            "traced": {"tracer": Tracer()},
        }
        collected = {}
        for path, options in paths.items():
            collector = ObservationCollector()
            engine = Engine(
                workload.params, workload.true_costs, collector=collector,
                **options,
            )
            for plan in picks:
                engine.execute(plan.physical, workload.data)
            collected[path] = collector.executions
        want = collected["plain"]
        assert len(want) == len(picks)  # the hook fired once per execution
        for path in ("cached", "traced"):
            assert collected[path] == want
            # Field-level check for the headline quantities, exact equality.
            for got, exp in zip(collected[path], want):
                assert (got.plan_key, got.seconds) == (exp.plan_key, exp.seconds)
                assert [
                    (op.key, op.rows_in, op.rows_out, op.udf_calls)
                    for op in got.ops
                ] == [
                    (op.key, op.rows_in, op.rows_out, op.udf_calls)
                    for op in exp.ops
                ]


class TestBreakerBoundaryCache:
    def test_cache_hits_replay_identical_metrics(self, optimized):
        workload, picks = optimized["tpch_q15"]
        engine = Engine(
            workload.params, workload.true_costs, reuse_subtree_results=True
        )
        first = engine.execute(picks[0].physical, workload.data)
        assert engine._subtree_cache  # the run populated the cache
        second = engine.execute(picks[0].physical, workload.data)
        assert second.records == first.records
        assert second.report.per_op == first.report.per_op
        assert second.seconds == first.seconds

    def test_cache_keys_only_stage_boundaries(self, optimized):
        """Streaming caches per pipeline stage, not per plan node."""
        workload, picks = optimized["textmining"]
        engine = Engine(
            workload.params, workload.true_costs, reuse_subtree_results=True
        )
        plan = picks[0].physical
        engine.execute(plan, workload.data)
        nodes = 0
        stack = [plan]
        while stack:
            node = stack.pop()
            nodes += 1
            stack.extend(node.children)
        # The whole text-mining plan is one fused stage (source + Map
        # chain + sink): the cache holds the root entry plus the stage's
        # breaker entry, far fewer than the per-node seed cache.
        assert len(engine._subtree_cache) == len(plan.pipeline_stages()) + 1
        assert len(engine._subtree_cache) < nodes

    def test_physnode_hashes_by_identity(self):
        assert PhysNode.__hash__ is object.__hash__
        # Structurally equal plans built by two fresh optimizers are
        # distinct objects and distinct cache keys: equality no longer
        # recurses over the whole subtree.
        fields = attrs("p.k", "p.v")
        catalog = Catalog()
        catalog.add_source("P", SourceStats(row_count=10))
        ctx = PlanContext(catalog, AnnotationMode.SCA)
        flow = chain(Source("P", fields))
        first = optimize_physical(flow, ctx, CardinalityEstimator(ctx), CostParams())
        second = optimize_physical(flow, ctx, CardinalityEstimator(ctx), CostParams())
        assert first.describe() == second.describe()
        assert first is not second
        assert first != second


class TestPipelineStages:
    def test_textmining_is_one_fused_stage(self, optimized):
        _, picks = optimized["textmining"]
        stages = picks[0].physical.pipeline_stages()
        assert len(stages) == 1
        (stage,) = stages
        # breaker first (the scan), then the whole fused annotator chain
        # (the optimizer plans the body, so no Sink node appears here)
        assert stage[0].name == "documents"
        assert stage[1].name == "tokenize"
        assert len(stage) == 8  # source + 7 annotators, one streaming pass

    def test_every_node_in_exactly_one_stage(self, optimized):
        for name in sorted(BUILDERS):
            _, picks = optimized[name]
            for plan in picks:
                stages = plan.physical.pipeline_stages()
                seen = [node for stage in stages for node in stage]
                assert len(seen) == len(set(map(id, seen)))
                stack, nodes = [plan.physical], []
                while stack:
                    node = stack.pop()
                    nodes.append(node)
                    stack.extend(node.children)
                assert set(map(id, seen)) == set(map(id, nodes))
                for stage in stages:
                    assert not pipelineable(stage[0])  # a breaker leads
                    for fused in stage[1:]:
                        assert pipelineable(fused)


class TestMixedTypeKeyParity:
    def test_engine_matches_reference_on_mixed_type_keys(self):
        """``1``/``1.0``/``True`` are one group under dict-key semantics;
        the repartitioned engine must agree with the oracle."""
        K = attrs("m.k", "m.v")

        def sum_group(records, out):
            total = 0
            for r in records:
                total = total + r.get_field(1)
            o = records[0].copy()
            o.set_field(1, total)
            out.emit(o)

        keys = [1, 1.0, True, 2, 2.0, 0, False, 0.0, "1", 3, float(2**40), 2**40]
        rows = [{K[0]: k, K[1]: i + 1} for i, k in enumerate(keys * 5)]
        data = {"M": rows}
        catalog = Catalog()
        catalog.add_source("M", SourceStats(row_count=len(rows)))
        ctx = PlanContext(catalog, AnnotationMode.SCA)
        flow = chain(
            Source("M", K),
            ReduceOp("sum", reduce_udf(sum_group), FieldMap(K), (0,)),
        )
        phys = optimize_physical(
            flow, ctx, CardinalityEstimator(ctx), CostParams(degree=8)
        )
        baseline = evaluate(flow, data)
        # dict-key semantics collapse 1/1.0/True (and friends) per group
        distinct_groups = {}
        for k in keys:
            distinct_groups[k] = True
        assert len(baseline) == len(distinct_groups)
        result = Engine(CostParams(degree=8)).execute(phys, data)
        assert datasets_equal(result.records, baseline)
        assert len(result.records) == len(distinct_groups)
