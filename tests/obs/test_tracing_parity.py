"""Tracing must be a pure observer: bit-identical results on vs off.

The tracer reads wall-clock only; it must never touch the modeled time
axis.  These tests pin that across all four paper workloads, staged
execution with a forced mid-query switch, and the optimizer/feedback loops: the records, per-op
:class:`OpMetrics`, modeled seconds, and ranked plan costs are *exactly*
equal with a live :class:`Tracer` and with the default no-op tracer.
"""

import pytest

from repro.core import AnnotationMode
from repro.datagen import ClickScale, CorpusScale, TpchScale
from repro.engine import Engine
from repro.obs import Tracer
from repro.optimizer import Optimizer
from repro.workloads import (
    build_clickstream,
    build_q7,
    build_q15,
    build_textmining,
)

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
        out[name] = (workload, result.picks(3))
    return out


class TestEngineParity:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_execute_bit_identical_traced_vs_untraced(self, optimized, name):
        workload, picks = optimized[name]
        tracer = Tracer()
        untraced = Engine(workload.params, workload.true_costs)
        traced = Engine(workload.params, workload.true_costs, tracer=tracer)
        for plan in picks:
            want = untraced.execute(plan.physical, workload.data)
            got = traced.execute(plan.physical, workload.data)
            assert got.records == want.records
            assert got.report.per_op == want.report.per_op  # exact OpMetrics
            assert got.seconds == want.seconds  # bit-identical, not approx
        assert tracer.spans  # the traced engine actually traced
        assert tracer.metrics.counters["engine.executions"] == len(picks)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_execute_staged_bit_identical_traced_vs_untraced(
        self, optimized, name
    ):
        """Stage-by-stage execution without a controller records its
        stage spans and changes nothing it returns."""
        workload, picks = optimized[name]
        tracer = Tracer()
        untraced = Engine(workload.params, workload.true_costs)
        traced = Engine(workload.params, workload.true_costs, tracer=tracer)
        for plan in picks:
            want = untraced.execute_staged(plan.physical, workload.data)
            got = traced.execute_staged(plan.physical, workload.data)
            assert got.records == want.records
            assert got.report.per_op == want.report.per_op
            assert got.seconds == want.seconds
        assert tracer.spans
        assert tracer.metrics.counters["engine.executions"] == len(picks)

    def test_wall_seconds_measured_with_tracing_off(self, optimized):
        """The report's wall-clock axis must not depend on the tracer."""
        workload, picks = optimized["clickstream"]
        engine = Engine(workload.params, workload.true_costs)
        result = engine.execute(picks[0].physical, workload.data)
        assert result.wall_seconds > 0.0


class TestStagedParity:
    def test_staged_with_forced_switch_bit_identical(self, optimized):
        """execute_staged through the mid-query controller, with
        switch_threshold=0.0 forcing a switch at every boundary, is
        bit-identical traced vs untraced — including the boundary
        decisions themselves."""
        from repro.feedback.midquery import run_midquery

        workload, _ = optimized["clickstream"]
        tracer = Tracer()
        want = run_midquery(workload, switch_threshold=0.0)
        got = run_midquery(workload, switch_threshold=0.0, tracer=tracer)
        assert got.switched and want.switched  # the diagnostic forced it
        assert got.adaptive.records == want.adaptive.records
        assert got.adaptive.report.per_op == want.adaptive.report.per_op
        assert got.adaptive.seconds == want.adaptive.seconds
        assert [
            (d.boundary, d.current_cost, d.best_cost, d.switched)
            for d in got.decisions
        ] == [
            (d.boundary, d.current_cost, d.best_cost, d.switched)
            for d in want.decisions
        ]
        # The trace recorded the decision evidence.
        boundaries = [s for s in tracer.spans if s.name == "feedback.boundary"]
        assert boundaries
        for span in boundaries:
            assert {"kept_cost", "best_cost", "switched"} <= set(span.attrs)
        assert tracer.metrics.counters["feedback.switches"] >= 1


class TestOptimizerParity:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_ranked_costs_identical_traced_vs_untraced(self, optimized, name):
        workload, _ = optimized[name]
        tracer = Tracer()
        want = Optimizer(
            workload.catalog, workload.hints, AnnotationMode.SCA,
            workload.params,
        ).optimize(workload.plan)
        got = Optimizer(
            workload.catalog, workload.hints, AnnotationMode.SCA,
            workload.params, tracer=tracer,
        ).optimize(workload.plan)
        assert [(p.rank, p.cost) for p in got.ranked] == [
            (p.rank, p.cost) for p in want.ranked
        ]
        assert tracer.metrics.counters["optimizer.optimizations"] == 1
        assert (
            tracer.metrics.counters["optimizer.alternatives_costed"]
            == len(got.ranked)
        )


class TestFeedbackParity:
    def test_feedback_rounds_identical_traced_vs_untraced(self, optimized):
        from repro.bench import run_experiment

        workload, _ = optimized["textmining"]
        tracer = Tracer()
        want = run_experiment(workload, picks=2, feedback_rounds=2)
        got = run_experiment(
            workload, picks=2, feedback_rounds=2, tracer=tracer
        )
        assert [p.runtime_seconds for p in got.executed] == [
            p.runtime_seconds for p in want.executed
        ]
        assert [p.estimated_cost for p in got.executed] == [
            p.estimated_cost for p in want.executed
        ]
        assert [p.result.records for p in got.executed] == [
            p.result.records for p in want.executed
        ]
        counters = tracer.metrics.counters
        assert counters["feedback.rounds"] == 2
        assert counters["feedback.ingests"] >= 1
        rounds = [s for s in tracer.spans if s.name == "feedback.round"]
        assert len(rounds) == 2
