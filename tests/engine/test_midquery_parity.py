"""Staged execution must be bit-identical to the plain engine.

The mid-query stage loop (``Engine.execute_staged``) runs a plan one
pipeline stage at a time with checkpointed intermediate handoff.  These
tests pin the tentpole's correctness bar across all four paper
workloads: with re-optimization off (no controller) or forced off
(``switch_threshold=inf``) records, per-operator metrics, and simulated
seconds are *exactly* equal to ``Engine.execute``; and when switches are
forced at every boundary (``switch_threshold=0``), the hybrid execution
still produces the same result set.
"""

import math

import pytest

from repro.core import AnnotationMode, datasets_equal
from repro.datagen import ClickScale, CorpusScale, TpchScale
from repro.engine import Engine
from repro.feedback import MidQueryReoptimizer, StatisticsStore
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


def controller_for(workload, threshold):
    return MidQueryReoptimizer(
        workload.catalog,
        workload.hints,
        AnnotationMode.SCA,
        workload.params,
        store=StatisticsStore(),
        switch_threshold=threshold,
    )


class TestStagedParity:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_staged_bit_identical_without_controller(self, optimized, name):
        workload, picks = optimized[name]
        for plan in picks:
            plain = Engine(workload.params, workload.true_costs)
            staged = Engine(workload.params, workload.true_costs)
            want = plain.execute(plan.physical, workload.data)
            got = staged.execute_staged(plan.physical, workload.data)
            assert got.records == want.records
            assert got.report.per_op == want.report.per_op  # exact OpMetrics
            assert got.seconds == want.seconds  # bit-identical, not approx

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_threshold_inf_never_switches_and_stays_identical(
        self, optimized, name
    ):
        """Re-optimization runs at every boundary but never abandons the
        plan: the execution must remain bit-identical to the plain engine."""
        workload, picks = optimized[name]
        plan = picks[0]
        controller = controller_for(workload, math.inf)
        plain = Engine(workload.params, workload.true_costs)
        staged = Engine(workload.params, workload.true_costs)
        want = plain.execute(plan.physical, workload.data)
        got = staged.execute_staged(plan.physical, workload.data, controller)
        assert got.records == want.records
        assert got.report.per_op == want.report.per_op
        assert got.seconds == want.seconds
        assert all(not d.switched for d in controller.decisions)
        # Re-planning really happened: multi-stage plans have boundaries,
        # and the best re-planned suffix never prices above the kept one.
        if len(plan.physical.pipeline_stages()) > 1:
            assert controller.decisions
        for d in controller.decisions:
            assert d.best_cost <= d.current_cost

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_forced_switches_preserve_the_result_set(self, optimized, name):
        """``switch_threshold=0`` abandons the running plan at every
        boundary; the hybrid of checkpointed prefixes and re-planned
        suffixes must still compute the same records."""
        workload, picks = optimized[name]
        plan = picks[0]
        controller = controller_for(workload, 0.0)
        plain = Engine(workload.params, workload.true_costs)
        staged = Engine(workload.params, workload.true_costs)
        want = plain.execute(plan.physical, workload.data)
        got = staged.execute_staged(plan.physical, workload.data, controller)
        assert datasets_equal(got.records, want.records)
        if len(plan.physical.pipeline_stages()) > 1:
            assert any(d.switched for d in controller.decisions)

    def test_single_stage_plans_have_no_boundaries(self, optimized):
        """Text mining fuses into one stage: nothing to re-optimize."""
        workload, picks = optimized["textmining"]
        plan = picks[0]
        assert len(plan.physical.pipeline_stages()) == 1
        controller = controller_for(workload, 0.0)
        engine = Engine(workload.params, workload.true_costs)
        engine.execute_staged(plan.physical, workload.data, controller)
        assert controller.decisions == []
