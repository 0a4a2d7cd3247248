"""Mid-query re-optimization: switching behavior and integration.

The headline scenario: a deliberately mis-hinted workload picks the
wrong plan, executes its first stages, and the controller — armed with
the exact cardinalities observed at the boundary — switches to a better
suffix, beating the no-switch baseline end-to-end while producing the
identical result set.
"""

import math

import pytest

from repro.core import AnnotationMode
from repro.core.errors import FeedbackError
from repro.datagen import ClickScale
from repro.feedback import (
    AdaptiveOptimizer,
    FeedbackEstimator,
    MidQueryReoptimizer,
    StatisticsStore,
    run_midquery,
)
from repro.optimizer import Hints, Optimizer
from repro.workloads import build_clickstream

#: The buy filter actually forwards whole buying sessions (several rows
#: per group); hinting it as near-annihilating with a handful of sessions
#: makes the optimizer bet on a tiny intermediate and mis-pick.
MISLEADING_BUY_HINT = Hints(selectivity=0.05, cpu_per_call=3.0, distinct_keys=10)


def mis_hinted(scale=None):
    workload = build_clickstream(scale)
    hints = dict(workload.hints)
    hints["filter_buy_sessions"] = MISLEADING_BUY_HINT
    return workload, hints


class TestMisHintedRecovery:
    @pytest.fixture(scope="class")
    def experiment(self):
        workload, hints = mis_hinted()
        return run_midquery(workload, hints=hints, switch_threshold=1.1)

    def test_the_wrong_plan_is_corrected_at_a_stage_boundary(self, experiment):
        switches = [d for d in experiment.decisions if d.switched]
        assert len(switches) == 1
        (switch,) = switches
        # The correction lands at the first boundary where new information
        # exists: right after the mis-hinted operator itself executed.
        assert switch.stage_name == "filter_buy_sessions"
        assert "filter_buy_sessions" in switch.changed_ops
        assert switch.best_cost < switch.current_cost

    def test_end_to_end_modeled_time_improves(self, experiment):
        assert experiment.adaptive_seconds < experiment.baseline_seconds
        assert experiment.modeled_speedup > 2.0  # ~6.7x measured

    def test_switched_run_produces_the_identical_result_set(self, experiment):
        assert experiment.records_match

    def test_describe_mentions_the_switch(self, experiment):
        text = experiment.describe()
        assert "SWITCHED" in text
        assert "mid-query" in text

    def test_no_boundary_prices_the_replanned_suffix_above_the_kept_one(
        self, experiment
    ):
        for decision in experiment.decisions:
            assert decision.best_cost <= decision.current_cost


class TestThresholdSemantics:
    def test_inf_threshold_is_bit_identical_to_baseline(self):
        workload, hints = mis_hinted(ClickScale(sessions=250))
        experiment = run_midquery(
            workload, hints=hints, switch_threshold=math.inf
        )
        assert not experiment.switched
        assert experiment.adaptive_seconds == experiment.baseline_seconds
        assert experiment.adaptive.records == experiment.baseline.records
        assert (
            experiment.adaptive.report.per_op
            == experiment.baseline.report.per_op
        )

    def test_high_threshold_suppresses_a_marginal_switch(self):
        workload, hints = mis_hinted(ClickScale(sessions=250))
        experiment = run_midquery(workload, hints=hints, switch_threshold=1e9)
        assert not experiment.switched

    @pytest.mark.parametrize("bad", [-0.5, float("nan")])
    def test_invalid_thresholds_fail_loudly(self, bad):
        workload = build_clickstream(ClickScale(sessions=250))
        with pytest.raises(FeedbackError, match="switch_threshold"):
            MidQueryReoptimizer(
                workload.catalog,
                workload.hints,
                switch_threshold=bad,
            )


class TestLearningTransfer:
    def test_observations_are_keyed_like_ordinary_plans(self, make_store):
        """Stats learned across a switch must transfer to future full-plan
        optimizations: no synthetic boundary name may leak into the store."""
        workload, hints = mis_hinted(ClickScale(sessions=250))
        store = make_store()
        run_midquery(workload, hints=hints, store=store, switch_threshold=1.1)
        assert store.nodes  # the run actually learned something
        for key in store.nodes:
            assert "stage:" not in key
        for name in store.sources:
            assert "stage:" not in name

    def test_store_learned_mid_query_fixes_the_next_optimization(
        self, make_store
    ):
        """What a switched run learned must re-rank the next cold
        optimization onto the good plan."""
        workload, hints = mis_hinted(ClickScale(sessions=250))
        store = make_store()
        experiment = run_midquery(
            workload, hints=hints, store=store, switch_threshold=1.1
        )
        assert experiment.switched
        relearned = Optimizer(
            workload.catalog,
            hints,
            AnnotationMode.SCA,
            workload.params,
            estimator_factory=lambda ctx, h: FeedbackEstimator(ctx, h, store),
        ).optimize(workload.plan)
        plain = Optimizer(
            workload.catalog, hints, AnnotationMode.SCA, workload.params
        ).optimize(workload.plan)
        # The mis-hinted pick is estimated cheaper without learning, and
        # the learned pick executes faster than the mis-hinted one did.
        assert relearned.best.body is not plain.best.body

    def test_caller_catalog_is_never_polluted(self):
        workload, hints = mis_hinted(ClickScale(sessions=250))
        before = set(workload.catalog._sources)
        run_midquery(workload, hints=hints, switch_threshold=0.0)
        assert set(workload.catalog._sources) == before


class TestAdaptiveIntegration:
    def test_round_zero_deployment_recovers_mid_run(self):
        """Under the adaptive loop, the deployed pick of the cold round
        executes with in-flight re-optimization: the mis-pick is corrected
        *during* round 0, not one full execution later."""
        workload, hints = mis_hinted(ClickScale(sessions=250))
        workload.hints = hints
        plain = AdaptiveOptimizer(workload, store=StatisticsStore(), picks=3)
        adaptive = AdaptiveOptimizer(
            workload,
            store=StatisticsStore(),
            picks=3,
            midquery=True,
            switch_threshold=1.1,
        )
        cold = plain._run_round(0)
        fixed = adaptive._run_round(0)
        assert any(d.switched for d in fixed.midquery)
        assert fixed.pick_seconds < cold.pick_seconds

    def test_midquery_disabled_rounds_record_no_decisions(self, make_store):
        workload = build_clickstream(ClickScale(sessions=250))
        adaptive = AdaptiveOptimizer(workload, store=make_store(), picks=2)
        report = adaptive.run(0)
        assert report.rounds[0].midquery == []
