"""The adaptive feedback loop: learning must help and never regress.

Pins the PR's acceptance behavior:

* on clickstream (stock workload, default scale) the default-hint pick is
  *not* the measured-fastest plan; one feedback round strictly reduces
  the median q-error and moves the pick to the measured-fastest plan;
* on every workload, feedback rounds never worsen the pick's
  measured-runtime rank, and the loop reaches a fixed point;
* with feedback disabled the optimizer and experiment harness are
  bit-identical to the feedback-free path.
"""

import pytest

from repro.bench import run_experiment
from repro.core import AnnotationMode
from repro.core.errors import FeedbackError
from repro.datagen import ClickScale, CorpusScale, TpchScale
from repro.feedback import AdaptiveOptimizer, FeedbackEstimator, StatisticsStore
from repro.obs import Tracer
from repro.optimizer import Optimizer
from repro.workloads import (
    build_clickstream,
    build_q7,
    build_q15,
    build_textmining,
)

SMALL_TPCH = TpchScale(suppliers=40, customers=80, orders=400)

SMALL_BUILDERS = {
    "tpch_q7": lambda: build_q7(SMALL_TPCH),
    "tpch_q15": lambda: build_q15(SMALL_TPCH),
    "clickstream": lambda: build_clickstream(ClickScale(sessions=250)),
    "textmining": lambda: build_textmining(CorpusScale(documents=250)),
}


class TestFeedbackImprovesThePick:
    def test_clickstream_round1_fixes_the_mispick(self):
        """Default hints mis-rank clickstream: the estimated-cheapest plan
        is measured second-fastest.  Round 1 must correct the pick."""
        workload = build_clickstream()
        report = AdaptiveOptimizer(workload, picks=5).run(feedback_rounds=1)
        round0, round1 = report.rounds[0], report.rounds[1]

        # Round 0 is the feedback-free baseline: estimator's rank-1 plan.
        assert round0.pick is round0.optimization.best
        assert round0.pick_measured_rank > 1  # the mis-pick the paper-style
        # hints produce on this workload
        # One feedback round: estimates tighten strictly...
        assert round1.qerror.median < round0.qerror.median
        assert round1.qerror.max <= round0.qerror.max
        # ...and the deployed pick becomes the measured-fastest plan.
        assert round1.pick_measured_rank == 1
        assert round1.pick_seconds < round0.pick_seconds

    @pytest.mark.parametrize("name", sorted(SMALL_BUILDERS))
    def test_feedback_never_worsens_the_pick(self, name):
        workload = SMALL_BUILDERS[name]()
        report = AdaptiveOptimizer(workload, picks=5).run(feedback_rounds=2)
        round0 = report.rounds[0]
        final = report.final
        assert final.pick_measured_rank <= round0.pick_measured_rank
        assert final.pick_seconds <= round0.pick_seconds
        assert final.qerror.median <= round0.qerror.median

    def test_loop_reaches_fixed_point(self, make_store):
        workload = SMALL_BUILDERS["tpch_q15"]()
        report = AdaptiveOptimizer(
            workload, store=make_store(), picks=5
        ).run(feedback_rounds=5)
        assert report.converged
        # Fixed point well before the round limit: identical data can't
        # keep teaching the estimator new statistics.
        assert len(report.rounds) <= 3

    def test_negative_rounds_rejected(self):
        workload = SMALL_BUILDERS["tpch_q15"]()
        with pytest.raises(FeedbackError, match="feedback_rounds"):
            AdaptiveOptimizer(workload).run(feedback_rounds=-1)


def test_each_invalidation_is_counted_once():
    """Two traced rounds on Q7: round 1's refresh is the loop's only
    invalidation (round 0 plans on a cold store, and the last round's
    ingests wait for a round that never comes).  Its span and both
    counters agree on it."""
    tracer = Tracer()
    AdaptiveOptimizer(build_q7(), picks=1, tracer=tracer).run(feedback_rounds=1)
    spans = [s for s in tracer.spans if s.name == "optimizer.invalidate"]
    assert [s.attrs for s in spans] == [{"changed": 14, "evicted": 126}]
    assert tracer.metrics.counters["optimizer.invalidations"] == 1
    assert tracer.metrics.counters["optimizer.memo_evictions"] == 126


class TestFeedbackDisabledParity:
    @pytest.mark.parametrize("name", ["clickstream", "tpch_q15"])
    def test_cold_feedback_estimator_is_bit_identical(self, name):
        """An empty store must not perturb estimation: same ranked plan
        list, same costs, bit-for-bit."""
        workload = SMALL_BUILDERS[name]()
        plain = Optimizer(
            workload.catalog, workload.hints, AnnotationMode.SCA, workload.params
        ).optimize(workload.plan)
        fed = Optimizer(
            workload.catalog,
            workload.hints,
            AnnotationMode.SCA,
            workload.params,
            estimator_factory=lambda ctx, hints: FeedbackEstimator(
                ctx, hints, StatisticsStore()
            ),
        ).optimize(workload.plan)
        assert [p.body for p in plain.ranked] == [p.body for p in fed.ranked]
        assert [p.cost for p in plain.ranked] == [p.cost for p in fed.ranked]
        assert [p.physical.describe() for p in plain.ranked] == [
            p.physical.describe() for p in fed.ranked
        ]

    def test_run_experiment_without_feedback_is_unchanged(self):
        """``feedback_rounds=0`` with no store takes the legacy code path
        and produces the legacy outcome exactly."""
        workload = SMALL_BUILDERS["clickstream"]()
        legacy = run_experiment(workload, picks=5)
        gated = run_experiment(workload, picks=5, feedback_rounds=0)
        assert gated.feedback is None
        assert [p.rank for p in gated.executed] == [p.rank for p in legacy.executed]
        assert [p.estimated_cost for p in gated.executed] == [
            p.estimated_cost for p in legacy.executed
        ]
        assert [p.runtime_seconds for p in gated.executed] == [
            p.runtime_seconds for p in legacy.executed
        ]

    def test_run_experiment_with_feedback_reports_rounds(self):
        workload = SMALL_BUILDERS["tpch_q15"]()
        outcome = run_experiment(workload, picks=3, feedback_rounds=1)
        assert outcome.feedback is not None
        assert len(outcome.feedback.rounds) >= 1
        assert outcome.optimization is outcome.feedback.final.optimization
        # Executed plans still cover the rank-picked figure protocol.
        assert outcome.executed[0].rank == 1
