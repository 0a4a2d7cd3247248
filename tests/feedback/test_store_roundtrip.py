"""StatisticsStore persistence: persist -> reload -> re-optimize must be
deterministic, and malformed stores must fail with clear errors."""


import pytest

from repro.core import AnnotationMode
from repro.core.errors import FeedbackError
from repro.datagen import TpchScale
from repro.engine import Engine
from repro.feedback import (
    FeedbackEstimator,
    ObservationCollector,
    StatisticsStore,
)
from repro.optimizer import Optimizer
from repro.workloads import build_q15

SMALL_TPCH = TpchScale(suppliers=40, customers=80, orders=400)


@pytest.fixture(scope="module")
def warm_store():
    """A store warmed by executing every ranked Q15 plan once."""
    workload = build_q15(SMALL_TPCH)
    result = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params
    ).optimize(workload.plan)
    collector = ObservationCollector()
    engine = Engine(
        workload.params,
        workload.true_costs,
        reuse_subtree_results=True,
        collector=collector,
    )
    for plan in result.ranked:
        engine.execute(plan.physical, workload.data)
    store = StatisticsStore()
    for execution in collector.executions:
        store.ingest(execution)
    return workload, store


def _optimize_with(workload, store):
    return Optimizer(
        workload.catalog,
        workload.hints,
        AnnotationMode.SCA,
        workload.params,
        estimator_factory=lambda ctx, hints: FeedbackEstimator(ctx, hints, store),
    ).optimize(workload.plan)


class TestRoundTrip:
    def test_reloaded_store_reoptimizes_identically(self, tmp_path, warm_store):
        workload, store = warm_store
        path = tmp_path / "stats.json"
        store.save(path)
        reloaded = StatisticsStore.load(path)

        first = _optimize_with(workload, store)
        second = _optimize_with(workload, reloaded)
        # Same ranked plan list (logical bodies), same costs — exactly.
        assert [p.body for p in first.ranked] == [p.body for p in second.ranked]
        assert [p.cost for p in first.ranked] == [p.cost for p in second.ranked]
        assert [p.physical.describe() for p in first.ranked] == [
            p.physical.describe() for p in second.ranked
        ]

    def test_json_round_trip_is_lossless(self, tmp_path, warm_store):
        _, store = warm_store
        path = tmp_path / "stats.json"
        store.save(path)
        reloaded = StatisticsStore.load(path)
        assert reloaded.to_dict() == store.to_dict()
        # Saving the reload produces byte-identical JSON (sorted keys).
        path2 = tmp_path / "stats2.json"
        reloaded.save(path2)
        assert path.read_text() == path2.read_text()

    def test_learned_views_survive_the_round_trip(self, tmp_path, warm_store):
        _, store = warm_store
        path = tmp_path / "stats.json"
        store.save(path)
        reloaded = StatisticsStore.load(path)
        assert reloaded.learned_hints() == store.learned_hints()
        got = {n: s.row_count for n, s in reloaded.source_overrides().items()}
        want = {n: s.row_count for n, s in store.source_overrides().items()}
        assert got == want
        for key, plan in store.plans.items():
            assert reloaded.plan_seconds(key) == plan.seconds

    def test_open_creates_fresh_then_loads(self, tmp_path, warm_store):
        _, store = warm_store
        path = tmp_path / "stats.sqlite"
        fresh = StatisticsStore.open(path)
        assert fresh.version == 0 and not fresh.nodes
        store.migrate_to(path)
        warm = StatisticsStore.open(path)
        assert warm.to_dict() == store.to_dict()


class TestMalformedStores:
    def test_invalid_json_raises_feedback_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FeedbackError, match="not valid JSON"):
            StatisticsStore.load(path)

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FeedbackError, match="JSON object"):
            StatisticsStore.load(path)

    def test_missing_fields_rejected(self):
        with pytest.raises(FeedbackError, match="malformed"):
            StatisticsStore.from_dict({"format": 1})

    def test_unknown_format_rejected(self):
        with pytest.raises(FeedbackError, match="format"):
            StatisticsStore.from_dict({"format": 99})

    def test_bad_decay_rejected(self):
        with pytest.raises(FeedbackError, match="decay"):
            StatisticsStore(decay=0.0)

    def test_negative_staleness_horizon_rejected(self):
        """A negative horizon would mark even just-ingested entries stale
        and silently disable all learning."""
        with pytest.raises(FeedbackError, match="staleness_horizon"):
            StatisticsStore(staleness_horizon=-1)


class TestDataFingerprint:
    def test_store_from_other_scale_rejected(self, warm_store):
        """Warm-starting against rescaled data must fail loudly: the
        store's signature keys are scale-blind, so its learned stats and
        measured runtimes would silently mislead the optimizer."""
        _, store = warm_store
        bigger = build_q15(
            TpchScale(suppliers=40, customers=80, orders=400), scale_factor=2.0
        )
        from repro.feedback import AdaptiveOptimizer

        with pytest.raises(FeedbackError, match="different data"):
            AdaptiveOptimizer(bigger, store=store)

    def test_store_from_same_data_accepted(self, warm_store):
        workload, store = warm_store
        store.check_compatible(workload.catalog)  # no raise

    def test_foreign_sources_are_ignored(self, warm_store):
        """A store may accumulate several workloads: sources the current
        catalog does not know are not part of the fingerprint."""
        from repro.workloads import build_textmining
        from repro.datagen import CorpusScale

        _, store = warm_store
        other = build_textmining(CorpusScale(documents=50))
        store.check_compatible(other.catalog)  # disjoint sources: no raise


class TestDecayAndStaleness:
    def test_ema_tracks_drifting_observations(self):
        store = StatisticsStore(decay=0.5)
        from repro.feedback.observation import ExecutionObservation, OpObservation

        def obs(rows):
            return ExecutionObservation(
                plan_key="p",
                seconds=1.0,
                ops=(
                    OpObservation(
                        key="k",
                        op_name="op",
                        kind="map",
                        rows_in=rows,
                        rows_out=rows,
                        udf_calls=rows,
                        cpu_per_call=1.0,
                        disk_bytes=0.0,
                    ),
                ),
            )

        store.ingest(obs(100))
        assert store.node_stats("k").rows_out == 100.0
        store.ingest(obs(200))
        # EMA with weight 0.5: halfway toward the new observation.
        assert store.node_stats("k").rows_out == 150.0

    def test_stale_entries_drop_out_of_learned_views(self):
        from repro.feedback.observation import ExecutionObservation, OpObservation

        store = StatisticsStore(staleness_horizon=2)
        old = ExecutionObservation(
            plan_key="old_plan",
            seconds=1.0,
            ops=(
                OpObservation(
                    key="old",
                    op_name="old_op",
                    kind="map",
                    rows_in=10,
                    rows_out=5,
                    udf_calls=10,
                    cpu_per_call=1.0,
                    disk_bytes=0.0,
                ),
            ),
        )
        fresh = ExecutionObservation(plan_key="new_plan", seconds=2.0, ops=())
        store.ingest(old)
        assert store.node_stats("old") is not None
        assert "old_op" in store.learned_hints()
        for _ in range(3):
            store.ingest(fresh)
        # Beyond the horizon: excluded from lookups and learned hints,
        # but retained in the store for a later revival.
        assert store.node_stats("old") is None
        assert store.plan_seconds("old_plan") is None
        assert "old_op" not in store.learned_hints()
        assert "old" in store.nodes
        assert store.plan_seconds("new_plan") == 2.0
