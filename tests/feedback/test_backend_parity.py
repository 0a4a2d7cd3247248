"""Backend parity: persistence must never change what is learned.

The acceptance bar of the backend split: with a single writer, the
entire feedback stack — EMA folds, estimator-view fingerprints,
adaptive-loop picks, q-error trajectories, mid-query switch decisions —
is **bit-identical** between an in-memory store, a sqlite-backed store
and a store committing through the protocol fake.  Any float drift (a
REAL that round-trips differently, an iteration-order change in the
learned-hint folds) fails these exact-equality assertions.
"""

import pytest

from repro.datagen import ClickScale, TpchScale
from repro.feedback import AdaptiveOptimizer, StatisticsStore, run_midquery
from repro.optimizer import Hints
from repro.workloads import build_clickstream, build_q15
from tests.feedback.fakes import FakeBackend

SMALL_TPCH = TpchScale(suppliers=40, customers=80, orders=400)


def mis_hinted(scale=None):
    """Mis-hinted clickstream (same setup as the mid-query suite)."""
    workload = build_clickstream(scale)
    hints = dict(workload.hints)
    hints["filter_buy_sessions"] = Hints(
        selectivity=0.05, cpu_per_call=3.0, distinct_keys=10
    )
    return workload, hints


def _store_at(tmp_path, backend):
    if backend == "memory":
        return StatisticsStore()
    if backend == "fake":
        return StatisticsStore.open(FakeBackend.path, backend=FakeBackend())
    return StatisticsStore.open(tmp_path / f"stats-{backend}.sqlite")


def _adaptive_trace(workload, store, rounds=2):
    report = AdaptiveOptimizer(workload, store=store, picks=5).run(rounds)
    return [
        (
            r.index,
            r.pick.rank,
            r.pick.cost,
            r.pick_seconds,
            r.pick_measured_rank,
            r.qerror.median,
            r.qerror.max,
            r.converged,
        )
        for r in report.rounds
    ]


BACKENDS = ("memory", "sqlite", "fake")


class TestAdaptiveLoopParity:
    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_trajectory_is_bit_identical_to_memory(self, tmp_path, backend):
        reference = _adaptive_trace(
            build_clickstream(ClickScale(sessions=250)), StatisticsStore()
        )
        store = _store_at(tmp_path, backend)
        got = _adaptive_trace(
            build_clickstream(ClickScale(sessions=250)), store
        )
        assert got == reference

    def test_final_views_identical_across_all_backends(self, tmp_path):
        views = {}
        hints = {}
        for backend in BACKENDS:
            workload = build_q15(SMALL_TPCH)
            store = _store_at(tmp_path, backend)
            AdaptiveOptimizer(workload, store=store, picks=5).run(1)
            views[backend] = store.estimator_view()
            hints[backend] = store.learned_hints()
        for backend in BACKENDS[1:]:
            assert views[backend] == views["memory"]
            assert hints[backend] == hints["memory"]

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_views_survive_reopen_bit_identically(self, tmp_path, backend):
        workload = build_q15(SMALL_TPCH)
        store = _store_at(tmp_path, backend)
        AdaptiveOptimizer(workload, store=store, picks=5).run(1)
        if backend == "fake":  # a second store over the same fake
            reopened = StatisticsStore.open(
                store.backend.path, backend=store.backend
            )
        else:
            reopened = StatisticsStore.open(store.backend.path)
        assert reopened.estimator_view() == store.estimator_view()
        assert reopened.to_dict() == store.to_dict()
        for key in store.plans:
            assert reopened.plan_seconds(key) == store.plan_seconds(key)


class TestMidQueryParity:
    def test_switch_decisions_identical_across_backends(self, tmp_path):
        decisions = {}
        views = {}
        for backend in BACKENDS:
            workload, hints = mis_hinted(ClickScale(sessions=250))
            store = _store_at(tmp_path, backend)
            experiment = run_midquery(
                workload, hints=hints, store=store, switch_threshold=1.1
            )
            decisions[backend] = [
                (
                    d.stage_name,
                    d.switched,
                    d.current_cost,
                    d.best_cost,
                    tuple(sorted(d.changed_ops)),
                )
                for d in experiment.decisions
            ]
            views[backend] = store.estimator_view()
        for backend in BACKENDS[1:]:
            assert decisions[backend] == decisions["memory"]
            assert views[backend] == views["memory"]
