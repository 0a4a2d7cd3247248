"""The adaptive loop, the mid-query controller and a server tenant agree
on what a store change makes dirty.

Each entry point carries a memo across store changes and must evict
exactly the entries whose subtree contains an operator whose estimator
view changed.  Here the three start from the same Q7 statistics on
separate sqlite files, each warms a memo on the same flow, and each
file then takes the same two changes: one foreign commit and one local
ingest (for the server, which never ingests, the second write comes from
another handle).  The next re-plan of every entry point must evict with
the same dirty set and the same count as a reference memo invalidated
with the union-of-names view diff.

The store's staleness horizon is set so that the local ingest, which
never touches one Q7 operator, pushes that operator's statistics past
the horizon: its name drops out of the view and must count as dirty.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import AnnotationMode
from repro.engine import Engine
from repro.feedback import (
    AdaptiveOptimizer,
    FeedbackEstimator,
    MidQueryReoptimizer,
    ObservationCollector,
    StatisticsStore,
)
from repro.feedback.observation import observe_stage
from repro.optimizer import Memo, Optimizer
from repro.serve import ServerConfig
from repro.workloads import ALL_WORKLOADS
from tests.serve.test_invalidation import foreign_ingest

SCA = AnnotationMode.SCA
HORIZON = 2
TENANT = "oracle"


@pytest.fixture
def invalidations(monkeypatch):
    """Every ``Memo.invalidate`` call as (dirty set, entries evicted)."""
    calls: list[tuple[frozenset[str], int]] = []
    real = Memo.invalidate

    def record(self, changed_ops):
        dirty = frozenset(changed_ops)
        evicted = real(self, dirty)
        calls.append((dirty, evicted))
        return evicted

    monkeypatch.setattr(Memo, "invalidate", record)
    return calls


class Q7Changes:
    """The shared starting statistics and the two changes applied to them.

    ``full`` is one whole execution of Q7's rank-1 plan; ``recent`` is
    the same observation without the operator chosen to go stale; the
    local ingest is the first stage delta of a staged run of that plan,
    which is what the mid-query controller folds at its first boundary.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        pick = Optimizer(
            workload.catalog, workload.hints, SCA, workload.params
        ).optimize(workload.plan).best
        collector = ObservationCollector()
        Engine(workload.params, workload.true_costs, collector=collector).execute(
            pick.physical, workload.data
        )
        (self.full,) = collector.executions

        boundaries: list[dict] = []

        class Capture:
            def on_boundary(self, **kwargs):
                boundaries.append({**kwargs, "completed": dict(kwargs["completed"])})
                return None

        Engine(workload.params, workload.true_costs).execute_staged(
            pick.physical, workload.data, Capture()
        )
        self.boundary = boundaries[0]
        self.local = observe_stage(
            self.boundary["stage"], workload.true_costs, self.boundary["run_id"]
        )
        staged = {op.op_name for op in self.local.ops}
        self.stale = min(
            op.op_name
            for op in self.full.ops
            if op.kind != "source"
            and op.op_name not in staged
            and op.op_name != "sigma_shipdate"
        )
        self.recent = dataclasses.replace(
            self.full,
            ops=tuple(op for op in self.full.ops if op.op_name != self.stale),
            run_id=None,
            partial=True,
        )

    def seed(self, path) -> None:
        store = StatisticsStore.open(path, staleness_horizon=HORIZON)
        store.ingest(self.full)
        store.ingest(self.recent)
        store.close()

    def foreign(self, path) -> None:
        foreign_ingest(path)


def test_three_entry_points_evict_the_same_entries(
    make_server, tmp_path, invalidations
):
    workload = ALL_WORKLOADS["tpch_q7"]()
    changes = Q7Changes(workload)
    paths = {
        name: tmp_path / f"{name}.sqlite"
        for name in ("reference", "adaptive", "midquery")
    }
    paths["server"] = tmp_path / "stats" / f"{TENANT}.sqlite"
    paths["server"].parent.mkdir()
    for path in paths.values():
        changes.seed(path)

    # The reference: the union-of-names view diff and a memo warmed
    # under the starting view, invalidated with it.
    reference = StatisticsStore.open(paths["reference"])
    before = reference.estimator_view()
    optimizer = Optimizer(
        workload.catalog,
        workload.hints,
        SCA,
        workload.params,
        estimator_factory=lambda ctx, hints: FeedbackEstimator(
            ctx, hints, reference
        ),
    )
    memo = optimizer.new_memo()
    optimizer.optimize(workload.plan, memo=memo)
    changes.foreign(paths["reference"])
    reference.ingest(changes.local)
    after = reference.estimator_view()
    dirty = {
        name
        for name in before.keys() | after.keys()
        if before.get(name) != after.get(name)
    }
    evicted = memo.invalidate(dirty)
    reference.close()
    # A staleness crossing caused by an ingest that never touched the
    # operator still makes it dirty: its name leaves the view.
    assert changes.stale in before and changes.stale not in after
    assert changes.stale in dirty
    assert "sigma_shipdate" in dirty
    assert 0 < evicted

    seen: dict[str, tuple[frozenset[str], int]] = {}

    # The adaptive loop: warm, change, then one round.
    adaptive = AdaptiveOptimizer(
        workload, store=StatisticsStore.open(paths["adaptive"]), picks=1
    )
    adaptive.session.plan(workload.plan)
    changes.foreign(paths["adaptive"])
    adaptive.store.ingest(changes.local)
    invalidations.clear()
    adaptive.run(feedback_rounds=0)
    assert invalidations, "the adaptive round evicted nothing"
    seen["adaptive"] = invalidations[0]
    adaptive.store.close()

    # The mid-query controller: warm inside the run, then the boundary
    # folds the stage delta itself.
    controller = MidQueryReoptimizer(
        workload.catalog,
        workload.hints,
        SCA,
        workload.params,
        store=StatisticsStore.open(paths["midquery"]),
    )
    controller.session.plan(workload.plan)
    controller._run_id = changes.boundary["run_id"]
    changes.foreign(paths["midquery"])
    invalidations.clear()
    controller.on_boundary(**changes.boundary)
    assert invalidations, "the boundary evicted nothing"
    seen["midquery"] = invalidations[0]
    controller.store.close()

    # A server tenant: a miss warms its memo, the next request re-plans.
    server = make_server(
        ServerConfig(
            reopt_interval=0, stats_dir=paths["server"].parent, search="eager"
        )
    )
    with server.connect() as client:
        assert client.plan("tpch_q7", tenant=TENANT)["cache"] == "miss"
        changes.foreign(paths["server"])
        other = StatisticsStore.open(paths["server"])
        other.ingest(changes.local)
        other.close()
        invalidations.clear()
        assert client.plan("tpch_q7", tenant=TENANT)["cache"] == "miss"
    assert invalidations, "the server tenant evicted nothing"
    seen["server"] = invalidations[0]

    for entry_point, got in seen.items():
        assert got == (frozenset(dirty), evicted), entry_point
