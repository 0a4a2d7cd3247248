"""Stores built by ingesting executions are subtree-closed.

The optimizer costs every tree of a cell table's bucket from the bucket
head's estimate, so a statistics store may pin a sub-flow only together
with its UDF-rooted inputs: every fresh observation of a UDF sub-flow
has fresh observations of its UDF children.  Planning refuses a store
that is not closed, whatever the search (``test_group_memo_pins.py``).
Pinned here over the ways executions reach a store: adaptive feedback
rounds, a mid-query run that switches plans, a second handle's sqlite
``sync()``, each also under a staleness horizon of one ingest; and a
collector that skips one operator is caught.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import AnnotationMode
from repro.core.operators import UdfOperator
from repro.core.plan import (
    Node,
    body as plan_body,
    iter_nodes,
    resolved_signature_key,
)
from repro.engine import Engine
from repro.feedback import AdaptiveOptimizer, ObservationCollector, StatisticsStore
from repro.feedback.midquery import run_midquery
from repro.optimizer import Optimizer, PlanContext
from tests.feedback.test_adaptive import SMALL_BUILDERS
from tests.feedback.test_midquery import mis_hinted
from tests.optimizer.closure import iter_flows

HORIZONS = [None, 1]
NAMES = ["tpch_q7", "clickstream", "textmining"]


def sub_flows(workload) -> dict[str, Node]:
    """Every sub-flow of the plan space, by its observation key."""
    ctx = PlanContext(workload.catalog, AnnotationMode.SCA)
    found: dict[str, Node] = {}
    stack = list(iter_flows(plan_body(workload.plan), ctx))
    while stack:
        tree = stack.pop()
        key = resolved_signature_key(tree)
        if key not in found:
            found[key] = tree
            stack.extend(tree.children)
    return found


def assert_subtree_closed(store: StatisticsStore, workload) -> int:
    """Every fresh UDF observation has fresh ones of its UDF children;
    returns how many fresh observations there are."""
    trees = sub_flows(workload)
    fresh = [key for key in store.nodes if store.node_stats(key) is not None]
    for key in fresh:
        for child in trees[key].children:
            if isinstance(child.op, UdfOperator):
                child_key = resolved_signature_key(child)
                assert store.node_stats(child_key) is not None, (key, child_key)
    return len(fresh)


@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("name", NAMES)
def test_adaptive_rounds_keep_the_store_closed(name, horizon):
    workload = SMALL_BUILDERS[name]()
    store = StatisticsStore(staleness_horizon=horizon)
    AdaptiveOptimizer(workload, store=store, picks=3).run(feedback_rounds=2)
    assert assert_subtree_closed(store, workload) > 0


@pytest.mark.parametrize("horizon", HORIZONS)
def test_a_switched_midquery_run_keeps_the_store_closed(horizon):
    workload, hints = mis_hinted()
    store = StatisticsStore(staleness_horizon=horizon)
    experiment = run_midquery(
        workload, hints=hints, store=store, switch_threshold=0.0
    )
    assert any(decision.switched for decision in experiment.decisions)
    assert assert_subtree_closed(store, workload) > 0


@pytest.mark.parametrize("horizon", HORIZONS)
def test_a_synced_handle_sees_a_closed_store(tmp_path, horizon):
    workload = SMALL_BUILDERS["tpch_q7"]()
    path = tmp_path / "stats.sqlite"
    writer = StatisticsStore.open(path, staleness_horizon=horizon)
    reader = StatisticsStore.open(path)
    try:
        AdaptiveOptimizer(workload, store=writer, picks=3).run(feedback_rounds=1)
        assert reader.sync()
        assert reader.staleness_horizon == horizon
        assert assert_subtree_closed(reader, workload) > 0
    finally:
        writer.close()
        reader.close()


class SkippingCollector(ObservationCollector):
    """Drops one operator's observation from every execution."""

    def __init__(self, skipped: str) -> None:
        super().__init__()
        self.skipped = skipped

    def observe_execution(self, *args, **kwargs):
        observation = super().observe_execution(*args, **kwargs)
        kept = tuple(op for op in observation.ops if op.op_name != self.skipped)
        self.executions[-1] = dataclasses.replace(observation, ops=kept)
        return self.executions[-1]


def test_a_collector_that_skips_an_operator_is_caught():
    workload = SMALL_BUILDERS["tpch_q7"]()
    pick = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params
    ).optimize(workload.plan).best
    # A UDF whose consumer is a UDF too: its observation is what the
    # consumer's pinned estimate needs beside it.
    skipped = next(
        child.op.name
        for node in iter_nodes(pick.body)
        if isinstance(node.op, UdfOperator)
        for child in node.children
        if isinstance(child.op, UdfOperator)
    )
    for collector in (ObservationCollector(), SkippingCollector(skipped)):
        store = StatisticsStore()
        engine = Engine(workload.params, workload.true_costs, collector=collector)
        engine.execute(pick.physical, workload.data)
        for execution in collector.executions:
            store.ingest(execution)
        if isinstance(collector, SkippingCollector):
            with pytest.raises(AssertionError):
                assert_subtree_closed(store, workload)
        else:
            assert assert_subtree_closed(store, workload) > 0
