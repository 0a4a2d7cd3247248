"""Guided planning under pinned observations.

``FeedbackEstimator`` pins the estimate of a sub-flow whose exact
signature was executed.  The group memo keeps such trees in option
buckets of their own (``CardinalityEstimator.observed``) and relies on
observations being *subtree-closed*: whenever a tree is pinned, so are
its UDF-rooted inputs.  Pinned here:

* closedness, after whole-execution ingests and at every mid-query
  boundary flush;
* guided top-k equals eager's prefix under a store holding rank-1,
  median and last-rank executions;
* the job loop — plan, execute, ingest, estimator-view diff, invalidate,
  re-plan — equals a cold rebuild over the same store;
* a store edited so that it is no longer closed is refused, not costed
  wrongly (the tree-level reference still ranks it).
"""

import pytest

from repro.core import AnnotationMode
from repro.core.errors import OptimizationError
from repro.core.operators import UdfOperator
from repro.core.plan import body as plan_body, iter_nodes, resolved_signature_key
from repro.engine import Engine
from repro.feedback import (
    FeedbackEstimator,
    MidQueryReoptimizer,
    ObservationCollector,
    StatisticsStore,
)
from repro.optimizer import Optimizer, PlanContext
from repro.workloads import build_clickstream, build_q7, build_textmining
from tests.optimizer.closure import iter_flows
from tests.optimizer.tree_costing import ranking

BUILDERS = {
    "tpch_q7": build_q7,
    "clickstream": build_clickstream,
    "textmining": build_textmining,
}


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def workload(request):
    return BUILDERS[request.param]()


def optimizer_over(workload, store, **kwargs):
    return Optimizer(
        workload.catalog,
        workload.hints,
        AnnotationMode.SCA,
        workload.params,
        estimator_factory=lambda ctx, hints: FeedbackEstimator(ctx, hints, store),
        **kwargs,
    )


def execute_and_ingest(workload, store, plans):
    collector = ObservationCollector()
    engine = Engine(workload.params, workload.true_costs, collector=collector)
    for plan in plans:
        engine.execute(plan.physical, workload.data)
    for execution in collector.executions:
        store.ingest(execution)


@pytest.fixture(scope="module")
def learned(workload):
    """A store holding the rank-1, median and last-rank executions."""
    store = StatisticsStore()
    ranked = optimizer_over(workload, store).optimize(workload.plan).ranked
    picks = [ranked[0], ranked[len(ranked) // 2], ranked[-1]]
    execute_and_ingest(workload, store, picks)
    return store


def assert_subtree_closed(workload, store):
    """No pinned tree of the plan space has an unpinned UDF-rooted input."""
    optimizer = optimizer_over(workload, store)
    estimator = FeedbackEstimator(optimizer.ctx, workload.hints, store)
    seen, pinned = set(), 0
    stack = list(iter_flows(plan_body(workload.plan), optimizer.ctx))
    while stack:
        tree = stack.pop()
        if tree in seen:
            continue
        seen.add(tree)
        stack.extend(tree.children)
        if estimator.observed(tree):
            pinned += 1
            for child in tree.children:
                if isinstance(child.op, UdfOperator):
                    assert estimator.observed(child), (tree, child)
    return pinned


def test_observations_are_subtree_closed_after_ingest(workload, learned):
    assert assert_subtree_closed(workload, learned) > 0


def test_observations_are_subtree_closed_at_every_boundary_flush(workload):
    store = StatisticsStore()
    pick = optimizer_over(workload, store).optimize(workload.plan).best
    boundaries = []

    class Checking(MidQueryReoptimizer):
        def on_boundary(self, *args, **kwargs):
            switch = super().on_boundary(*args, **kwargs)
            boundaries.append(assert_subtree_closed(workload, store))
            return switch

    controller = Checking(
        workload.catalog,
        workload.hints,
        AnnotationMode.SCA,
        workload.params,
        store=store,
    )
    engine = Engine(
        workload.params, workload.true_costs, collector=ObservationCollector()
    )
    engine.execute_staged(pick.physical, workload.data, controller)
    if not boundaries:
        pytest.skip("the pick runs as one pipeline stage: no boundary fires")
    assert boundaries[-1] > 0


@pytest.mark.parametrize("k", [1, 3, 10])
def test_guided_equals_eager_under_pinned_observations(workload, learned, k):
    eager = optimizer_over(workload, learned).optimize(workload.plan)
    guided = optimizer_over(workload, learned, search="guided", top_k=k)
    result = guided.optimize(workload.plan)
    want = eager.ranked[:k]
    assert [(p.body, p.cost) for p in result.ranked] == [
        (p.body, p.cost) for p in want
    ]
    assert [p.physical.describe() for p in result.ranked] == [
        p.physical.describe() for p in want
    ]
    assert result.search_stats.expanded == eager.plan_count


def test_replan_after_ingest_equals_a_cold_rebuild(workload):
    """The ledger's job loop, in process."""
    store = StatisticsStore()
    view = store.estimator_view()
    optimizer = optimizer_over(workload, store, search="guided", top_k=3)
    memo = optimizer.new_memo()
    cold = optimizer.optimize(workload.plan, memo=memo)
    execute_and_ingest(workload, store, [cold.best])
    learned_view = store.estimator_view()
    dirty = {
        name
        for name in view.keys() | learned_view.keys()
        if view.get(name) != learned_view.get(name)
    }
    assert dirty
    assert memo.invalidate(dirty) > 0
    again = optimizer.optimize(workload.plan, memo=memo)
    rebuilt = optimizer_over(workload, store, search="guided", top_k=3).optimize(
        workload.plan
    )
    eager = optimizer_over(workload, store).optimize(workload.plan)
    for result in (again, rebuilt):
        assert [(p.body, p.cost, p.physical.describe()) for p in result.ranked] == [
            (p.body, p.cost, p.physical.describe()) for p in eager.ranked[:3]
        ]
    # Surviving cell tables were reused, not recomputed.
    assert (
        again.search_stats.bounds_computed
        <= rebuilt.search_stats.bounds_computed
    )


def test_store_that_is_not_subtree_closed_fails_loudly():
    """Forget the observation of a bottom-most UDF while the sub-flows above
    it stay pinned: the cell tables would cost unpinned siblings from a
    pinned estimate, so planning refuses instead, whatever the search."""
    workload = build_q7()
    store = StatisticsStore()
    best = optimizer_over(workload, store).optimize(workload.plan).best
    execute_and_ingest(workload, store, [best])
    estimator = FeedbackEstimator(PlanContext(workload.catalog), workload.hints, store)
    bottom = next(
        tree
        for tree in iter_nodes(best.body)
        if estimator.observed(tree)
        and not any(isinstance(c.op, UdfOperator) for c in tree.children)
    )
    del store.nodes[resolved_signature_key(bottom)]
    for kwargs in ({"search": "guided", "top_k": 1}, {}):
        with pytest.raises(OptimizationError, match="not subtree-closed"):
            optimizer_over(workload, store, **kwargs).optimize(workload.plan)
    # The tree-at-a-time reference makes no such assumption.
    ctx = PlanContext(workload.catalog, AnnotationMode.SCA)
    estimator = FeedbackEstimator(ctx, workload.hints, store)
    assert ranking(plan_body(workload.plan), ctx, estimator, workload.params)
