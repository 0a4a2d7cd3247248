"""Property test: dirty-spine re-costing is bit-identical to a rebuild.

For random single- and multi-hint changes on all four paper workloads,
re-optimizing over an invalidated memo must produce estimates, costs,
and rankings exactly equal to a full from-scratch rebuild under the same
hints — including across *sequences* of changes applied to one memo.
This is the invariant the whole incremental subsystem rests on: an
estimate (and hence a cost) depends only on the operators inside a
node's subtree, so evicting every entry whose subtree contains a changed
operator makes the surviving entries exact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnnotationMode
from repro.core.operators import Source, UdfOperator
from repro.core.plan import body as plan_body, iter_nodes, signature
from repro.optimizer import Hints, Optimizer
from repro.workloads import (
    build_clickstream,
    build_q7,
    build_q15,
    build_textmining,
)

WORKLOADS = {
    "tpch_q15": build_q15(),
    "clickstream": build_clickstream(),
    "textmining": build_textmining(),
    "tpch_q7": build_q7(),
}


def udf_op_names(workload):
    return sorted(
        n.op.name
        for n in iter_nodes(plan_body(workload.plan))
        if isinstance(n.op, UdfOperator)
    )


hint_values = st.builds(
    Hints,
    selectivity=st.one_of(
        st.none(), st.floats(min_value=0.01, max_value=3.0, allow_nan=False)
    ),
    cpu_per_call=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    distinct_keys=st.one_of(st.none(), st.integers(min_value=1, max_value=10_000)),
)


@st.composite
def change_sequences(draw):
    """A workload plus 1-3 successive hint-change steps (1-3 ops each)."""
    name = draw(st.sampled_from(sorted(WORKLOADS)))
    ops = udf_op_names(WORKLOADS[name])
    steps = draw(
        st.lists(
            st.dictionaries(
                st.sampled_from(ops), hint_values, min_size=1, max_size=3
            ),
            min_size=1,
            max_size=3,
        )
    )
    return name, steps


def assert_identical(got, want, estimator_got, estimator_want):
    assert got.plan_count == want.plan_count
    for g, w in zip(got.ranked, want.ranked):
        assert g.rank == w.rank
        assert signature(g.body) == signature(w.body)
        assert g.cost == w.cost  # exact float equality
        # describe() covers ships, locals, build sides, per-node row
        # estimates and cumulative costs of the whole tree.
        assert g.physical.describe() == w.physical.describe()
    # estimates agree node-for-node on the best plan's body (exact)
    for node in iter_nodes(got.best.body):
        if isinstance(node.op, Source):
            continue
        g = estimator_got.estimate(node)
        w = estimator_want.estimate(node)
        assert (g.rows, g.width, g.calls) == (w.rows, w.width, w.calls)


@given(change_sequences())
@settings(max_examples=12, deadline=None)
def test_invalidation_parity_under_random_hint_changes(case):
    name, steps = case
    workload = WORKLOADS[name]
    optimizer = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params
    )
    memo = optimizer.new_memo()
    optimizer.optimize(workload.plan, memo=memo)
    hints = dict(workload.hints)
    for step in steps:
        hints = {**hints, **step}
        optimizer.hints = hints
        memo.invalidate(set(step))
        incremental = optimizer.optimize(workload.plan, memo=memo)
        incremental_estimator = optimizer.last_estimator
        reference = Optimizer(
            workload.catalog, hints, AnnotationMode.SCA, workload.params
        )
        full = reference.optimize(workload.plan)
        assert_identical(
            incremental, full, incremental_estimator, reference.last_estimator
        )
