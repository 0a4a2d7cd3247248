"""Guided (group-memo) planning: parity with eager, ties, accounting.

``Optimizer(search="guided")`` explores and costs cells of equivalent
sub-flows and extracts the top-``k`` trees from the root cells.
Everything here pins the contract that makes the strategy usable as a
drop-in serving path (the frozen rankings of the nine reference spaces
are in ``test_ranking_fixtures.py``, the memo-is-the-closure property in
``test_group_memo.py``):

* The guided top-``k`` is *bit-identical* to the eager ranking's prefix
  — same plan bodies (object identity: plans are interned), same exact
  float costs, same physical trees — across all four paper workloads,
  under random hint perturbations (hypothesis), and again after a
  dirty-spine ``Memo.invalidate`` + re-plan.
* Float-equal costs are ranked by a key read from the tree alone
  (``tie_key``), computed only when such a tie sits in the answer.
* The work counters (:class:`~repro.optimizer.optimizer.SearchStats`)
  account for the whole space while only ``k`` trees are ranked.
* Configuration errors (bad ``search`` / ``top_k``, guided
  under feedback) raise subclasses of ``ValueError``
  so callers can catch them without importing repro error types.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnnotationMode,
    EmitBounds,
    FieldMap,
    FieldSet,
    MapOp,
    Source,
    UdfProperties,
    attrs,
    chain,
    map_udf,
)
from repro.core.errors import (
    OptimizationConfigError,
    OptimizationError,
)
from repro.core.plan import body as plan_body, iter_nodes, linearize
from repro.core.operators import UdfOperator
from repro.bench.harness import run_experiment
from repro.cli import main
from repro.feedback import StatisticsStore
from repro.optimizer import Hints, Optimizer
from tests.conftest import identity_udf, simple_catalog
from tests.optimizer.spaces import SPACE_NAMES, entry, space
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


def assert_prefix_identical(guided, eager, k):
    """Guided's ranking must be the eager ranking's first ``k`` plans."""
    want = eager.ranked[:k]
    assert len(guided.ranked) == len(want)
    for g, w in zip(guided.ranked, want):
        assert g.rank == w.rank
        assert g.body is w.body  # interned plans: identity == structure
        assert g.cost == w.cost  # exact float equality
        assert g.physical.describe() == w.physical.describe()


def optimize_both(workload, k, hints=None, mode=AnnotationMode.SCA):
    hints = workload.hints if hints is None else hints
    eager = Optimizer(
        workload.catalog, hints, mode, workload.params
    ).optimize(workload.plan)
    guided = Optimizer(
        workload.catalog, hints, mode, workload.params,
        search="guided", top_k=k,
    ).optimize(workload.plan)
    return guided, eager


# -- parity ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("k", [1, 5])
def test_guided_matches_eager_prefix(name, k):
    workload = WORKLOADS[name]
    guided, eager = optimize_both(workload, k)
    assert_prefix_identical(guided, eager, k)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_guided_matches_eager_manual_mode(name):
    workload = WORKLOADS[name]
    guided, eager = optimize_both(workload, 3, mode=AnnotationMode.MANUAL)
    assert_prefix_identical(guided, eager, 3)


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
def perturbed_cases(draw):
    """A workload, a hint perturbation for 1-3 of its UDFs, and a k."""
    name = draw(st.sampled_from(sorted(WORKLOADS)))
    ops = udf_op_names(WORKLOADS[name])
    changes = draw(
        st.dictionaries(st.sampled_from(ops), hint_values, min_size=1, max_size=3)
    )
    k = draw(st.integers(min_value=1, max_value=4))
    return name, changes, k


@given(perturbed_cases())
@settings(max_examples=25, deadline=None)
def test_guided_parity_under_random_hint_perturbations(case):
    """The admissibility of the bound is hint-independent: whatever the
    selectivities/CPU weights/key counts say, guided returns exactly the
    eager prefix — and keeps doing so after a dirty-spine invalidation
    re-search over the same memo."""
    name, changes, k = case
    workload = WORKLOADS[name]
    hints = {**workload.hints, **changes}
    guided_opt = Optimizer(
        workload.catalog, hints, AnnotationMode.SCA, workload.params,
        search="guided", top_k=k,
    )
    memo = guided_opt.new_memo()
    guided = guided_opt.optimize(workload.plan, memo=memo)
    eager = Optimizer(
        workload.catalog, hints, AnnotationMode.SCA, workload.params
    ).optimize(workload.plan)
    assert_prefix_identical(guided, eager, k)

    # A second perturbation re-searched over the invalidated memo must
    # again match an eager rebuild under the new hints exactly.
    more = {op: Hints(selectivity=1.3, cpu_per_call=2.0) for op in changes}
    hints2 = {**hints, **more}
    guided_opt.hints = hints2
    memo.invalidate(set(more))
    re_guided = guided_opt.optimize(workload.plan, memo=memo)
    re_eager = Optimizer(
        workload.catalog, hints2, AnnotationMode.SCA, workload.params
    ).optimize(workload.plan)
    assert_prefix_identical(re_guided, re_eager, k)


round_hints = st.builds(
    Hints,
    selectivity=st.sampled_from([None, 0.25, 0.5, 1.0, 2.0]),
    cpu_per_call=st.sampled_from([0.0, 1.0, 2.0, 5.0]),
    distinct_keys=st.sampled_from([None, 1, 10, 16, 1000]),
)


@given(
    st.sampled_from([AnnotationMode.SCA, AnnotationMode.MANUAL]),
    st.fixed_dictionaries(
        {}, optional={op: round_hints for op in udf_op_names(WORKLOADS["tpch_q7"])}
    ),
)
@settings(max_examples=60, deadline=None)
def test_guided_rank_one_parity_under_round_hints(mode, changes):
    """Round hint values on every Q7 operator make near-equal subtree costs
    common: ``top_k=1`` keeps one tree per bucket, where a subtree one ulp
    dearer than the kept one is most easily lost."""
    workload = WORKLOADS["tpch_q7"]
    hints = {**workload.hints, **changes}
    guided, eager = optimize_both(workload, 1, hints, mode)
    assert_prefix_identical(guided, eager, 1)


#: Found by random search: under these hints two Q7 sub-flows cost one ulp
#: apart and round to float-equal plans once the enclosing costs are added;
#: eager ranks the one discovered first, whose subtree a one-tree bucket drops.
ROUNDING_TIE_HINTS = {
    "sigma_shipdate": Hints(selectivity=1.0, cpu_per_call=1.0),
    "join_l_s": Hints(selectivity=2.0, cpu_per_call=0.0, distinct_keys=1000),
    "join_l_o": Hints(selectivity=1.0, cpu_per_call=2.0),
    "join_o_c": Hints(selectivity=0.25, cpu_per_call=5.0),
    "join_c_n1": Hints(cpu_per_call=1.0),
    "join_s_n2": Hints(selectivity=2.0, cpu_per_call=2.0, distinct_keys=10),
    "sigma_nation_pair": Hints(selectivity=1.0, cpu_per_call=0.0),
    "gamma_revenue": Hints(cpu_per_call=2.0, distinct_keys=16),
}


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_tree_tying_only_after_rounding_is_not_lost(k):
    workload = WORKLOADS["tpch_q7"]
    args = (
        workload.catalog, ROUNDING_TIE_HINTS, AnnotationMode.MANUAL, workload.params
    )
    eager = Optimizer(*args).optimize(workload.plan)
    assert eager.ranked[0].cost == eager.ranked[1].cost
    guided_opt = Optimizer(*args, search="guided", top_k=k)
    memo = guided_opt.new_memo()
    guided = guided_opt.optimize(workload.plan, memo=memo)
    assert_prefix_identical(guided, eager, k)
    # One tree per bucket cannot see the tie: the tables' left-out cost
    # reaches rank 1 and the search widens them; from k = 2 both are kept.
    roots = memo.explore(plan_body(workload.plan), guided_opt.ctx)
    assert {memo.cell_width[cell] for cell in roots} == {max(k, 2)}


@pytest.mark.parametrize("seed", [5, 7])
def test_three_way_tie_at_rank_one_on_scaled_q7(seed):
    """The perf ledger's ``q7_job`` data at these seeds: the three cheapest
    plans are float-equal, and the job must run the one eager ranks first
    (the per-tree bound search this replaced ran eager's rank 3)."""
    workload = build_q7(scale_factor=10, seed=seed)
    guided, eager = optimize_both(workload, 1)
    assert eager.ranked[0].cost == eager.ranked[2].cost
    assert_prefix_identical(guided, eager, 1)


def test_guided_top_k_beyond_space_returns_full_ranking():
    workload = WORKLOADS["textmining"]
    eager = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params
    ).optimize(workload.plan)
    space = eager.plan_count
    guided = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params,
        search="guided", top_k=space + 10,
    ).optimize(workload.plan)
    assert_prefix_identical(guided, eager, space)


# -- float-equal costs: the canonical tie key -------------------------------


def filter_chain(hints_by_name):
    """Filters over one source that all commute (each reads its own field)."""
    fields = attrs(*(f"t.f{i}" for i in range(len(hints_by_name))))
    catalog = simple_catalog(("T", 1_000_000))
    ops = []
    for position, name in enumerate(hints_by_name):
        props = UdfProperties(
            reads=FieldSet.of((0, position)),
            branch_reads=FieldSet.of((0, position)),
            emit_bounds=EmitBounds.at_most_one(),
        )
        ops.append(MapOp(name, map_udf(identity_udf, props), FieldMap(fields)))
    return chain(Source("T", fields), *ops), catalog


TWIN = Hints(selectivity=0.5, cpu_per_call=1.0)
TIED_FLOWS = {
    # Two trees, float-equal: the tie sits at rank 1.
    "twins": {"a": TWIN, "b": TWIN},
    # Six trees in three float-equal pairs: ranks (1,2), (3,4), (5,6) —
    # a tie inside the answer and one straddling rank k for k = 1, 3.
    "twins_and_one": {
        "a": TWIN, "b": TWIN, "c": Hints(selectivity=0.2, cpu_per_call=2.0),
    },
}


#: Bottom-up operator order of each tied flow's ranking.
CANONICAL_ORDERS = {
    "twins": [("a", "b"), ("b", "a")],
    "twins_and_one": [
        ("a", "b", "c"), ("b", "a", "c"), ("a", "c", "b"),
        ("b", "c", "a"), ("c", "a", "b"), ("c", "b", "a"),
    ],
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(TIED_FLOWS))
def test_float_equal_costs_rank_in_canonical_order(name, k):
    """Float-equal trees rank by ``(linearize, signature_key)``, whatever
    order the memo listed them in; guided ranks them alike."""
    hints = TIED_FLOWS[name]
    flow, catalog = filter_chain(hints)
    eager = Optimizer(catalog, hints, AnnotationMode.MANUAL).optimize(flow)
    costs = [p.cost for p in eager.ranked]
    assert costs[0] == costs[1]  # the tie is real
    if len(costs) > 2:
        assert costs[2] == costs[3] != costs[1]
    assert [linearize(p.body) for p in eager.ranked] == CANONICAL_ORDERS[name]
    guided = Optimizer(
        catalog, hints, AnnotationMode.MANUAL, search="guided", top_k=k
    ).optimize(flow)
    assert_prefix_identical(guided, eager, k)


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_no_tie_key_is_computed_without_a_tie(name, monkeypatch):
    """No float-equal costs at the top of the nine reference spaces: guided
    must rank them without computing a single tie key."""

    def no_tie(tree):
        raise AssertionError("guided computed a tie key without a tie")

    monkeypatch.setattr("repro.optimizer.optimizer.tie_key", no_tie)
    sp = space(name)
    result = sp.optimizer(search="guided", top_k=3).optimize(sp.plan)
    assert len({p.cost for p in result.ranked}) == len(result.ranked)


# -- work accounting -------------------------------------------------------


def test_guided_search_stats_prove_pruning():
    workload = WORKLOADS["tpch_q7"]
    args = (workload.catalog, workload.hints, AnnotationMode.SCA, workload.params)
    eager_opt = Optimizer(*args)
    eager_memo = eager_opt.new_memo()
    eager = eager_opt.optimize(workload.plan, memo=eager_memo)
    guided_opt = Optimizer(*args, search="guided", top_k=1)
    guided_memo = guided_opt.new_memo()
    guided = guided_opt.optimize(workload.plan, memo=guided_memo)
    gs, es = guided.search_stats, eager.search_stats
    assert gs.search == "guided" and es.search == "eager"
    # Same space covered, but guided planned a single tree of it.
    assert gs.expanded == es.expanded == eager.plan_count
    assert gs.costed == 1
    assert gs.costed + gs.pruned == gs.expanded
    assert es.costed == es.expanded and es.pruned == 0
    # Both cost one option table per cell (37, against the 1,417 distinct
    # sub-plans a tree-level search costs) with one estimate per bucket
    # head; guided keeps its tables one tree wide, eager the whole space.
    cells = sum(len(c) for c in guided_memo.classes.values())
    assert gs.bounds_computed == es.bounds_computed == cells == 37
    assert gs.estimate_calls == es.estimate_calls == 89
    assert set(guided_memo.cell_width.values()) == {1}
    assert set(eager_memo.cell_width.values()) == {eager.plan_count}
    # A re-plan over the surviving memo computes nothing again.
    again = guided_opt.optimize(workload.plan, memo=guided_memo).search_stats
    assert again.bounds_computed == 0 and again.expanded == gs.expanded


def test_search_stats_exported_as_counters():
    from repro.obs import Tracer

    workload = WORKLOADS["textmining"]
    tracer = Tracer()
    Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params,
        search="guided", top_k=1, tracer=tracer,
    ).optimize(workload.plan)
    counters = tracer.metrics.counters
    for name in (
        "optimizer.search.expanded",
        "optimizer.search.costed",
        "optimizer.search.pruned",
        "optimizer.search.bounds",
        "optimizer.estimates",
    ):
        assert name in counters, name
    assert counters["optimizer.search.expanded"] == (
        counters["optimizer.search.costed"]
        + counters["optimizer.search.pruned"]
    )


def test_enumerate_span_reports_the_memo_counts():
    """The enumerate span carries the memo's cells, expressions and rule
    firings; the counter adds each plan's firings (none when warm); and
    tracing leaves the plans bit-identical."""
    from repro.obs import Tracer

    sp = space("stress")
    tracer = Tracer()
    optimizer = sp.optimizer(search="guided", top_k=1, tracer=tracer)
    memo = optimizer.new_memo()
    traced = optimizer.optimize(sp.plan, memo=memo)
    (span,) = [s for s in tracer.spans if s.name == "optimizer.enumerate"]
    cells = sum(map(len, memo.classes.values()))
    assert span.attrs == {
        "alternatives": 6864, "cells": cells, "exprs": len(memo.exprs),
        "fired": memo.fired,
    }
    assert (cells, len(memo.exprs), memo.fired) == (60, 208, 907)
    assert tracer.metrics.counters["optimizer.explore.fired"] == 907
    optimizer.optimize(sp.plan, memo=memo)
    assert tracer.metrics.counters["optimizer.explore.fired"] == 907
    plain = sp.optimizer(search="guided", top_k=1).optimize(sp.plan)
    assert [entry(p) for p in traced.ranked] == [entry(p) for p in plain.ranked]


# -- configuration errors --------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"search": "bestfirst"},
        {"top_k": 0},
        {"top_k": -3},
        {"top_k": 1.5},
        {"top_k": True},
        {"top_k": "3"},
        {"search": None},
    ],
)
def test_search_and_top_k_validation(kwargs):
    workload = WORKLOADS["textmining"]
    with pytest.raises(OptimizationConfigError) as raised:
        Optimizer(
            workload.catalog, workload.hints, AnnotationMode.SCA,
            workload.params, **kwargs,
        )
    # a ValueError, and still catchable as the subsystem error
    assert isinstance(raised.value, ValueError)
    assert isinstance(raised.value, OptimizationError)


@pytest.mark.parametrize(
    "option",
    [
        {"jobs": 2},
        {"max_alternatives": 40},
        {"sample_seed": 7},
        {"reuse_memo": False},
    ],
    ids=lambda option: next(iter(option)),
)
def test_removed_planner_options_are_rejected(option):
    """Eager and guided are the only planner paths: the costing pool,
    plan-space sampling and the unmemoized path are gone, and a caller
    still passing their options fails loudly instead of being ignored."""
    workload = WORKLOADS["textmining"]
    with pytest.raises(TypeError, match=next(iter(option))):
        Optimizer(
            workload.catalog, workload.hints, AnnotationMode.SCA,
            workload.params, **option,
        )


def test_guided_is_rejected_under_feedback_experiments():
    workload = WORKLOADS["textmining"]
    with pytest.raises(OptimizationConfigError, match="feedback"):
        run_experiment(workload, feedback_rounds=1, search="guided")
    # the config error is a ValueError too
    with pytest.raises(ValueError):
        run_experiment(workload, feedback_rounds=1, search="guided")


@pytest.mark.parametrize(
    "store", [{"feedback_rounds": 1}, {"stats_store": StatisticsStore()}], ids=["rounds", "store"]
)
def test_top_k_is_rejected_under_feedback_experiments(store):
    """Feedback rounds rank every plan: a ``top_k`` would be ignored, so it
    is refused like guided search instead of returning the whole space."""
    workload = WORKLOADS["textmining"]
    with pytest.raises(OptimizationConfigError, match="top_k"):
        run_experiment(workload, top_k=2, **store)


def test_cli_refuses_top_k_under_feedback_rounds(capsys):
    argv = ["experiment", "textmining", "--feedback-rounds", "1", "--top-k", "2"]
    assert main(argv) == 1
    assert "top_k" in capsys.readouterr().err


def test_guided_runs_through_the_harness():
    workload = WORKLOADS["clickstream"]
    guided = run_experiment(workload, search="guided", top_k=2)
    eager = run_experiment(workload)
    assert guided.plan_count == 2
    got = [(p.rank, p.estimated_cost) for p in guided.executed]
    want = [
        (p.rank, p.cost) for p in eager.optimization.ranked[:2]
    ]
    assert got == want
