"""Options keep only the partitionings an operator above could reuse.

A partitioning component ``p`` of a sub-flow's output is *interesting*
when some keyed operator outside the sub-flow — a Reduce key, a Match or
CoGroup left or right key — has a key set ``K`` with ``p <= K``: only
then can it turn a ship into a forward.  Buckets, prunes and built plans
drop every other component.  Pinned here:

* the pruning is exact: every plan equals, in signature, ``float.hex``
  cost and ``describe()``, the plan of an unpruned reference (the filter
  replaced by the identity inside this test) — on the nine reference
  spaces, eager in full and guided top-k, and on generated flows with a
  second Match whose key reuses the lower join's key;
* the key set is the memo's, not the call's: a flow that brings a new
  keyed operator onto a memo plans as on a fresh memo;
* the saving, as counts of a cold guided top-1 plan.
"""

from unittest import mock

import pytest
from hypothesis import given, settings

from repro.core import (
    AnnotationMode,
    Catalog,
    FieldMap,
    MatchOp,
    ReduceOp,
    Source,
    SourceStats,
    attrs,
    binary_udf,
    node,
    reduce_udf,
)
from repro.core.plan import signature_key
from repro.optimizer import Memo, Optimizer
from repro.optimizer.physical import Ship, ShipKind
from repro.workloads import build_q7
from tests.conftest import concat_udf
from tests.optimizer.spaces import SPACE_NAMES, space
from tests.optimizer.test_group_memo import join_flows

TOP_KS = (1, 3, 10)


class _Everything(dict):
    """The identity filter: every component is kept."""

    def __missing__(self, parts):
        return parts


def unpruned(call):
    """``call()`` with the interesting filter turned into the identity."""
    with mock.patch.object(Memo, "interesting", lambda self, names: _Everything()):
        return call()


def plans(result):
    return [
        (signature_key(p.body), p.cost.hex(), p.physical.describe())
        for p in result.ranked
    ]


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_eager_ranking_equals_the_unpruned_reference(name):
    sp = space(name)
    pruned = plans(sp.optimizer().optimize(sp.plan))
    assert pruned == unpruned(lambda: plans(sp.optimizer().optimize(sp.plan)))


@pytest.mark.parametrize("k", TOP_KS)
@pytest.mark.parametrize("name", SPACE_NAMES)
def test_guided_prefix_equals_the_unpruned_reference(name, k):
    sp = space(name)

    def guided():
        return plans(sp.optimizer(search="guided", top_k=k).optimize(sp.plan))

    assert guided() == unpruned(guided)


@settings(max_examples=60, deadline=None)
@given(case=join_flows(chained=True))
def test_generated_flows_equal_the_unpruned_reference(case):
    flow, catalog = case

    def run():
        eager = Optimizer(catalog).optimize(flow)
        guided = Optimizer(catalog, search="guided", top_k=3).optimize(flow)
        return plans(eager), plans(guided)

    assert run() == unpruned(run)


# -- the memo's key set -----------------------------------------------------

T = attrs("t.k", "t.v")
D = attrs("d.k", "d.v")


def total(records, out):
    s = 0
    for r in records:
        s = s + r.get_field(1)
    o = records[0].copy()
    o.set_field(1, s)
    out.emit(o)


def joined_and_grouped():
    """``A = Match(T, D)`` on ``t.k = d.k``, and a Reduce on ``t.k`` over
    it that reuses A's repartitioned output: two large inputs make the
    repartition join A's cheapest plan, yet leave no operator above A
    inside A's own flow."""
    catalog = Catalog()
    catalog.add_source("T", SourceStats(200_000, distinct={T[0]: 1000}))
    catalog.add_source("D", SourceStats(100_000, distinct={D[0]: 1000}))
    match = MatchOp(
        "join", binary_udf(concat_udf), FieldMap(T), FieldMap(D), (0,), (0,)
    )
    a = node(match, node(Source("T", T)), node(Source("D", D)))
    grouped = node(ReduceOp("agg", reduce_udf(total), FieldMap(T + D), (0,)), a)
    return catalog, a, grouped


@pytest.mark.parametrize("search", ["eager", "guided"])
def test_a_new_keyed_operator_plans_as_on_a_fresh_memo(search):
    catalog, a, grouped = joined_and_grouped()
    optimizer = Optimizer(catalog, search=search, top_k=3)
    fresh = optimizer.optimize(grouped)
    # The Reduce forwards A's partitioning: the reuse the test is about.
    top = fresh.best.physical
    assert top.name == "agg" and top.ships == (Ship(ShipKind.FORWARD),)
    memo = optimizer.new_memo()
    optimizer.optimize(a, memo=memo)
    assert memo.keys.keys() == {"join"}
    shared = optimizer.optimize(grouped, memo=memo)
    assert memo.keys.keys() == {"join", "agg"}
    assert plans(shared) == plans(fresh)
    # And A still plans over the widened key set as on a fresh memo.
    assert plans(optimizer.optimize(a, memo=memo)) == plans(optimizer.optimize(a))


# -- the saving, as counts ----------------------------------------------------


def cold_guided(plan, catalog, hints, params, mode):
    optimizer = Optimizer(catalog, hints, mode, params, search="guided", top_k=1)
    memo = optimizer.new_memo()
    result = optimizer.optimize(plan, memo=memo)
    return sum(len(table) for table in memo.cell_options.values()), result, memo


def assert_only_interesting(memo, options):
    """Every option carries only components an operator above could reuse."""
    ctx = space("stress").optimizer().ctx
    for option in options:
        kept = memo.interesting(ctx.op_names(option.logical))[option.partitioning]
        assert kept == option.partitioning


def test_stress_buckets_and_estimates():
    """285 buckets and 912 estimates while every partitioning was kept."""
    sp = space("stress")
    buckets, result, memo = cold_guided(
        sp.plan, sp.catalog, sp.hints, sp.params, sp.mode
    )
    assert buckets <= 71
    assert result.search_stats.estimate_calls <= 239
    assert_only_interesting(memo, (
        option
        for table in memo.cell_options.values()
        for options, _ in table.values()
        for option in options
    ))


def test_stress_eager_keeps_one_option_per_tree():
    """111,198 options over the 14,759 trees while every partitioning was
    kept; no join of the stress space reuses a lower one's partitioning.
    The full-width cell tables hold every sub-flow once, in one bucket."""
    sp = space("stress")
    optimizer = sp.optimizer()
    memo = optimizer.new_memo()
    optimizer.optimize(sp.plan, memo=memo)
    options = [
        option
        for table in memo.cell_options.values()
        for options, _ in table.values()
        for option in options
    ]
    assert len(options) == len({option.logical for option in options}) == 14_759
    assert_only_interesting(memo, options)


def test_q7_at_scale_10_buckets():
    """113 buckets while every partitioning was kept."""
    w = build_q7(scale_factor=10)
    buckets, _, _ = cold_guided(
        w.plan, w.catalog, w.hints, w.params, AnnotationMode.SCA
    )
    assert buckets <= 39


def test_textmining_buckets_are_unchanged():
    """The control: no join or Reduce partitioning to drop."""
    sp = space("textmining-sca")
    buckets, _, _ = cold_guided(sp.plan, sp.catalog, sp.hints, sp.params, sp.mode)
    assert buckets == 19
