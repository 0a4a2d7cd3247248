"""Guided planning returns the frozen eager ranking, prefix for prefix.

The fixtures under ``tests/fixtures/rankings/`` were generated from the
eager path (see :mod:`tests.optimizer.spaces`).  ``search="guided"`` must
return exactly their first ``top_k`` entries — same plan, bit-equal cost,
same physical plan — cold, when re-planning over a memo that was
invalidated after a hint change, and over a memo the other search
already filled (eager's tree options, guided's cell tables).
A memo that first explored another tree of the space ranks exactly as a
cold one does.
"""

import pytest

from repro.core.operators import UdfOperator
from repro.core.plan import body as plan_body, iter_nodes
from repro.optimizer import Hints
from tests.optimizer.closure import iter_flows
from tests.optimizer.spaces import STRESS_RANKS, SPACE_NAMES, entry, frozen, space

TOP_KS = (1, 3, 10)
#: Eager over the stress space costs 6 864 alternatives: left out of the
#: mixed-memo tests, which run it twice.
SMALL_SPACES = [n for n in SPACE_NAMES if n != "stress"]
#: Spaces with float-equal costs in their full ranking: the memo lists a
#: flow's trees in an order that depends on what it explored first, so
#: ties broken by listing position would follow the memo's history.
HISTORY_SPACES = ("tpch_q7-sca", "stress")


def prefix(name, k):
    return frozen(name)["ranking"][:k]


def changed_hint(sp):
    """One UDF operator of the space and a hint that moves its estimates."""
    op = next(
        n.op.name
        for n in iter_nodes(plan_body(sp.plan))
        if isinstance(n.op, UdfOperator)
    )
    return op, Hints(selectivity=0.05, cpu_per_call=3.0)


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_eager_ranking_matches_fixture(name):
    """The fixtures are current: eager still produces them, in full (the
    stress space: its plan count and first ranks)."""
    sp = space(name)
    result = sp.optimizer().optimize(sp.plan)
    ranking = frozen(name)["ranking"]
    assert result.plan_count == frozen(name)["plan_count"]
    assert len(ranking) == (STRESS_RANKS if name == "stress" else result.plan_count)
    assert [entry(p) for p in result.ranked[: len(ranking)]] == ranking


@pytest.mark.parametrize("k", TOP_KS)
@pytest.mark.parametrize("name", SPACE_NAMES)
def test_guided_cold_matches_fixture_prefix(name, k):
    sp = space(name)
    result = sp.optimizer(search="guided", top_k=k).optimize(sp.plan)
    assert [entry(p) for p in result.ranked] == prefix(name, k)
    assert result.search_stats.expanded == frozen(name)["plan_count"]


@pytest.mark.parametrize("k", TOP_KS)
@pytest.mark.parametrize("name", SPACE_NAMES)
def test_guided_replan_after_invalidate_matches_fixture_prefix(name, k):
    """Plan under a changed hint, change it back, invalidate, re-plan."""
    sp = space(name)
    op, hint = changed_hint(sp)
    optimizer = sp.optimizer(
        hints={**sp.hints, op: hint}, search="guided", top_k=k
    )
    memo = optimizer.new_memo()
    optimizer.optimize(sp.plan, memo=memo)
    optimizer.hints = sp.hints
    memo.invalidate((op,))
    result = optimizer.optimize(sp.plan, memo=memo)
    assert [entry(p) for p in result.ranked] == prefix(name, k)



@pytest.mark.parametrize("name", SMALL_SPACES)
def test_guided_over_eager_memo_matches_fixture_prefix(name):
    """Guided reads a memo eager filled: same prefix as cold."""
    sp = space(name)
    memo = sp.optimizer().new_memo()
    sp.optimizer().optimize(sp.plan, memo=memo)
    result = sp.optimizer(search="guided", top_k=3).optimize(
        sp.plan, memo=memo
    )
    assert [entry(p) for p in result.ranked] == prefix(name, 3)


@pytest.mark.parametrize("name", SMALL_SPACES)
def test_eager_over_guided_memo_matches_fixture(name):
    """Eager reads a memo guided filled: the full ranking, unchanged."""
    sp = space(name)
    memo = sp.optimizer().new_memo()
    sp.optimizer(search="guided", top_k=3).optimize(sp.plan, memo=memo)
    result = sp.optimizer().optimize(sp.plan, memo=memo)
    assert result.plan_count == frozen(name)["plan_count"]
    assert [entry(p) for p in result.ranked] == frozen(name)["ranking"]


def explored_elsewhere(sp, optimizer):
    """A memo that first explored the last tree of ``sp``'s closure."""
    *_, other = iter_flows(plan_body(sp.plan), optimizer.ctx)
    memo = optimizer.new_memo()
    memo.explore(other, optimizer.ctx)
    return memo


def ranked(result):
    return [(plan.body, plan.cost) for plan in result.ranked]


@pytest.mark.parametrize("name", HISTORY_SPACES)
def test_eager_ranking_is_independent_of_memo_history(name):
    sp = space(name)
    optimizer = sp.optimizer()
    cold = optimizer.optimize(sp.plan)
    warm = optimizer.optimize(sp.plan, memo=explored_elsewhere(sp, optimizer))
    assert ranked(warm) == ranked(cold)


@pytest.mark.parametrize("k", (1, 3))
@pytest.mark.parametrize("name", HISTORY_SPACES)
def test_guided_prefix_is_independent_of_memo_history(name, k):
    sp = space(name)
    optimizer = sp.optimizer(search="guided", top_k=k)
    cold = optimizer.optimize(sp.plan)
    warm = optimizer.optimize(sp.plan, memo=explored_elsewhere(sp, optimizer))
    assert ranked(warm) == ranked(cold)
