"""Physical variants are ranked as records; only kept options are built.

The planners list each node's physical variants as flat records and the
search ranks them on floats, so a :class:`PhysNode` exists only for an
option a cell table keeps.  Pinned here on a
cold guided plan of the stress space and of Q7: every node the physical
optimizer built is held by the memo, and every node the memo holds was
built by it.  A cell table records its width, so a later, narrower
request recomputes evicted tables at its own width.  A memo serves one
plan space: a second flow whose operators share the first one's names is
refused instead of planned over the first flow's cells.
"""

import pytest

from repro.core import AnnotationMode
from repro.core.errors import OptimizationError
from repro.core.plan import body as plan_body, iter_nodes
from repro.optimizer import Optimizer, optimizer as optimizer_module
from repro.optimizer.physical import PhysicalOptimizer
from repro.workloads.stress import build_stress
from tests.optimizer.spaces import entry, frozen, space
from tests.optimizer.test_ranking_fixtures import changed_hint, prefix


def kept_nodes(memo) -> set:
    """Every PhysNode the memo's cell tables hold."""
    kept = set()
    for table in memo.cell_options.values():
        kept.update(option for options, _ in table.values() for option in options)
    return kept


@pytest.mark.parametrize("name", ["stress", "tpch_q7-sca"])
def test_guided_plan_builds_only_the_nodes_the_memo_keeps(name, monkeypatch):
    instances = []

    class Recorded(PhysicalOptimizer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            instances.append(self)

    monkeypatch.setattr(optimizer_module, "PhysicalOptimizer", Recorded)
    sp = space(name)
    optimizer = sp.optimizer(search="guided", top_k=1)
    memo = optimizer.new_memo()
    result = optimizer.optimize(sp.plan, memo=memo)
    assert [entry(p) for p in result.ranked] == prefix(name, 1)
    (physical,) = instances
    kept = kept_nodes(memo)
    assert physical.nodes_built == len(kept)
    assert all(child in kept for node in kept for child in node.children)


@pytest.mark.parametrize("name", ["stress", "tpch_q7-sca"])
def test_narrower_replan_recomputes_evicted_tables_at_its_width(name):
    sp = space(name)
    optimizer = sp.optimizer(search="guided", top_k=8)
    memo = optimizer.new_memo()
    wide = optimizer.optimize(sp.plan, memo=memo)
    assert [entry(p) for p in wide.ranked] == prefix(name, 8)
    assert set(memo.cell_width.values()) == {8}
    before = dict(memo.cell_options)
    op, _ = changed_hint(sp)
    optimizer.top_k = 1
    memo.invalidate((op,))
    narrow = optimizer.optimize(sp.plan, memo=memo)
    assert [entry(p) for p in narrow.ranked] == prefix(name, 1)
    recomputed = [c for c, table in memo.cell_options.items() if before.get(c) is not table]
    assert recomputed and len(recomputed) < len(memo.cell_options)
    for cell in recomputed:
        assert op in cell.names and memo.cell_width[cell] == 1
        for options, _ in memo.cell_options[cell].values():
            # One option per bucket, plus whatever ties it exactly.
            assert {o.cost_total for o in options} == {options[0].cost_total}
    for cell in memo.cell_options:
        if cell not in recomputed:
            assert op not in cell.names and memo.cell_width[cell] == 8
    # Asked for 8 again, the one-wide tables are too narrow: recomputed.
    optimizer.top_k = 8
    again = optimizer.optimize(sp.plan, memo=memo)
    assert [entry(p) for p in again.ranked] == prefix(name, 8)
    assert set(memo.cell_width.values()) == {8}


def test_a_second_flow_with_the_same_operator_names_is_refused():
    """Before the guard the second plan reported 899,678,208 alternatives
    and returned a plan built from the first flow's operators."""
    p1, catalog, hints = build_stress()
    p2, _, _ = build_stress()
    optimizer = Optimizer(
        catalog, hints, AnnotationMode.MANUAL, search="guided", top_k=1
    )
    memo = optimizer.new_memo()
    optimizer.optimize(p1, memo=memo)
    names = {n.op.name for n in iter_nodes(plan_body(p2))}
    with pytest.raises(OptimizationError, match="one memo serves one plan") as err:
        optimizer.optimize(p2, memo=memo)
    assert any(repr(name) in str(err.value) for name in names)
    # The first flow still plans over that memo.
    again = optimizer.optimize(p1, memo=memo)
    assert [entry(p) for p in again.ranked] == prefix("stress", 1)
    assert again.search_stats.expanded == frozen("stress")["plan_count"]
