"""The reference costing: the tree-level Volcano search, tree by tree.

The optimizer costs a plan space once, through the option tables of the
group memo's cells (:meth:`~repro.optimizer.physical.PhysicalOptimizer.
cell_options`), and ranks every search from them.  This module keeps the
search those tables are checked against: each interned sub-plan gets its
cheapest physical option per interesting partitioning, planned from its
children's options and memoized per tree.  It plans with the optimizer's
own per-operator planners, so a difference from the cell tables is a
difference in the search, not in the cost model; and it estimates every
tree itself, so it assumes nothing of a statistics store (the cell
tables need it to be subtree-closed).
"""

from __future__ import annotations

from operator import attrgetter

from repro.core.operators import Sink, Source
from repro.core.plan import Node
from repro.optimizer import CardinalityEstimator, CostParams, PlanContext
from repro.optimizer.memo import Memo
from repro.optimizer.optimizer import tie_key
from repro.optimizer.physical import (
    _FORWARD_SHIPS,
    LocalStrategy,
    Partitioning,
    PhysicalOptimizer,
    PhysNode,
)
from tests.optimizer.closure import iter_flows

_cost_total = attrgetter("cost_total")


class TreeCosting:
    """The tree-level search over one estimator, memoized per tree.

    ``memo`` supplies the interesting partitionings (:meth:`Memo.admit`,
    :meth:`Memo.interesting`); the per-tree options live here.
    """

    def __init__(
        self,
        ctx: PlanContext,
        estimator: CardinalityEstimator,
        params: CostParams,
        memo: Memo | None = None,
    ) -> None:
        self.ctx = ctx
        self.est = estimator
        self.planners = PhysicalOptimizer(ctx, estimator, params, memo=memo)
        self.memo = self.planners.memo
        #: Interned logical sub-plan -> its options, one per partitioning.
        self.table: dict[Node, tuple[PhysNode, ...]] = {}
        self._keys: dict = {}

    def optimize(self, body: Node) -> PhysNode:
        """``body``'s cheapest physical plan (the first of float-equal ones)."""
        self.memo.admit(body)
        if self.memo.keys != self._keys:
            # A new keyed operator: options were kept without its keys.
            self.table.clear()
            self._keys = dict(self.memo.keys)
        return min(self.options(body), key=_cost_total)

    def options(self, node: Node) -> tuple[PhysNode, ...]:
        cached = self.table.get(node)
        if cached is None:
            cached = self.table[node] = self._compute(node)
        return cached

    def _compute(self, node: Node) -> tuple[PhysNode, ...]:
        """The cheapest option per interesting partitioning."""
        op, build = node.op, self.planners._build
        interesting = self.memo.interesting(self.ctx.op_names(node))
        if isinstance(op, Source):
            est, variant = self.planners._source(node)
            return (build(node, est, variant, (), interesting),)
        est = self.est.estimate(node)
        if isinstance(op, Sink):
            return tuple(
                build(node, est, (0.0, _FORWARD_SHIPS, LocalStrategy.COLLECT, None,
                                  child.partitioning), (child,), interesting)
                for child in self.options(node.only_child)
            )
        variants = self.planners._planner(op)
        best: dict[Partitioning, tuple] = {}
        if op.arity == 1:
            for child in self.options(node.only_child):
                keep_cheapest(best, interesting, child.cost_total, (child,),
                              variants(est, child))
        else:
            for left in self.options(node.children[0]):
                for right in self.options(node.children[1]):
                    keep_cheapest(best, interesting,
                                  left.cost_total + right.cost_total,
                                  (left, right), variants(est, left, right))
        return tuple(
            build(node, est, variant, children, interesting)
            for _, variant, children in best.values()
        )


def keep_cheapest(best, interesting, below: float, children: tuple, variants) -> None:
    """Offer ``variants`` over ``children`` (summed cost ``below``) to
    ``best``: the cheapest ``(cost_total, variant, children)`` per output
    partitioning's ``interesting`` part, replaced strictly (first wins a tie)."""
    for variant in variants:
        total = variant[0] + below
        parts = interesting[variant[4]]
        current = best.get(parts)
        if current is None or total < current[0]:
            best[parts] = (total, variant, children)


def optimize_physical(
    body: Node, ctx: PlanContext, estimator: CardinalityEstimator, params: CostParams
) -> PhysNode:
    """Choose shipping and local strategies for one logical flow."""
    return TreeCosting(ctx, estimator, params).optimize(body)


def ranking(
    flow: Node, ctx: PlanContext, estimator: CardinalityEstimator, params: CostParams
) -> list[tuple[Node, PhysNode]]:
    """Every tree of ``flow``'s space (the breadth-first closure) with its
    physical plan, in the optimizer's order: by cost, then by ``tie_key``."""
    costing = TreeCosting(ctx, estimator, params)
    planned = [(tree, costing.optimize(tree)) for tree in iter_flows(flow, ctx)]
    planned.sort(key=lambda item: (item[1].cost_total, tie_key(item[0])))
    return planned
