"""End-to-end optimizer driver (Section 7.1's prototype pipeline).

The optimization process mirrors the paper's prototype: obtain UDF
properties (manual annotations or SCA), enumerate all valid reordered data
flows, physically optimize each alternative, and rank the resulting
execution plans by estimated cost.

Every search takes one path through the group memo
(:mod:`~repro.optimizer.memo`): the swap rules fire on *cells* of
equivalent sub-flows, each cell is costed once into a table of the ``k``
cheapest trees per option bucket, and the root cells' buckets merged by
tree hold the ``k`` cheapest trees of the space with their physical
plans (Cascades' group-level costing).  ``search`` only sets the default
``k``: the whole space for ``"eager"``, rank 1 for ``"guided"``;
``top_k`` overrides it.  Float-equal costs are ordered by
:func:`tie_key`, so a ranking of any width is the full ranking's prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable

from ..core.catalog import Catalog
from ..core.errors import OptimizationConfigError
from ..core.plan import Node, body as plan_body, linearize, signature, signature_key
from ..core.udf import AnnotationMode
from ..obs.tracer import NOOP_TRACER, clock
from .cardinality import CardinalityEstimator, Hints
from .context import PlanContext
from .cost import CostParams
from .memo import ENUMERATION_LIMIT, Memo
from .physical import PhysicalOptimizer, PhysNode


@dataclass(frozen=True, slots=True)
class SearchStats:
    """Work accounting for one :meth:`Optimizer.optimize` call.

    ``expanded`` counts the logical alternatives the search covered
    (the trees the memo's root cells stand for); ``costed`` counts the
    alternatives ranked, each with the physical plan its root bucket
    kept; ``pruned`` is the rest; ``bounds_computed`` counts the cell
    option tables computed in this call (surviving ones are free);
    ``estimate_calls`` counts cardinality-estimate cache misses spent.
    All five are exported as ``optimizer.search.*`` / ``optimizer.estimates``
    counters through :mod:`repro.obs`.
    """

    search: str
    expanded: int
    costed: int
    pruned: int
    bounds_computed: int
    estimate_calls: int


@dataclass(frozen=True, slots=True)
class RankedPlan:
    """One enumerated alternative with its physical plan and cost rank."""

    rank: int  # 1 = cheapest estimated plan
    body: Node
    physical: PhysNode

    @property
    def cost(self) -> float:
        return self.physical.cost_total


@dataclass(slots=True)
class OptimizationResult:
    """Everything the experiments need about one optimization run."""

    original_body: Node
    ranked: list[RankedPlan]  # ascending estimated cost
    enumeration_seconds: float
    physical_seconds: float
    #: Search-work accounting (expanded/costed/pruned/bounds/estimates).
    search_stats: SearchStats | None = None
    _rank_index: dict[Node, int] | None = field(default=None, repr=False)

    @property
    def plan_count(self) -> int:
        return len(self.ranked)

    @property
    def best(self) -> RankedPlan:
        return self.ranked[0]

    def rank_of(self, body: Node) -> int:
        # Interned nodes make the common lookup an O(1) identity hit; keying
        # on the node (not its signature) keeps distinct plans distinct even
        # when operators share names across the ranked list.
        if self._rank_index is None:
            self._rank_index = {plan.body: plan.rank for plan in self.ranked}
        hit = self._rank_index.get(body)
        if hit is not None:
            return hit
        # Fallback for bodies built from different operator objects: first
        # structural (signature) match in rank order, the legacy behavior.
        wanted = signature(body)
        for plan in self.ranked:
            if signature(plan.body) == wanted:
                return plan.rank
        raise KeyError("plan not among the enumerated alternatives")

    def picks(self, count: int = 10) -> list[RankedPlan]:
        """Plans picked at regular rank intervals (the Figure 5/6 protocol)."""
        n = len(self.ranked)
        if count <= 0:
            return []
        if n <= count:
            return list(self.ranked)
        if count == 1:
            # A single pick has no interval to spread over: the rank-1 plan.
            return [self.ranked[0]]
        picks = []
        for i in range(count):
            rank_index = round(i * (n - 1) / (count - 1))
            picks.append(self.ranked[rank_index])
        return picks


class Optimizer:
    """Enumerate + physically optimize + rank.

    One :class:`~repro.optimizer.memo.Memo` per call holds the explored
    cells and their option tables, so a sub-flow shared by hundreds of
    alternatives is costed once, as one cell.

    **Incremental re-costing.**  :meth:`optimize` accepts an explicit
    ``memo`` (see :meth:`new_memo`) whose surviving entries — cell
    tables, estimates, and the explored cells — are reused verbatim; after a
    hint or statistics change, call
    :meth:`~repro.optimizer.memo.Memo.invalidate` so the dirty spine
    above the changed operators is evicted first (the feedback layer's
    :class:`~repro.feedback.session.PlanningSession` does).  By default every
    :meth:`optimize` call builds a fresh memo, so one ``Optimizer``
    instance is safely re-entrant across plans and repeated calls.

    **Search strategies.**  Both rank through :meth:`_rank`;
    ``search`` only sets how many ranks ``top_k=None`` returns: every
    alternative (``"eager"``, the default) or rank 1 (``"guided"``).
    A ranking of ``k`` plans is the bit-identical prefix of the full one.

    ``estimator_factory`` is the cardinality-estimation injection point:
    it is called once per :meth:`optimize` with ``(ctx, hints)`` and must
    return a :class:`CardinalityEstimator` (or subclass — the feedback
    subsystem injects a learned-statistics estimator here).  The default
    constructs a plain :class:`CardinalityEstimator`; with no factory the
    optimization pipeline is bit-identical to the feedback-free seed.
    """

    def __init__(
        self,
        catalog: Catalog,
        hints: dict[str, Hints] | None = None,
        mode: AnnotationMode = AnnotationMode.SCA,
        params: CostParams | None = None,
        estimator_factory: Callable[
            [PlanContext, dict[str, Hints]], CardinalityEstimator
        ]
        | None = None,
        search: str = "eager",
        top_k: int | None = None,
        tracer=None,
    ) -> None:
        if search not in ("eager", "guided"):
            raise OptimizationConfigError(
                f"search must be 'eager' or 'guided', got {search!r}"
            )
        if top_k is not None and (
            not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1
        ):
            raise OptimizationConfigError(
                f"top_k must be None or an integer >= 1, got {top_k!r}"
            )
        self.catalog = catalog
        self.hints = hints or {}
        self.mode = mode
        self.params = params or CostParams()
        self.ctx = PlanContext(catalog, mode)
        self.estimator_factory = estimator_factory or CardinalityEstimator
        self.search = search
        #: Ranked-prefix length to return; ``None`` is the whole space
        #: under ``search="eager"`` and rank 1 under ``"guided"``.
        self.top_k = top_k
        # Wall-clock observability (repro.obs); the tracer never touches
        # estimates, costs, or ranking — planning output is bit-identical
        # with tracing on or off.
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: Estimator used by the most recent :meth:`optimize` call — the
        #: feedback loop reads its cached estimates for q-error reporting.
        self.last_estimator: CardinalityEstimator | None = None

    def new_memo(self) -> Memo:
        """A fresh memo wired to this optimizer's context.

        Pass it to :meth:`optimize` to carry costed state across calls;
        invalidate it (:meth:`~repro.optimizer.memo.Memo.invalidate`)
        whenever the hints or learned statistics of some operators change
        in between.
        """
        return Memo(op_names=self.ctx.op_names)

    def optimize(self, plan: Node, memo: Memo | None = None) -> OptimizationResult:
        """Enumerate, cost, and rank the alternatives of ``plan``.

        With an explicit ``memo``, surviving entries (and the explored
        cells) are reused and new entries are left in the memo for the
        next call; the caller owns invalidation across hint changes.
        Without one, a fresh memo is used per call.
        """
        flow = plan_body(plan)
        tracer = self.tracer
        root_span = tracer.span("optimizer.optimize", category="optimizer")
        with root_span:
            estimator = self.estimator_factory(self.ctx, self.hints)
            self.last_estimator = estimator
            ranked, stats, enum_secs, phys_secs = self._rank(flow, memo, estimator)
        root_span.set(
            alternatives=stats.costed,
            best_cost=ranked[0].cost if ranked else 0.0,
        )
        tracer.count("optimizer.optimizations")
        tracer.count("optimizer.alternatives_costed", stats.costed)
        tracer.count("optimizer.search.expanded", stats.expanded)
        tracer.count("optimizer.search.costed", stats.costed)
        tracer.count("optimizer.search.pruned", stats.pruned)
        tracer.count("optimizer.search.bounds", stats.bounds_computed)
        tracer.count("optimizer.estimates", stats.estimate_calls)
        return OptimizationResult(
            original_body=flow,
            ranked=ranked,
            enumeration_seconds=enum_secs,
            physical_seconds=phys_secs,
            search_stats=stats,
        )

    # -- internals ---------------------------------------------------------

    def _rank(
        self, flow: Node, memo: Memo | None, estimator: CardinalityEstimator
    ) -> tuple[list[RankedPlan], SearchStats, float, float]:
        """The one ranking: explore cells, cost cells, merge the root buckets.

        :meth:`Memo.explore` fires the swap rules on cell expressions,
        bounded by :data:`ENUMERATION_LIMIT` trees;
        :meth:`PhysicalOptimizer.cell_options` costs each cell once,
        keeping the ``k`` cheapest trees per option bucket; and the root
        cells' buckets, merged by tree, hold the ``k`` cheapest trees of
        the space, each with the physical plan a tree-at-a-time search
        would give it.  ``k`` is ``top_k``, else the whole space (eager) or
        1 (guided); no tree is built except those the tables keep.
        """
        tracer = self.tracer
        memo = memo if memo is not None else self.new_memo()
        memo.bind(estimator)
        t0 = clock()
        fired = memo.fired
        with tracer.span("optimizer.enumerate", category="optimizer") as enum_span:
            roots = memo.explore(flow, self.ctx, ENUMERATION_LIMIT)
            expanded = memo.tree_count(roots)
        fired = memo.fired - fired
        cells = sum(map(len, memo.classes.values()))
        enum_span.set(
            alternatives=expanded, cells=cells, exprs=len(memo.exprs), fired=fired
        )
        tracer.count("optimizer.explore.fired", fired)
        t1 = clock()
        k = self.top_k or (expanded if self.search == "eager" else 1)
        physical_optimizer = PhysicalOptimizer(
            self.ctx, estimator, self.params, memo=memo
        )
        with tracer.span(
            "optimizer.cost", category="optimizer", alternatives=expanded
        ):
            want = k
            while True:
                cheapest: dict[Node, PhysNode] = {}
                lost = math.inf
                for cell in roots:
                    table = physical_optimizer.cell_options(cell, want)
                    for options, left_out in table.values():
                        lost = min(lost, left_out)
                        for option in options:
                            known = cheapest.get(option.logical)
                            if known is None or option.cost_total < known.cost_total:
                                cheapest[option.logical] = option
                costs = {tree: option.cost_total for tree, option in cheapest.items()}
                # A tree the tables left out is never cheaper than the k
                # kept, but rounding can make it *tie* rank k: widen then.
                if want >= expanded or lost > sorted(costs.values())[k - 1]:
                    break
                want *= 2
            ranked = [
                RankedPlan(rank, tree, cheapest[tree])
                for rank, tree in enumerate(by_cost(costs, k), 1)
            ]
        t2 = clock()
        stats = SearchStats(
            self.search, expanded, len(ranked), expanded - len(ranked),
            physical_optimizer.tables_computed, estimator.estimate_calls,
        )
        return ranked, stats, t1 - t0, t2 - t1


def tie_key(tree: Node) -> tuple:
    """The order of float-equal costs, read from the tree alone, so a
    ranking does not depend on the order the space was listed in.  The
    signature makes it total: ``linearize`` maps ``join(m(A), B)`` and
    ``join(A, m(B))`` alike."""
    return linearize(tree), signature_key(tree)


def by_cost(costs: dict[Node, float], k: int | None) -> list[Node]:
    """The ``k`` cheapest trees of ``costs`` (all if ``k`` is None),
    float-equal costs ordered by :func:`tie_key`, which is computed only
    for the trees inside such a tie."""
    order = sorted(costs, key=costs.__getitem__)
    if k is not None and len(order) > k:
        kth = costs[order[k - 1]]
        order = [tree for tree in order if costs[tree] <= kth]
    ranked: list[Node] = []
    for _, tied in groupby(order, key=costs.__getitem__):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=tie_key)
        ranked += tied
    return ranked[:k]


def optimize(
    plan: Node,
    catalog: Catalog,
    hints: dict[str, Hints] | None = None,
    mode: AnnotationMode = AnnotationMode.SCA,
    params: CostParams | None = None,
) -> OptimizationResult:
    """One-call convenience wrapper around :class:`Optimizer`."""
    return Optimizer(catalog, hints, mode, params).optimize(plan)
