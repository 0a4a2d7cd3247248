"""One planning session: an optimizer over learned statistics and its memo.

The adaptive loop, the mid-query controller and every server tenant plan
through a :class:`PlanningSession`: an ``Optimizer`` whose estimator is a
:class:`~.estimator.FeedbackEstimator` over a
:class:`~.store.StatisticsStore`, a carried memo, and the estimator view
that memo was costed under.  :meth:`~PlanningSession.refresh` comes first
whenever the store may have changed; :meth:`~PlanningSession.plan` never
syncs, so a plan reflects exactly the state the last refresh saw.
"""

from __future__ import annotations

from ..core.catalog import Catalog
from ..core.plan import Node
from ..core.udf import AnnotationMode
from ..obs.tracer import NOOP_TRACER
from ..optimizer.cardinality import Hints
from ..optimizer.cost import CostParams
from ..optimizer.optimizer import OptimizationResult, Optimizer
from .estimator import FeedbackEstimator
from .store import StatisticsStore, view_diff


class PlanningSession:
    """An optimizer, its memo and the view the memo was costed under."""

    def __init__(
        self,
        catalog: Catalog,
        hints: dict[str, Hints] | None,
        mode: AnnotationMode,
        params: CostParams | None,
        store: StatisticsStore,
        search: str = "eager",
        tracer=None,
    ) -> None:
        self.store = store
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        if tracer is not None:
            store.tracer = tracer  # its sync and ingest spans join ours
        self.optimizer = Optimizer(
            catalog,
            hints,
            mode,
            params,
            estimator_factory=lambda ctx, h: FeedbackEstimator(ctx, h, store),
            search=search,
            tracer=self.tracer,
        )
        self.memo = self.optimizer.new_memo()
        self._view = store.estimator_view()
        self._generation = store.generation
        #: Memo entries evicted by the latest :meth:`refresh`.
        self.evicted = 0

    def refresh(self, tracer=None) -> frozenset[str]:
        """Sync the store; evict what its changes made dirty; return that set."""
        tracer = tracer if tracer is not None else self.tracer
        store = self.store
        store.sync()
        self.evicted = 0
        if store.generation == self._generation:
            return frozenset()
        view = store.estimator_view()
        dirty = view_diff(self._view, view)
        self._view, self._generation = view, store.generation
        if dirty:
            with tracer.span(
                "optimizer.invalidate", category="optimizer", changed=len(dirty)
            ) as span:
                self.evicted = self.memo.invalidate(dirty)
            span.set(evicted=self.evicted)
            tracer.count("optimizer.invalidations")
            tracer.count("optimizer.memo_evictions", self.evicted)
        return dirty

    def plan(
        self, flow: Node, top_k: int | None = None, tracer=None
    ) -> OptimizationResult:
        """Rank ``flow``'s alternatives over the carried memo."""
        optimizer = self.optimizer
        optimizer.top_k = top_k
        optimizer.tracer = tracer if tracer is not None else self.tracer
        try:
            return optimizer.optimize(flow, memo=self.memo)
        finally:
            optimizer.tracer = self.tracer

    def reset(self) -> None:
        """Start over with an empty memo (the view is kept)."""
        self.memo = self.optimizer.new_memo()
