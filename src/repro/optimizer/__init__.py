"""The data flow optimizer: reordering conditions, enumeration, costing.

Memoization architecture
------------------------

The optimizer is built around *hash-consed* plans
(:class:`repro.core.plan.Node` interns structurally-equal nodes into the
same object), which turns every plan-keyed table into an O(1) identity
lookup.  These layers exploit this:

* **Enumeration** (:mod:`.enumeration`, :meth:`.memo.Memo.explore`):
  the swap rules fire on the group memo's *cells* of equivalent
  sub-flows, never on whole trees, and a plan space is listed as a
  product over cell expressions (:meth:`.memo.Memo.trees`).  Rule
  outcomes themselves are cached in :class:`.context.PlanContext`
  (``rule_cache``).
* **Cardinality** (:mod:`.cardinality`): estimates are cached per
  interned node and record widths per output-attribute set, so the
  estimator does no repeated work across alternatives.
* **Costing** (:mod:`.physical`, :mod:`.memo`): a
  :class:`.physical.PhysicalOptimizer` costs each cell once, into a
  table of the k cheapest trees per option bucket, and every ranking is
  read from the root cells' tables — the whole space for
  ``Optimizer(search="eager")``, rank 1 for ``"guided"``, ``top_k``
  ranks when asked.  Full rankings of nine plan spaces are frozen in
  ``tests/fixtures/rankings/``.
* **Incremental re-costing** (:mod:`.memo`): an explicit memo passed to
  ``Optimizer.optimize(memo=...)`` survives across calls and feedback
  rounds; ``Memo.invalidate(changed_ops)`` evicts only the dirty spine
  above operators whose hints or learned statistics changed, and the
  next ``optimize`` re-ranks bit-identically to a full rebuild.
"""

from .cardinality import CardinalityEstimator, EstStats, Hints
from .conditions import kgp_kat, kgp_map, kgp_match_side, roc
from .context import PlanContext
from .cost import CostParams
from .enumeration import (
    count_alternatives,
    enumerate_flows,
)
from .memo import Memo
from .optimizer import (
    OptimizationResult,
    Optimizer,
    RankedPlan,
    SearchStats,
    optimize,
)
from .physical import (
    LocalStrategy,
    PhysicalOptimizer,
    PhysNode,
    Ship,
    ShipKind,
)
from .rules import (
    can_exchange_unary_binary,
    can_rotate,
    can_swap_unary_unary,
)

__all__ = [
    "CardinalityEstimator",
    "CostParams",
    "EstStats",
    "Hints",
    "LocalStrategy",
    "Memo",
    "OptimizationResult",
    "Optimizer",
    "PhysNode",
    "PhysicalOptimizer",
    "PlanContext",
    "RankedPlan",
    "SearchStats",
    "Ship",
    "ShipKind",
    "can_exchange_unary_binary",
    "can_rotate",
    "can_swap_unary_unary",
    "count_alternatives",
    "enumerate_flows",
    "kgp_kat",
    "kgp_map",
    "kgp_match_side",
    "optimize",
    "roc",
]
