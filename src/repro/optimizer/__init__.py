"""The data flow optimizer: reordering conditions, enumeration, costing.

Memoization architecture
------------------------

The optimizer is built around *hash-consed* plans
(:class:`repro.core.plan.Node` interns structurally-equal nodes into the
same object), which turns every plan-keyed table into an O(1) identity
lookup.  Three layers exploit this:

* **Enumeration** (:mod:`.enumeration`, :meth:`.memo.Memo.explore`):
  the swap rules fire on the group memo's *cells* of equivalent
  sub-flows, never on whole trees, and a plan space is listed as a
  product over cell expressions (:meth:`.memo.Memo.trees`) — the one
  enumerator of both search strategies.  Rule outcomes themselves are
  cached in :class:`.context.PlanContext` (``rule_cache``).
* **Cardinality** (:mod:`.cardinality`): estimates are cached per
  interned node and record widths per output-attribute set, so the
  estimator does no repeated work across alternatives.
* **Physical optimization** (:mod:`.physical`): a
  :class:`.physical.PhysicalOptimizer` costs against a first-class
  Volcano :class:`.memo.Memo`, so a sub-plan shared by many alternatives
  is physically optimized once.  Full eager rankings
  of nine plan spaces are frozen in ``tests/fixtures/rankings/``.
* **Group memo** (:mod:`.memo`, ``Optimizer(search="guided")``): the swap
  rules fire on *cells* of equivalent sub-flows instead of trees, each
  cell is costed once, and the top-k is extracted from the root cells —
  eager's ranking prefix without listing the plan space.
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
    enum_alternatives_chain,
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
    optimize_physical,
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
    "enum_alternatives_chain",
    "enumerate_flows",
    "kgp_kat",
    "kgp_map",
    "kgp_match_side",
    "optimize",
    "optimize_physical",
    "roc",
]
