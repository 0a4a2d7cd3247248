"""Cardinality and result-size estimation.

The Stratosphere optimizer relies on hints such as "Average Number of
Records Emitted per UDF Call", "CPU Cost per UDF Call" and "Number of
Distinct Values per Key-Set" (Section 7.1), provided by the user, a
language compiler, or profiling.  :class:`Hints` carries exactly those
three quantities; the estimator propagates row counts and record widths
bottom-up through a plan tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.errors import OptimizationError
from ..core.operators import (
    CoGroupOp,
    CrossOp,
    MapOp,
    MatchOp,
    MaterializedSource,
    ReduceOp,
    Sink,
    Source,
    UdfOperator,
)
from ..core.plan import Node
from ..core.properties import EmitBounds
from ..core.schema import Attribute
from .context import PlanContext


@dataclass(frozen=True, slots=True)
class Hints:
    """Per-operator optimizer hints (Section 7.1)."""

    selectivity: float | None = None  # avg records emitted per UDF call
    cpu_per_call: float = 1.0  # cost units per UDF call
    distinct_keys: int | None = None  # distinct values of the key set


@dataclass(frozen=True, slots=True)
class EstStats:
    """Estimated output of one plan node."""

    rows: float
    width: float  # average record bytes
    calls: float  # UDF invocations performed by this node

    @property
    def bytes(self) -> float:
        return self.rows * self.width


def _default_selectivity(bounds: EmitBounds) -> float:
    if bounds.exactly_one:
        return 1.0
    if bounds.hi is not None and bounds.hi <= 1:
        return 0.5
    return 1.0


class CardinalityEstimator:
    """Bottom-up row/width estimation with hint support."""

    def __init__(
        self,
        ctx: PlanContext,
        hints: dict[str, Hints] | None = None,
    ) -> None:
        self.ctx = ctx
        self.catalog = ctx.catalog
        self.hints = hints or {}
        # Keyed on interned nodes: an identity lookup, shared across every
        # alternative that contains the same sub-plan.  A Memo can swap
        # these for its own dicts (:meth:`use_caches`) to make estimates
        # memo-scoped, so dirty-spine invalidation reaches them.
        self._cache: dict[Node, EstStats] = {}
        self._width_cache: dict[frozenset, float] = {}
        #: Number of estimates actually computed (estimate-cache misses)
        #: by this instance — the benchmarks' estimation-work metric.
        #: Cache hits (memo-carried estimates included) are free
        #: and not counted.
        self.estimate_calls: int = 0

    def use_caches(
        self,
        cache: dict[Node, EstStats],
        width_cache: dict[frozenset, float],
    ) -> None:
        """Adopt externally owned caches (the Memo's).

        Entries already present are trusted verbatim: an estimate depends
        only on the operators inside its node's subtree, so a memo whose
        stale entries were invalidated hands back exactly the values this
        estimator would recompute (pinned by the invalidation parity
        tests).
        """
        self._cache = cache
        self._width_cache = width_cache

    #: Shared default returned for operators without registered hints —
    #: the paper-default behavior (selectivity from emit bounds, unit CPU
    #: cost, distinct keys from catalog statistics).
    DEFAULT_HINTS = Hints()

    def hints_for(self, op_name: str) -> Hints:
        """Hints for one operator; unknown names get :data:`DEFAULT_HINTS`.

        This lookup never raises: an operator the user did not hint falls
        back to the paper defaults rather than leaking a ``KeyError``.
        """
        return self.hints.get(op_name, self.DEFAULT_HINTS)

    def source_rows(self, op: Source) -> float:
        """Row count of a source scan; the feedback estimator overrides
        this with observed cardinalities."""
        if isinstance(op, MaterializedSource):
            # An executed stage boundary has an exact, counted cardinality.
            return float(op.row_count)
        return float(self.catalog.stats(op.name).row_count)

    def _width(self, node: Node) -> float:
        attrs = self.ctx.out_attrs(node)
        width = self._width_cache.get(attrs)
        if width is None:
            # fsum: a set iterates in string-hash-seed order; a plain sum
            # would make the last bits of every cost vary run to run.
            width = math.fsum(self.catalog.attr_width(a) for a in attrs)
            width += 2.0 * len(attrs)
            self._width_cache[attrs] = width
        return width

    def _distinct(self, attrs: tuple[Attribute, ...], upper: float) -> float:
        product = 1.0
        known = False
        for a in attrs:
            d = self.catalog.distinct_of(a)
            if d is not None:
                known = True
                product *= d
        if not known:
            product = max(1.0, math.sqrt(upper))
        return min(product, max(upper, 1.0))

    def estimate(self, node: Node) -> EstStats:
        cached = self._cache.get(node)
        if cached is not None:
            return cached
        self.estimate_calls += 1
        result = self._estimate(node)
        self._cache[node] = result
        return result

    def observed(self, node: Node) -> bool:
        """Does this estimator pin ``node``'s estimate to an observation of
        exactly this sub-flow, instead of deriving it from the children's
        estimates?  Never, here; the feedback estimator overrides it.  The
        group memo keeps such trees in option buckets of their own."""
        return False

    def _estimate(self, node: Node) -> EstStats:
        """The per-operator estimation formulas (Section 7.1)."""
        op = node.op
        if isinstance(op, Source):
            rows = self.source_rows(op)
            return EstStats(rows, self._width(node), 0.0)
        if isinstance(op, Sink):
            child = self.estimate(node.only_child)
            return EstStats(child.rows, child.width, 0.0)
        if not isinstance(op, UdfOperator):  # pragma: no cover - defensive
            raise OptimizationError(f"cannot estimate {op!r}")

        hint = self.hints_for(op.name)
        props = self.ctx.props(op)
        sel = (
            hint.selectivity
            if hint.selectivity is not None
            else _default_selectivity(props.emit_bounds)
        )

        if isinstance(op, MapOp):
            child = self.estimate(node.only_child)
            calls = child.rows
            return EstStats(calls * sel, self._width(node), calls)
        if isinstance(op, ReduceOp):
            child = self.estimate(node.only_child)
            groups = (
                float(hint.distinct_keys)
                if hint.distinct_keys is not None
                else self._distinct(op.key_attr_tuple(), child.rows)
            )
            groups = min(groups, max(child.rows, 1.0))
            # Per-group emission honors the UDF's emit bounds: exactly-one
            # aggregations emit one record per group, filter-like reduces
            # (hi <= 1, lo = 0) may drop groups, anything else defaults to
            # one record per group.
            per_group = (
                hint.selectivity
                if hint.selectivity is not None
                else _default_selectivity(props.emit_bounds)
            )
            return EstStats(groups * per_group, self._width(node), groups)
        if isinstance(op, MatchOp):
            left = self.estimate(node.children[0])
            right = self.estimate(node.children[1])
            if hint.distinct_keys is not None:
                denom = float(hint.distinct_keys)
            else:
                d_left = self._distinct(op.left_key_attrs(), left.rows)
                d_right = self._distinct(op.right_key_attrs(), right.rows)
                denom = max(d_left, d_right, 1.0)
            pairs = left.rows * right.rows / denom
            return EstStats(pairs * sel, self._width(node), pairs)
        if isinstance(op, CrossOp):
            left = self.estimate(node.children[0])
            right = self.estimate(node.children[1])
            pairs = left.rows * right.rows
            return EstStats(pairs * sel, self._width(node), pairs)
        if isinstance(op, CoGroupOp):
            left = self.estimate(node.children[0])
            right = self.estimate(node.children[1])
            if hint.distinct_keys is not None:
                keys = float(hint.distinct_keys)
            else:
                keys = max(
                    self._distinct(op.left_key_attrs(), left.rows),
                    self._distinct(op.right_key_attrs(), right.rows),
                )
            return EstStats(keys * sel, self._width(node), keys)
        raise OptimizationError(f"cannot estimate {op!r}")  # pragma: no cover
