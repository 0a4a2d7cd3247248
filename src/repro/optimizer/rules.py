"""Pairwise reordering rules over plan trees (Section 4).

Three swap families cover every operator combination the paper proves:

* **S1 — unary/unary** (Theorems 1 and 2, Reduce/Reduce): two adjacent
  unary operators exchange positions.
* **S2 — unary/binary** (Theorems 3 and 4, invariant grouping, CoGroup
  via the tagged-union argument of Section 4.3.2): a unary operator above
  a binary one descends into one input side, or ascends back out of it.
* **S3 — binary/binary rotations** (Lemma 1 generalized to all Match and
  Cross combinations): ``u(v(A,B), C) -> v(A, u(B,C))`` and
  ``u(v(A,B), C) -> v(u(A,C), B)`` plus mirror images, which together
  yield bushy join orders.

``swaps`` is the one rule body: it fires all three families on an upper
operator and the lower operator at one of its inputs, building results
through a callback — the group memo's cells
(:meth:`~repro.optimizer.memo.Memo.explore`), or trees.
"""

from __future__ import annotations

from typing import Callable, Iterator, TypeVar

from ..core.operators import (
    CoGroupOp,
    CrossOp,
    MatchOp,
    Operator,
    ReduceOp,
    UdfOperator,
)
from ..core.plan import Node
from .conditions import kgp_kat, kgp_map, kgp_match_side, roc
from .context import PlanContext

T = TypeVar("T")


def can_swap_unary_unary(
    upper: UdfOperator, lower: UdfOperator, ctx: PlanContext
) -> bool:
    """Theorem 1 (Map/Map), Theorem 2 (Map/Reduce), and Reduce/Reduce."""
    key = (can_swap_unary_unary, upper, lower)
    cached = ctx.rule_cache.get(key)
    if cached is None:
        cached = _can_swap_unary_unary(upper, lower, ctx)
        ctx.rule_cache[key] = cached
    return cached


def _can_swap_unary_unary(
    upper: UdfOperator, lower: UdfOperator, ctx: PlanContext
) -> bool:
    pu = ctx.props(upper)
    pl = ctx.props(lower)
    if not roc(pu, pl):
        return False
    upper_kat = isinstance(upper, ReduceOp)
    lower_kat = isinstance(lower, ReduceOp)
    if upper_kat and lower_kat:
        return kgp_kat(upper, pu, lower.key_attrs()) and kgp_kat(
            lower, pl, upper.key_attrs()
        )
    if upper_kat:
        return kgp_map(pl, upper.key_attrs())
    if lower_kat:
        return kgp_map(pu, lower.key_attrs())
    return True


def can_exchange_unary_binary(
    unary: UdfOperator,
    binary: UdfOperator,
    side: int,
    other_node: Node,
    ctx: PlanContext,
) -> bool:
    key = (can_exchange_unary_binary, unary, binary, side, other_node)
    cached = ctx.rule_cache.get(key)
    if cached is None:
        cached = _can_exchange_unary_binary(unary, binary, side, other_node, ctx)
        ctx.rule_cache[key] = cached
    return cached


def _can_exchange_unary_binary(
    unary: UdfOperator,
    binary: UdfOperator,
    side: int,
    other_node: Node,
    ctx: PlanContext,
) -> bool:
    """Can ``unary`` sit above the binary or equivalently inside input
    ``side``?  The condition is the same in both directions:

    * ROC between the two UDFs,
    * the unary touches no attribute of the *other* input side
      (Theorem 3's ``(Rf u Wf) n S = empty``),
    * a Map moving past a CoGroup must preserve the CoGroup's key groups
      (Theorem 2 through the tagged-union argument),
    * a Reduce moving past a Match needs the invariant grouping
      conditions (Theorem 4 / Section 4.3.2): the Reduce groups on a
      superset of the Match key of its side, and the Match behaves as a
      group-preserving per-record mapper of that side (other-side key
      unique, per-pair emission at most one, decisions inside the key).
    """
    pu = ctx.props(unary)
    pb = ctx.props(binary)
    if not roc(pu, pb):
        return False
    other_attrs = ctx.out_attrs(other_node)
    if (pu.reads | pu.writes) & other_attrs:
        return False
    if isinstance(binary, CoGroupOp):
        # The paper's tagged-union argument (Section 4.3.2) pushes a Map
        # below a CoGroup by *rewriting* the UDF with a lineage guard
        # (f_R ignores S-tagged records).  A non-intrusive optimizer cannot
        # perform that rewrite: above the CoGroup the Map also sees outputs
        # of right-only key groups (which lack left-side attributes), below
        # it it does not — the plans differ observably.  Without lineage
        # information we must stay conservative and keep the CoGroup as a
        # reorder barrier.
        return False
    if isinstance(unary, ReduceOp):
        if not isinstance(binary, MatchOp):
            return False  # Reduce past Cross needs |R| = 1; not supported
        side_key = frozenset(binary.side_key_attrs(side))
        if not side_key <= unary.key_attrs():
            return False
        return kgp_match_side(ctx, binary, side, other_node, unary.key_attrs())
    return True


def can_rotate(
    upper: UdfOperator,
    lower: UdfOperator,
    stay_node: Node,
    outer_node: Node,
    ctx: PlanContext,
) -> bool:
    key = (can_rotate, upper, lower, stay_node, outer_node)
    cached = ctx.rule_cache.get(key)
    if cached is None:
        cached = _can_rotate(upper, lower, stay_node, outer_node, ctx)
        ctx.rule_cache[key] = cached
    return cached


def _can_rotate(
    upper: UdfOperator,
    lower: UdfOperator,
    stay_node: Node,
    outer_node: Node,
    ctx: PlanContext,
) -> bool:
    """Binary/binary rotation legality (Lemma 1 generalized).

    ``upper`` currently consumes ``lower``'s output; after rotation
    ``lower`` is on top.  ``stay_node`` is the lower operator's child that
    stays directly under it; ``outer_node`` is the upper operator's other
    input, which descends below the lower operator.
    """
    if not isinstance(upper, (MatchOp, CrossOp)):
        return False
    if not isinstance(lower, (MatchOp, CrossOp)):
        return False
    pu = ctx.props(upper)
    pv = ctx.props(lower)
    if not roc(pu, pv):
        return False
    if pu.accessed & ctx.out_attrs(stay_node):
        return False
    if pv.accessed & ctx.out_attrs(outer_node):
        return False
    return True


# ---------------------------------------------------------------------------
# Firing the rules
# ---------------------------------------------------------------------------


def swaps(
    op: Operator, inputs: tuple, side: int, lower, ctx: PlanContext,
    build: Callable[[Operator, tuple], T], node_of: Callable[..., Node],
) -> Iterator[T]:
    """All single swaps of the upper operator ``op`` over ``inputs`` with
    the lower operator ``lower`` (its ``op`` and ``children``) at
    ``inputs[side]`` — the one body of every rule, over trees or cells.

    ``build(op, children)`` makes each sub-flow of a result (a
    :class:`Node`, or a memo cell) and ``node_of(input)`` is the tree
    legality reads for an input.
    """
    lop = lower.op
    if not isinstance(op, UdfOperator) or not isinstance(lop, UdfOperator):
        return
    below = lower.children
    if op.arity == 1:
        if lop.arity == 1:
            if can_swap_unary_unary(op, lop, ctx):
                yield build(lop, (build(op, below),))
            return
        for s in (0, 1):
            if can_exchange_unary_binary(op, lop, s, node_of(below[1 - s]), ctx):
                yield build(lop, replace_at(below, s, build(op, (below[s],))))
        return
    # Binary root: lift a unary out of an input, or rotate with a binary child.
    other = node_of(inputs[1 - side])
    if lop.arity == 1:
        if can_exchange_unary_binary(lop, op, side, other, ctx):
            yield build(lop, (build(op, replace_at(inputs, side, below[0])),))
    elif isinstance(lop, (MatchOp, CrossOp)) and isinstance(op, (MatchOp, CrossOp)):
        for taken_side in (0, 1):
            if can_rotate(op, lop, node_of(below[1 - taken_side]), other, ctx):
                upper = build(op, replace_at(inputs, side, below[taken_side]))
                yield build(lop, replace_at(below, taken_side, upper))


def replace_at(items: tuple, i: int, item) -> tuple:
    """``items`` with position ``i`` holding ``item``."""
    return items[:i] + (item,) + items[i + 1 :]
