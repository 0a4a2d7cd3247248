"""Plan enumeration (Section 6).

Two enumerators are provided:

* :func:`enumerate_flows` — the production enumerator: every flow
  reachable from the input by valid pairwise swaps (the set Algorithm 1
  characterizes, over general trees with binary operators), listed from
  the group memo's cells (:meth:`~repro.optimizer.memo.Memo.trees`).
* :func:`enum_alternatives_chain` — a faithful transcription of the
  paper's Algorithm 1 for single-input (chain) data flows, including the
  memo table and the "descend once per distinct candidate root" rule.
  Tests assert it agrees with the memo on chains.
"""

from __future__ import annotations

from ..core.errors import PlanError
from ..core.operators import Sink, Source, UdfOperator
from ..core.plan import Node, signature
from .context import PlanContext
from .memo import Memo
from .rules import can_swap_unary_unary


def _memo_for(body: Node, ctx: PlanContext) -> Memo:
    if isinstance(body.op, Sink):
        raise PlanError("strip the sink before enumerating (see plan.body)")
    return Memo(op_names=ctx.op_names)


def enumerate_flows(
    body: Node, ctx: PlanContext, limit: int = 1_000_000
) -> list[Node]:
    """All data flows derivable from ``body`` by valid reorderings.

    ``body`` must be sink-free (use :func:`repro.core.plan.body`); the
    original flow is always element 0 of the result.  A space of more
    than ``limit`` flows raises :class:`OptimizationError` before any is
    listed.
    """
    return _memo_for(body, ctx).trees(body, ctx, limit)


def count_alternatives(body: Node, ctx: PlanContext) -> int:
    memo = _memo_for(body, ctx)
    return memo.tree_count(memo.explore(body, ctx))


# ---------------------------------------------------------------------------
# Algorithm 1 (paper pseudocode, single-input operators)
# ---------------------------------------------------------------------------


def enum_alternatives_chain(flow: Node, ctx: PlanContext) -> list[Node]:
    """Paper Algorithm 1 over a chain flow (sources, sinks, unary operators).

    The memo table is keyed on the interned sub-flow node itself, which
    plays the role of ``getMTabKey`` (hash-consing makes the structural
    key an identity lookup).
    """
    memo: dict[Node, frozenset[Node]] = {}
    result = _enum_chain(flow, ctx, memo)
    return sorted(result, key=signature)


def _enum_chain(
    flow: Node, ctx: PlanContext, memo: dict[Node, frozenset[Node]]
) -> frozenset[Node]:
    cached = memo.get(flow)
    if cached is not None:
        return cached

    root = flow.op
    if isinstance(root, Source):
        alts: frozenset[Node] = frozenset({flow})
    elif isinstance(root, Sink):
        alts = frozenset(
            Node(root, (alt,)) for alt in _enum_chain(flow.only_child, ctx, memo)
        )
    elif isinstance(root, UdfOperator) and root.arity == 1:
        collected: set[Node] = set()
        candidates: set[UdfOperator] = set()
        for without_root in _enum_chain(flow.only_child, ctx, memo):
            # add r back on top of each alternative of D-r (line 21)
            collected.add(Node(root, (without_root,)))
            s = without_root.op
            if (
                isinstance(s, UdfOperator)
                and s.arity == 1
                and s not in candidates
                and can_swap_unary_unary(root, s, ctx)
            ):
                candidates.add(s)
                # replace s by r, enumerate, then append s (lines 24-27)
                pushed_down = Node(root, without_root.children)
                for sub in _enum_chain(pushed_down, ctx, memo):
                    collected.add(Node(s, (sub,)))
        alts = frozenset(collected)
    else:
        raise PlanError(
            "Algorithm 1 as printed handles single-input operators only; "
            "use enumerate_flows for trees with binary operators"
        )
    memo[flow] = alts
    return alts
