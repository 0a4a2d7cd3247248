"""The paper's Algorithm 1, transcribed for chain data flows.

A faithful transcription of Algorithm 1 (Section 6) for single-input
flows (sources, sinks, unary operators), including the memo table and
the "descend once per distinct candidate root" rule.  The optimizer
enumerates through the group memo
(:func:`~repro.optimizer.enumeration.enumerate_flows`); the tests assert
that the two agree on chains.
"""

from __future__ import annotations

from repro.core.errors import PlanError
from repro.core.operators import Sink, Source, UdfOperator
from repro.core.plan import Node, signature
from repro.optimizer import PlanContext
from repro.optimizer.rules import can_swap_unary_unary


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
