"""Plan enumeration (Section 6).

Two enumerators are provided:

* :func:`enumerate_flows` — the production enumerator: breadth-first
  closure of the input flow under all valid pairwise swaps (the set
  Algorithm 1 characterizes, computed over general trees with binary
  operators).
* :func:`enum_alternatives_chain` — a faithful transcription of the
  paper's Algorithm 1 for single-input (chain) data flows, including the
  memo table and the "descend once per distinct candidate root" rule.
  Tests assert it agrees with the closure on chains.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from ..core.errors import OptimizationError, PlanError
from ..core.operators import Sink, Source, UdfOperator
from ..core.plan import Node, signature
from .context import PlanContext
from .rules import can_swap_unary_unary, local_swaps


def _neighbors_memo(
    node: Node, ctx: PlanContext, memo: dict[Node, tuple[Node, ...]]
) -> tuple[Node, ...]:
    """All single-swap neighbors of ``node``, memoized per interned subtree.

    The closure's alternatives share almost all of their subtrees, so the
    neighbor lists of those subtrees — including every legality check they
    imply — are computed once per distinct subtree instead of once per
    occurrence in a BFS-visited plan.
    """
    cached = memo.get(node)
    if cached is not None:
        return cached
    out: list[Node] = list(local_swaps(node, ctx))
    for i, child in enumerate(node.children):
        for alt in _neighbors_memo(child, ctx, memo):
            new_children = list(node.children)
            new_children[i] = alt
            out.append(Node(node.op, tuple(new_children)))
    result = tuple(out)
    memo[node] = result
    return result


def iter_flows(
    body: Node,
    ctx: PlanContext,
    limit: int = 1_000_000,
    neighbor_memo: dict[Node, tuple[Node, ...]] | None = None,
) -> Iterator[Node]:
    """Lazily yield all flows derivable from ``body`` by valid reorderings.

    Alternatives are produced in exact breadth-first discovery order —
    identical, prefix for prefix, to :func:`enumerate_flows` — so a
    consumer that stops early (guided planning's tie-break)
    sees the same deterministic sequence the eager enumerator
    materializes.  ``body`` must be sink-free (use
    :func:`repro.core.plan.body`); the original flow is always yielded
    first.

    ``neighbor_memo`` may be a caller-owned dict (the
    :class:`~repro.optimizer.memo.Memo`'s ``neighbors`` table): swap
    legality is hint-independent, so neighbor lists persist across
    optimize calls and feedback rounds and partial expansions resume for
    free.
    """
    if isinstance(body.op, Sink):
        raise PlanError("strip the sink before enumerating (see plan.body)")
    if neighbor_memo is None:
        neighbor_memo = {}
    # Nodes are hash-consed, so membership in the seen-set is an O(1)
    # identity check — no signatures are recomputed per BFS neighbor.
    seen: set[Node] = {body}
    queue: deque[Node] = deque([body])
    yield body
    while queue:
        current = queue.popleft()
        for alternative in _neighbors_memo(current, ctx, neighbor_memo):
            if alternative in seen:
                continue
            if len(seen) >= limit:
                raise OptimizationError(
                    f"enumeration exceeded {limit} alternatives"
                )
            seen.add(alternative)
            queue.append(alternative)
            yield alternative


def enumerate_flows(
    body: Node,
    ctx: PlanContext,
    limit: int = 1_000_000,
    neighbor_memo: dict[Node, tuple[Node, ...]] | None = None,
) -> list[Node]:
    """All data flows derivable from ``body`` by valid reorderings.

    ``body`` must be sink-free (use :func:`repro.core.plan.body`); the
    original flow is always element 0 of the result.
    """
    return list(iter_flows(body, ctx, limit, neighbor_memo))


def count_alternatives(body: Node, ctx: PlanContext) -> int:
    return len(enumerate_flows(body, ctx))


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
