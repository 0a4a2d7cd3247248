"""The reference enumerator: the breadth-first closure, tree by tree.

The optimizer enumerates a plan space once, through the group memo
(:meth:`~repro.optimizer.memo.Memo.explore`).  This module keeps the
tree-at-a-time algorithm that memo is checked against: start from the
flow, apply every legal single swap anywhere in the tree
(:func:`repro.optimizer.rules.swaps` instantiated over :class:`Node`),
and collect the fixed point in breadth-first discovery order.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.core.errors import OptimizationError, PlanError
from repro.core.operators import Sink
from repro.core.plan import Node
from repro.optimizer import PlanContext
from repro.optimizer.rules import swaps


def local_swaps(node: Node, ctx: PlanContext) -> Iterator[Node]:
    """All single swaps whose *upper* operator is this node's root."""
    for side, child in enumerate(node.children):
        yield from swaps(node.op, node.children, side, child, ctx, Node, _same)


def _same(node: Node) -> Node:
    return node


def _neighbors_memo(
    node: Node, ctx: PlanContext, memo: dict[Node, tuple[Node, ...]]
) -> tuple[Node, ...]:
    """All single-swap neighbors of ``node``, memoized per interned subtree."""
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
    body: Node, ctx: PlanContext, limit: int = 1_000_000
) -> Iterator[Node]:
    """Lazily yield all flows derivable from ``body`` by valid reorderings,
    in breadth-first discovery order, ``body`` first.  ``body`` must be
    sink-free (use :func:`repro.core.plan.body`)."""
    if isinstance(body.op, Sink):
        raise PlanError("strip the sink before enumerating (see plan.body)")
    neighbor_memo: dict[Node, tuple[Node, ...]] = {}
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
