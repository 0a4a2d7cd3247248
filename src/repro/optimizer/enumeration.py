"""Plan enumeration (Section 6).

:func:`enumerate_flows` lists every flow reachable from the input by
valid pairwise swaps (the set the paper's Algorithm 1 characterizes,
over general trees with binary operators) from the group memo's cells
(:meth:`~repro.optimizer.memo.Memo.trees`).  A transcription of
Algorithm 1 itself, for chain flows, is the test reference
``tests/optimizer/algorithm1.py``.
"""

from __future__ import annotations

from ..core.errors import PlanError
from ..core.operators import Sink
from ..core.plan import Node
from .context import PlanContext
from .memo import ENUMERATION_LIMIT, Memo


def _memo_for(body: Node, ctx: PlanContext) -> Memo:
    if isinstance(body.op, Sink):
        raise PlanError("strip the sink before enumerating (see plan.body)")
    return Memo(op_names=ctx.op_names)


def enumerate_flows(
    body: Node, ctx: PlanContext, limit: int = ENUMERATION_LIMIT
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
