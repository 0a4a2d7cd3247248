"""Process-parallel costing of plan alternatives over sharded memos.

The per-alternative physical-optimization loop is embarrassingly
parallel once the memo can be sharded: each worker costs a contiguous
chunk of the alternative list against its own memo and the parent merges
the worker-computed entries back into the shared one.  Per-node memo
entries are deterministic — computed bottom-up from the child entries,
independent of evaluation order — so the merged result is bit-identical
to the sequential shared-memo pass (parity-pinned by
``tests/optimizer/test_parallel_costing.py``).

Worker-merge protocol
---------------------
Workers are **forked**, never spawned: the alternatives, plan context,
estimator, cost parameters, and the current shared memo are inherited by
address, so nothing optimizer-side needs to be picklable and a warm memo
(a feedback round's surviving entries) seeds every worker for free.  A
worker's memo also stays warm across every chunk it processes; each task
ships back only the entries that are new since its own start.

The ship-back payload is *pure primitives*, not pickled plan objects:

* a logical :class:`~repro.core.plan.Node` is referenced by the id it
  has in the parent address space (valid across a fork; the parent keeps
  an id -> node registry built from the interned alternatives);
* a physical option is encoded as ``(ships, local, build_side,
  child_refs, cost_self, cost_total, partitioning)`` with attributes by
  name, and a **child reference is ``(node_id, option_index)``** — sound
  because entry option tuples are deterministic, so every copy of an
  entry lists its options in the same order no matter which worker (or
  the parent) computed it;
* per-alternative results are ``(index, (node_id, option_index))`` refs
  into the merged table.

The parent decodes entries in payload order (bottom-up: the memo dict is
insertion-ordered and children are stored before parents), resolving
child references against the shared table as it grows; an entry another
worker already delivered is skipped without constructing anything.
Operator objects and UDF callables never cross the process boundary.

On platforms without ``fork`` the caller falls back to sequential
costing (``available()`` gates the dispatch).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from ..core.plan import Node
from ..core.schema import Attribute
from ..obs.tracer import NOOP_TRACER
from .cardinality import CardinalityEstimator, EstStats
from .context import PlanContext
from .cost import CostParams
from .memo import Memo
from .physical import (
    LocalStrategy,
    PhysicalOptimizer,
    PhysNode,
    Ship,
    ShipKind,
    _BROADCAST,
    _FORWARD,
)

#: Contiguous chunks handed to the pool per worker: several per worker
#: load-balance the pool and let the parent merge early chunks while
#: later ones still cost.  Chunks are contiguous because the closure is
#: BFS-ordered — neighboring alternatives differ by single swaps and
#: share most subtrees, so a contiguous chunk touches (and duplicates)
#: far fewer distinct memo entries than a strided one.
_CHUNKS_PER_WORKER = 4

#: Fork-inherited worker state: (alternatives, ctx, estimator, params, memo).
_WORKER: tuple | None = None

_SHIP_KINDS = tuple(ShipKind)
_SHIP_CODE = {kind: i for i, kind in enumerate(_SHIP_KINDS)}
_LOCALS = tuple(LocalStrategy)
_LOCAL_CODE = {local: i for i, local in enumerate(_LOCALS)}
_FORWARD_CODE = _SHIP_CODE[ShipKind.FORWARD]
_BROADCAST_CODE = _SHIP_CODE[ShipKind.BROADCAST]


def available() -> bool:
    """Parallel costing needs fork-style process inheritance."""
    return "fork" in multiprocessing.get_all_start_methods()


def _build_registry(alternatives: tuple[Node, ...]) -> dict[int, Node]:
    """Every logical node a payload may reference, by parent id."""
    registry: dict[int, Node] = {}
    seen: set[Node] = set()
    stack: list[Node] = list(alternatives)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        registry[id(node)] = node
        stack.extend(node.children)
    return registry


def _encode_ship(ship: Ship) -> tuple:
    key = ship.key
    return (
        _SHIP_CODE[ship.kind],
        None if key is None else tuple(a.name for a in key),
    )


def _cost_shard(indices: list[int]):
    """Worker body: cost one chunk, ship new entries as primitives."""
    alternatives, ctx, estimator, params, memo = _WORKER
    base_table = frozenset(memo.table)
    base_est = frozenset(memo.est_cache)
    optimizer = PhysicalOptimizer(ctx, estimator, params, memo=memo)
    best = [(i, optimizer.optimize(alternatives[i])) for i in indices]
    # Option reference map over the worker's full table: children of a
    # new entry may be pre-task (fork-inherited or earlier-chunk) options.
    refs: dict[int, tuple[int, int]] = {}
    for node, options in memo.table.items():
        pid = id(node)
        for index, phys in enumerate(options):
            refs[id(phys)] = (pid, index)
    entries = []
    for node, options in memo.table.items():
        if node in base_table:
            continue
        est = memo.est_cache[node]
        entries.append(
            (
                id(node),
                (est.rows, est.width, est.calls),
                tuple(
                    (
                        tuple(_encode_ship(ship) for ship in phys.ships),
                        _LOCAL_CODE[phys.local],
                        phys.build_side,
                        tuple(refs[id(child)] for child in phys.children),
                        phys.cost_self,
                        phys.cost_total,
                        tuple(
                            tuple(a.name for a in part)
                            for part in phys.partitioning
                        ),
                    )
                    for phys in options
                ),
            )
        )
    # Estimates cached for nodes whose own entry predates this task
    # (e.g. a feedback estimator touching children early).
    est_only = [
        (id(node), (est.rows, est.width, est.calls))
        for node, est in memo.est_cache.items()
        if node not in base_est and node in base_table
    ]
    roots = [(i, refs[id(phys)]) for i, phys in best]
    return roots, entries, est_only


class _Decoder:
    """Rebuilds worker entries into the shared memo, deduplicating."""

    def __init__(self, memo: Memo, registry: dict[int, Node]) -> None:
        self.memo = memo
        self.registry = registry
        self._attrs: dict[str, Attribute] = {}
        self._ships: dict[tuple, Ship] = {}
        self._parts: dict[tuple, frozenset] = {}

    def _attr(self, name: str) -> Attribute:
        attr = self._attrs.get(name)
        if attr is None:
            attr = Attribute(name)
            self._attrs[name] = attr
        return attr

    def _ship(self, encoded: tuple) -> Ship:
        ship = self._ships.get(encoded)
        if ship is None:
            code, key_names = encoded
            if code == _FORWARD_CODE:
                ship = _FORWARD
            elif code == _BROADCAST_CODE:
                ship = _BROADCAST
            else:
                ship = Ship(
                    _SHIP_KINDS[code],
                    tuple(self._attr(n) for n in key_names),
                )
            self._ships[encoded] = ship
        return ship

    def _partitioning(self, encoded: tuple) -> frozenset:
        parts = self._parts.get(encoded)
        if parts is None:
            parts = frozenset(
                frozenset(self._attr(n) for n in names) for names in encoded
            )
            self._parts[encoded] = parts
        return parts

    def _adopt_est(self, node: Node, est: EstStats) -> None:
        est_cache = self.memo.est_cache
        if node not in est_cache:
            est_cache[node] = est

    def absorb(self, payload) -> list[tuple[int, PhysNode]]:
        """Merge one worker payload; returns the resolved root options."""
        roots, entries, est_only = payload
        memo = self.memo
        table = memo.table
        registry = self.registry
        for pid, est_triple, options in entries:
            node = registry[pid]
            est = EstStats(*est_triple)
            self._adopt_est(node, est)
            if node in table:  # another worker delivered this entry first
                continue
            decoded = []
            for ships, local, build_side, children, cost_self, total, parts in options:
                decoded.append(
                    PhysNode(
                        logical=node,
                        ships=tuple(self._ship(s) for s in ships),
                        local=_LOCALS[local],
                        build_side=build_side,
                        children=tuple(
                            table[registry[cpid]][cidx]
                            for cpid, cidx in children
                        ),
                        est=est,
                        cost_self=cost_self,
                        cost_total=total,
                        partitioning=self._partitioning(parts),
                    )
                )
            memo.store(node, tuple(decoded))
        for pid, est_triple in est_only:
            self._adopt_est(registry[pid], EstStats(*est_triple))
        return [
            (index, table[registry[pid]][opt_index])
            for index, (pid, opt_index) in roots
        ]


def cost_alternatives(
    alternatives: tuple[Node, ...],
    ctx: PlanContext,
    estimator: CardinalityEstimator,
    params: CostParams,
    memo: Memo,
    jobs: int,
    tracer=NOOP_TRACER,
) -> list[tuple[Node, PhysNode]]:
    """Cost every alternative across ``jobs`` forked workers.

    Returns ``(alternative, cheapest physical plan)`` pairs in the input
    order and merges all worker-computed memo entries into ``memo``.
    The estimator must already be bound to ``memo``
    (:meth:`~repro.optimizer.memo.Memo.bind`) so workers share its caches.
    """
    global _WORKER
    count = len(alternatives)
    pieces = min(count, jobs * _CHUNKS_PER_WORKER)
    bounds = [count * i // pieces for i in range(pieces + 1)]
    chunks = [
        list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    decoder = _Decoder(memo, _build_registry(alternatives))
    best: dict[int, PhysNode] = {}
    _WORKER = (alternatives, ctx, estimator, params, memo)
    dispatch_span = tracer.span(
        "optimizer.parallel.dispatch",
        category="optimizer",
        alternatives=count,
        chunks=len(chunks),
        jobs=jobs,
    )
    try:
        fork = multiprocessing.get_context("fork")
        with dispatch_span, ProcessPoolExecutor(
            max_workers=jobs, mp_context=fork
        ) as pool:
            # Consume payloads as they arrive (chunk order, so the merge
            # is deterministic): the parent decodes one chunk's entries
            # while the others are still costing.  Each absorb is traced
            # as one chunk span: the parent-side cost of merging that
            # chunk's worker-shipped memo entries.
            for chunk_index, payload in enumerate(
                pool.map(_cost_shard, chunks)
            ):
                with tracer.span(
                    "optimizer.parallel.chunk",
                    category="optimizer",
                    chunk=chunk_index,
                    alternatives=len(chunks[chunk_index]),
                ) as chunk_span:
                    resolved = decoder.absorb(payload)
                    for index, phys in resolved:
                        best[index] = phys
                chunk_span.set(entries=len(payload[1]))
                tracer.count("optimizer.parallel_chunks")
    finally:
        _WORKER = None
    return [(alt, best[i]) for i, alt in enumerate(alternatives)]
