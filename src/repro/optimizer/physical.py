"""Cost-based physical optimization: shipping and local strategies.

For every logical alternative the physical optimizer chooses, per
operator, a *shipping strategy* for each input (forward, hash-partition,
broadcast) and a *local strategy* (pipelined map, sort-based grouping,
hash join with a build side, nested-loop cross, sort-based co-group),
tracking *interesting properties* — here, the hash-partitioning of the
data — so that, e.g., a Match can reuse the partitioning a Reduce
established (the Q15 discussion of Section 7.3).  Only components an
operator outside the sub-flow could reuse are kept (:meth:`Memo.interesting`).

The search is a dynamic program over the group memo's *cells* of
equivalent sub-flows (:meth:`PhysicalOptimizer.cell_options`): each cell
is costed once, into a table of the k cheapest trees per option bucket
(interesting partitioning, estimated rows, pinned tree), from its input
cells' tables; the memo records each table's width k and invalidates it
along the dirty spine of changed operators.  One planner per operator
lists a node's physical variants over one combination of input options
as flat *variant records*, ``(cost_self, ships, local, build_side,
partitioning)`` tuples; the search ranks them on floats and builds a
:class:`PhysNode` only for a variant a table finally keeps (*lazy
materialization*, counted by :attr:`PhysicalOptimizer.nodes_built`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

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
from ..core.schema import Attribute
from .cardinality import CardinalityEstimator, EstStats
from .context import PlanContext
from .cost import CostParams
from .memo import Cell, Memo

Partitioning = frozenset[frozenset[Attribute]]
RANDOM: Partitioning = frozenset()
#: One cell's options: ``(interesting partitioning, estimated rows, pinned
#: tree or None)`` -> (options over distinct logical trees, cheapest first; the
#: cheapest cost of an option the table leaves out, ``inf`` if none).
CellTable = dict[tuple, tuple[tuple["PhysNode", ...], float]]
#: One physical variant of a node, not yet built: ``(cost_self, ships,
#: local, build_side, partitioning)``.
Variant = tuple[float, tuple["Ship", ...], "LocalStrategy", "int | None", Partitioning]


class ShipKind(enum.Enum):
    FORWARD = "forward"
    PARTITION = "partition"
    BROADCAST = "broadcast"


@dataclass(frozen=True, slots=True)
class Ship:
    kind: ShipKind
    key: tuple[Attribute, ...] | None = None

    def describe(self) -> str:
        if self.kind is ShipKind.PARTITION and self.key:
            return f"partition({', '.join(a.name for a in self.key)})"
        return self.kind.value


_FORWARD = Ship(ShipKind.FORWARD)
_BROADCAST = Ship(ShipKind.BROADCAST)
_FORWARD_SHIPS = (_FORWARD,)
#: A binary operator's ships when it broadcasts its input 0, or input 1.
_BROADCAST_SHIPS = ((_BROADCAST, _FORWARD), (_FORWARD, _BROADCAST))


class LocalStrategy(enum.Enum):
    SCAN = "scan"
    PIPELINE = "pipelined map"
    SORT_GROUP = "sort-based group"
    HASH_JOIN = "hash join"
    NESTED_LOOP = "nested-loop cross"
    SORT_COGROUP = "sort-based co-group"
    COLLECT = "collect"


@dataclass(frozen=True, slots=True, eq=False)
class PhysNode:
    """One operator of a physical execution plan.

    ``eq=False`` keeps ``object`` identity hashing/equality: the generated
    dataclass ``__hash__``/``__eq__`` would recurse over the whole subtree
    on every memo or subtree-cache lookup.  The cell tables hand
    structurally shared sub-plans around as the *same* object, so identity
    is the right equivalence for every hot lookup (engine subtree cache,
    rank bookkeeping); structural comparisons go through ``describe()``.
    """

    logical: Node
    ships: tuple[Ship, ...]
    local: LocalStrategy
    build_side: int | None
    children: tuple["PhysNode", ...]
    est: EstStats
    cost_self: float
    cost_total: float
    partitioning: Partitioning

    @property
    def name(self) -> str:
        return self.logical.op.name

    def pipeline_stages(self) -> tuple[tuple["PhysNode", ...], ...]:
        """Decompose the plan into the engine's streaming pipeline stages.

        A *stage* is one per-partition streaming pass: a pipeline breaker
        (source scan, any operator behind a non-forward ship, or a
        blocking local strategy — sort-based Reduce/CoGroup, hash-join
        build, nested-loop cross) followed by the maximal chain of
        forward-shipped Map operators (and a collecting Sink) fused on
        top of it.  Every node of the plan appears in exactly one stage;
        stages are listed in execution order (children before parents),
        each stage upstream-first.
        """
        stages: list[tuple[PhysNode, ...]] = []

        def visit(top: "PhysNode") -> None:
            chain: list[PhysNode] = []
            cur = top
            while pipelineable(cur):
                chain.append(cur)
                cur = cur.children[0]
            for child in cur.children:
                visit(child)
            chain.reverse()
            stages.append((cur, *chain))

        visit(self)
        return tuple(stages)

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        ships = ", ".join(s.describe() for s in self.ships) or "-"
        build = f", build={self.build_side}" if self.build_side is not None else ""
        lines = [
            f"{pad}{self.name} [{self.local.value}{build}] ships: {ships} "
            f"(rows~{self.est.rows:.0f}, cost~{self.cost_total:.3f}s)"
        ]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


def pipelineable(node: PhysNode) -> bool:
    """True when *node* fuses into the pipeline stage of its only child.

    Forward-shipped Maps stream record batches without a barrier, and a
    Sink merely collects its input; everything else — source scans,
    non-forward ships, blocking local strategies — breaks the pipeline.
    """
    op = node.logical.op
    if isinstance(op, Sink):
        return True
    return isinstance(op, MapOp) and all(
        ship.kind is ShipKind.FORWARD for ship in node.ships
    )


def _keep_partitionings(
    parts: Partitioning, writes: frozenset[Attribute]
) -> Partitioning:
    return frozenset(p for p in parts if not (p & writes))


def _compatible(parts: Partitioning, key: frozenset[Attribute]) -> bool:
    """A partitioning on P co-locates every K-group when P is a subset of K."""
    return any(p <= key for p in parts)


class PhysicalOptimizer:
    def __init__(
        self, ctx: PlanContext, estimator: CardinalityEstimator, params: CostParams,
        memo: Memo | None = None,
    ) -> None:
        self.ctx = ctx
        self.est = estimator
        self.params = params
        # The memo whose cells this instance costs; a caller-provided one
        # also shares tables across instances and feedback rounds.
        self._memo = memo if memo is not None else Memo(op_names=ctx.op_names)
        self._planners: dict[UdfOperator, Callable[..., list[Variant]]] = {}
        #: Cell option tables this instance computed (not found in the memo).
        self.tables_computed = 0
        #: PhysNodes this instance built: one per option a table keeps,
        #: none for a variant that loses.
        self.nodes_built = 0

    # -- public ------------------------------------------------------------

    @property
    def memo(self) -> Memo:
        return self._memo

    # -- cell-level option tables ----------------------------------------------

    def cell_options(self, cell: Cell, k: int) -> CellTable:
        """The option table of one equivalence cell, at least ``k`` wide.

        Options are bucketed by everything an enclosing operator's estimate
        and cost can observe about its input: the interesting partitioning,
        the exact estimated row count, and — when the estimator pins an
        observation to the option's logical tree — the tree itself (width
        follows from the cell's attribute set).  Within a bucket options
        differ only in their logical tree and ``cost_total``, so the ``k``
        cheapest distinct trees, plus everything tying the k-th, are all an
        enclosing top-``k`` plan can use — up to rounding: a dearer option can
        *tie* a kept one once the enclosing costs are added, so each bucket
        also carries the cheapest cost it left out, rounded upwards sum by
        sum.  A memo table at least ``k`` wide answers k exactly and is
        reused; a narrower one is recomputed.
        Each kept option's cost is the float a tree-at-a-time search over
        the same planners computes for its tree, bit for bit.
        """
        memo = self._memo
        table = memo.cell_options.get(cell)
        if table is None or memo.cell_width[cell] < k:
            table = self._compute_cell(cell, k)
            memo.store_cell(cell, table, k)
            self.tables_computed += 1
        return table

    def _compute_cell(self, cell: Cell, k: int) -> CellTable:
        found: dict[tuple, _Bucket] = {}
        interesting = self._memo.interesting(cell.names)

        def bucket_of(partitioning: Partitioning, rows: float, pin) -> _Bucket:
            key = (interesting[partitioning], rows, pin)
            bucket = found.get(key)
            if bucket is None:
                bucket = found[key] = _Bucket(k)
            return bucket

        for expr in cell.exprs:
            op = expr.op
            if isinstance(op, Source):
                est, variant = self._source(expr.rep)
                bucket_of(variant[4], est.rows, expr.rep).add(
                    expr.rep, variant[0], variant, est, ())
                continue
            if not isinstance(op, UdfOperator):
                raise OptimizationError(f"cannot plan {op!r}")
            variants = self._planner(op)
            # Per input bucket: its options, left-out cost, head (option,
            # tree and cost) and whether it is unpinned.
            tables = [
                [(kept, lost, kept[0], kept[0].logical, kept[0].cost_total,
                  key[2] is None)
                 for key, (kept, lost) in self.cell_options(child, k).items()]
                for child in expr.children
            ]
            for inputs in product(*tables):
                # Every option of one input bucket presents the same rows,
                # bytes and partitioning, so the estimate and the variant
                # records are those planned for the bucket heads; other
                # picks differ in their children's summed cost only.  That
                # takes observations to be subtree-closed: a tree over an
                # unpinned input is unpinned, a pinned bucket one tree.
                options, losts, heads, trees, costs, unpinned = zip(*inputs)
                head = Node(op, trees)
                est = self.est.estimate(head)
                pinned = self.est.observed(head)
                if pinned and any(unpinned):
                    raise OptimizationError(
                        f"{op.name}: observed over an unobserved input — "
                        "the statistics store is not subtree-closed"
                    )
                pin = head if pinned else None
                planned = [
                    (variant, bucket_of(variant[4], est.rows, pin))
                    for variant in variants(est, *heads)
                ]
                picked, lost = _cheapest_combinations(options, losts, k)
                below = sum(costs)  # as _build adds the children up
                for variant, bucket in planned:
                    bucket.add(head, variant[0] + below, variant, est, heads)
                    bucket.lost = min(bucket.lost, variant[0] + lost)
                for below, picks in picked:
                    tree = None
                    for variant, bucket in planned:
                        total = variant[0] + below
                        if not bucket.admits(total):
                            continue
                        if tree is None:
                            tree = Node(op, tuple(o.logical for o in picks))
                        bucket.add(tree, total, variant, est, picks)
        return {
            key: (bucket.options(self._build, interesting), bucket.lost)
            for key, bucket in found.items()
        }

    # -- helpers --------------------------------------------------------------

    def _build(
        self, node: Node, est: EstStats, variant: Variant, children: tuple[PhysNode, ...],
        interesting: dict[Partitioning, Partitioning],
    ) -> PhysNode:
        """Materialize one kept variant over ``children``."""
        self.nodes_built += 1
        cost_self, ships, local, build_side, partitioning = variant
        total = cost_self + sum(c.cost_total for c in children)
        return PhysNode(node, ships, local, build_side, children, est, cost_self,
                        total, interesting[partitioning])

    def _udf_cpu(self, op: UdfOperator) -> Callable[[EstStats], float]:
        """``est ->`` the CPU seconds of ``op``'s UDF calls and records."""
        cpu_per_call = self.est.hints_for(op.name).cpu_per_call
        params = self.params
        return lambda est: params.cpu_seconds(
            est.calls * cpu_per_call + est.rows * params.record_overhead
        )

    # -- per-operator planning ---------------------------------------------------

    def _source(self, node: Node) -> tuple[EstStats, Variant]:
        est = self.est.estimate(node)
        op = node.op
        if isinstance(op, MaterializedSource):
            # An executed stage boundary: the data is an in-memory
            # checkpoint whose production was charged when the stage ran,
            # so re-reading it is free, and it arrives already hash-
            # partitioned however the executed plan left it.
            return est, (0.0, (), LocalStrategy.SCAN, None, op.partitioning)
        cost = self.params.disk_seconds(est.bytes)
        return est, (cost, (), LocalStrategy.SCAN, None, RANDOM)

    def _planner(self, op: UdfOperator) -> Callable[..., list[Variant]]:
        """The operator's ``variants(est, *inputs)``, made once per operator.

        ``variants`` lists the variant records of a node estimated ``est``
        over one combination of input options.  It reads of an input only
        its partitioning and estimate, so one call serves every tree of a
        cell over the same bucket heads, and whatever it derives from one
        input alone is derived once per input option (:func:`_per_input`).
        """
        planner = self._planners.get(op)
        if planner is not None:
            return planner
        for kind, make in (
            (MapOp, self._map_planner), (ReduceOp, self._reduce_planner),
            (MatchOp, self._match_planner), (CrossOp, self._cross_planner),
            (CoGroupOp, self._cogroup_planner),
        ):
            if isinstance(op, kind):
                planner = self._planners[op] = make(op)
                return planner
        raise OptimizationError(f"cannot plan {op!r}")  # pragma: no cover

    def _map_planner(self, op: MapOp):
        writes = self.ctx.props(op).writes
        udf_cpu = self._udf_cpu(op)
        kept = _per_input(lambda child: _keep_partitionings(child.partitioning, writes))

        def variants(est: EstStats, child: PhysNode) -> list[Variant]:
            return [(udf_cpu(est), _FORWARD_SHIPS, LocalStrategy.PIPELINE, None, kept(child))]

        return variants

    def _reduce_planner(self, op: ReduceOp):
        params = self.params
        key = op.key_attrs()
        partition = Ship(ShipKind.PARTITION, op.key_attr_tuple())
        udf_cpu = self._udf_cpu(op)
        parts = _keep_partitionings(frozenset({key}), self.ctx.props(op).writes)

        @_per_input
        def grouped(child: PhysNode) -> tuple[tuple[Ship], float]:
            ship, cost = _ship_to(child, key, partition, params)
            cost = 0.0 + cost + params.cpu_seconds(params.sort_units(child.est.rows))
            cost += params.disk_seconds(params.spill_bytes(child.est.bytes))
            return (ship,), cost

        def variants(est: EstStats, child: PhysNode) -> list[Variant]:
            ships, cost = grouped(child)
            return [(cost + udf_cpu(est), ships, LocalStrategy.SORT_GROUP, None, parts)]

        return variants

    def _match_planner(self, op: MatchOp):
        params = self.params
        writes = self.ctx.props(op).writes
        udf_cpu = self._udf_cpu(op)
        lkey_tuple, rkey_tuple = op.left_key_attrs(), op.right_key_attrs()
        # After a partitioned join only the join keys are valid partitioning
        # properties: prior partitionings were destroyed by the shuffle.
        repart_parts = _keep_partitionings(
            frozenset({frozenset(lkey_tuple), frozenset(rkey_tuple)}), writes
        )

        def side(key_tuple: tuple[Attribute, ...]):
            key, partition = frozenset(key_tuple), Ship(ShipKind.PARTITION, key_tuple)

            @_per_input
            def terms(child: PhysNode) -> tuple:
                rows, nbytes = child.est.rows, child.est.bytes
                build, probe = rows * params.build_unit, rows * params.probe_unit
                return (
                    *_ship_to(child, key, partition, params), nbytes, build, probe,
                    params.disk_seconds(params.spill_bytes(nbytes)),  # hash-join build
                    # broadcast, build on every instance; or forward and probe
                    params.net_seconds(params.broadcast_bytes(nbytes))
                    + params.cpu_seconds_single(build),
                    params.disk_seconds(params.spill_bytes(nbytes * params.degree)),
                    params.cpu_seconds(probe),
                    _keep_partitionings(child.partitioning, writes),
                )

            return terms

        lterms, rterms = side(lkey_tuple), side(rkey_tuple)

        def variants(est: EstStats, left: PhysNode, right: PhysNode) -> list[Variant]:
            (lship, lshuffle, lbytes, lbuild, lprobe, lspill,
             lbcast, lbcast_spill, lprobe_cpu, lparts) = lterms(left)
            (rship, rshuffle, rbytes, rbuild, rprobe, rspill,
             rbcast, rbcast_spill, rprobe_cpu, rparts) = rterms(right)
            udf_cost = udf_cpu(est)
            # (a) repartition both sides, hash join (build on the smaller side)
            if lbytes <= rbytes:
                build, units, spill = 0, lbuild + rprobe, lspill
            else:
                build, units, spill = 1, rbuild + lprobe, rspill
            cost = 0.0 + lshuffle + rshuffle + params.cpu_seconds(units)
            # (b)/(c) broadcast one side, forward the other, build on broadcast
            return [
                (cost + spill + udf_cost, (lship, rship), LocalStrategy.HASH_JOIN,
                 build, repart_parts),
                (lbcast + rprobe_cpu + lbcast_spill + udf_cost, _BROADCAST_SHIPS[0],
                 LocalStrategy.HASH_JOIN, 0, rparts),
                (rbcast + lprobe_cpu + rbcast_spill + udf_cost, _BROADCAST_SHIPS[1],
                 LocalStrategy.HASH_JOIN, 1, lparts),
            ]

        return variants

    def _cross_planner(self, op: CrossOp):
        params = self.params
        writes = self.ctx.props(op).writes
        udf_cpu = self._udf_cpu(op)

        @_per_input
        def terms(child: PhysNode) -> tuple[float, Partitioning]:
            return (
                params.net_seconds(params.broadcast_bytes(child.est.bytes)),
                _keep_partitionings(child.partitioning, writes),
            )

        def variants(est: EstStats, left: PhysNode, right: PhysNode) -> list[Variant]:
            pair_cost = params.cpu_seconds(est.calls * params.cross_unit)
            udf_cost = udf_cpu(est)
            (lbcast, lparts), (rbcast, rparts) = terms(left), terms(right)
            return [
                (lbcast + pair_cost + udf_cost, _BROADCAST_SHIPS[0],
                 LocalStrategy.NESTED_LOOP, 0, rparts),
                (rbcast + pair_cost + udf_cost, _BROADCAST_SHIPS[1],
                 LocalStrategy.NESTED_LOOP, 1, lparts),
            ]

        return variants

    def _cogroup_planner(self, op: CoGroupOp):
        params = self.params
        writes = self.ctx.props(op).writes
        udf_cpu = self._udf_cpu(op)
        lkey_tuple, rkey_tuple = op.left_key_attrs(), op.right_key_attrs()
        parts = _keep_partitionings(
            frozenset({frozenset(lkey_tuple), frozenset(rkey_tuple)}), writes
        )

        def side(key_tuple: tuple[Attribute, ...]):
            key, partition = frozenset(key_tuple), Ship(ShipKind.PARTITION, key_tuple)
            return _per_input(lambda child: (
                *_ship_to(child, key, partition, params),
                params.cpu_seconds(params.sort_units(child.est.rows)),
                params.disk_seconds(params.spill_bytes(child.est.bytes)),
            ))

        lterms, rterms = side(lkey_tuple), side(rkey_tuple)

        def variants(est: EstStats, left: PhysNode, right: PhysNode) -> list[Variant]:
            lship, lshuffle, lsort, lspill = lterms(left)
            rship, rshuffle, rsort, rspill = rterms(right)
            cost = 0.0 + lshuffle + lsort + lspill + rshuffle + rsort + rspill
            cost += udf_cpu(est)
            return [(cost, (lship, rship), LocalStrategy.SORT_COGROUP, None, parts)]

        return variants


def _per_input(terms: Callable[[PhysNode], object]) -> Callable[[PhysNode], object]:
    """``terms`` memoized on its one argument, an input option (identity)."""
    cache: dict[PhysNode, object] = {}

    def cached(child: PhysNode):
        got = cache.get(child)
        if got is None:
            got = cache[child] = terms(child)
        return got

    return cached


def _ship_to(
    child: PhysNode, key: frozenset[Attribute], partition: Ship, params: CostParams
) -> tuple[Ship, float]:
    """Forward an input already partitioned compatibly with ``key``, else
    repartition it: the ship and its network cost."""
    if _compatible(child.partitioning, key):
        return _FORWARD, 0.0
    return partition, params.net_seconds(params.partition_bytes(child.est.bytes))


class _Bucket:
    """The ``k`` cheapest options over distinct logical trees, plus every
    option tying the k-th, of those offered so far — as variant records,
    built into PhysNodes only by the final :meth:`options`."""

    __slots__ = ("k", "best", "cut", "limit", "lost")

    def __init__(self, k: int) -> None:
        self.k = k
        #: id(tree) -> its cheapest offer ``(cost_total, tree, variant, est,
        #: children)``.
        self.best: dict[int, tuple] = {}
        #: The k-th cheapest cost at the last trim: a dearer offer is lost.
        self.cut = math.inf
        self.limit = 2 * k
        #: The cheapest cost left out: trimmed, refused, or never offered
        #: (cut by the caller, or over an option an input bucket left out).
        self.lost = math.inf

    def admits(self, cost_total: float) -> bool:
        """Could an option of this cost still be among the k cheapest?"""
        if len(self.best) >= self.limit:
            self._trim()
        if cost_total > self.cut:
            self.lost = min(self.lost, cost_total)
        return cost_total <= self.cut

    def add(self, tree: Node, cost_total: float, variant: Variant, est, children) -> None:
        # Keyed by id (the entry keeps the tree alive): Node.__hash__ is a
        # Python-level call, and this is the innermost loop of planning.
        current = self.best.get(id(tree))
        if current is None or cost_total < current[0]:
            self.best[id(tree)] = (cost_total, tree, variant, est, children)

    def _trim(self) -> None:
        """Trim to the k cheapest and ties (stable: first offered first)."""
        kept = sorted(self.best.items(), key=lambda item: item[1][0])
        if len(kept) >= self.k:
            self.cut = kept[self.k - 1][1][0]
            dropped = [offer[0] for _, offer in kept if offer[0] > self.cut]
            if dropped:
                self.lost = min(self.lost, dropped[0])
                del kept[-len(dropped):]
        self.best = dict(kept)
        self.limit = 2 * max(self.k, len(kept))

    def options(self, build, interesting) -> tuple[PhysNode, ...]:
        """The kept options, cheapest first, each built by ``build`` now."""
        self._trim()
        return tuple(
            build(tree, est, variant, children, interesting)
            for _, tree, variant, est, children in self.best.values()
        )


def _cheapest_combinations(
    inputs: tuple[tuple[PhysNode, ...], ...], losts: tuple[float, ...], k: int
) -> tuple[list[tuple[float, tuple[PhysNode, ...]]], float]:
    """Child-option combinations beyond the bucket heads that can yield a
    k-cheapest parent, each with its summed child cost (added up as
    ``_build`` adds it), and the smallest such sum among the combinations
    left out: those cut here and those over an option an input bucket
    left out (``losts``).

    Inputs are sorted by cost.  A unary operator passes its whole input
    bucket through.  A binary operator cuts at the k-th smallest summed
    child cost — the tree-level search's exact bound (keep the cheapest
    pair) generalised to k: a variant adds the same own cost to every
    pair of one bucket pair.  The k-th sum is found among the pairs ``(i, j)``
    with ``(i + 1) * (j + 1) <= k`` (any other has at least ``k`` pairs
    no dearer), in O(k log k) instead of the k-squared product.
    """
    if len(inputs) == 1:
        return [(o.cost_total, (o,)) for o in inputs[0][1:]], losts[0]
    lefts, rights = inputs
    lost = min(losts[0] + rights[0].cost_total, lefts[0].cost_total + losts[1])
    if len(lefts) == len(rights) == 1:
        return [], lost
    sums = sorted(
        left.cost_total + rights[j].cost_total
        for i, left in enumerate(lefts[:k])
        for j in range(min(len(rights), k // (i + 1)))
    )
    cut = sums[min(k, len(sums)) - 1]
    picked = []
    for left in lefts:
        for right in rights:
            below = left.cost_total + right.cost_total
            if below > cut:
                lost = min(lost, below)
                break
            picked.append((below, (left, right)))
    return picked[1:], lost  # the heads pair up first: it is the cheapest

