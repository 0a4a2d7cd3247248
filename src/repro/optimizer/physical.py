"""Cost-based physical optimization: shipping and local strategies.

For every logical alternative the physical optimizer chooses, per
operator, a *shipping strategy* for each input (forward, hash-partition,
broadcast) and a *local strategy* (pipelined map, sort-based grouping,
hash join with a build side, nested-loop cross, sort-based co-group),
tracking *interesting properties* — here, the hash-partitioning of the
data — so that, e.g., a Match can reuse the partitioning a Reduce
established (the Q15 discussion of Section 7.3).

The search is a small Volcano-style dynamic program: each node returns
its cheapest physical plan per partitioning property.

The option lists are memoized per interned logical sub-plan in a
:class:`~repro.optimizer.memo.Memo`, so one :class:`PhysicalOptimizer`
instance can be shared across every enumerated alternative of a plan
space: a subtree that appears in hundreds of alternatives is physically
optimized exactly once (hash-consing makes the memo key an identity
lookup).  The memo is a first-class subsystem: it can be passed in to be
shared across optimizer instances and invalidated along the dirty spine
of changed operators between feedback rounds (see
:mod:`repro.optimizer.memo`).  Binary operators
additionally apply an exact branch-and-bound cut: once every achievable
output partitioning has an option, child combinations whose summed
subtree costs cannot beat any kept option are skipped without generating
their physical variants.

Guided planning runs the same dynamic program per *cell* of equivalent
sub-flows instead of per tree (:meth:`PhysicalOptimizer.cell_options`),
keeping the k cheapest trees per option bucket, on the same planners.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import product
from operator import attrgetter

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
#: One cell's options: ``(partitioning, estimated rows, pinned tree or
#: None)`` -> (options over distinct logical trees, cheapest first; the
#: cheapest cost of an option the table leaves out, ``inf`` if none).
CellTable = dict[tuple, tuple[tuple["PhysNode", ...], float]]
_cost_total = attrgetter("cost_total")


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
    on every memo or subtree-cache lookup.  The shared Volcano memo hands
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
        self,
        ctx: PlanContext,
        estimator: CardinalityEstimator,
        params: CostParams,
        memo: Memo | None = None,
    ) -> None:
        self.ctx = ctx
        self.est = estimator
        self.params = params
        # The Volcano memo, shared across every alternative this instance
        # plans; a caller-provided one also shares entries across
        # instances and feedback rounds (invalidation).
        self._memo = memo if memo is not None else Memo(op_names=ctx.op_names)
        #: Cell option tables this instance computed (not found in the memo).
        self.tables_computed = 0

    # -- public ------------------------------------------------------------

    @property
    def memo(self) -> Memo:
        return self._memo

    def optimize(self, body: Node) -> PhysNode:
        return min(self._options(body), key=_cost_total)

    # -- option generation -----------------------------------------------------

    def _options(self, node: Node) -> tuple[PhysNode, ...]:
        cached = self._memo.options(node)
        if cached is None:
            cached = self._compute_options(node)
            self._memo.store(node, cached)
        return cached

    def _compute_options(self, node: Node) -> tuple[PhysNode, ...]:
        op = node.op
        if isinstance(op, Source):
            return (self._source(node),)
        if isinstance(op, Sink):
            est = self.est.estimate(node)
            return tuple(
                self._wrap(node, est, _FORWARD_SHIPS,
                           LocalStrategy.COLLECT, None, (child,), 0.0,
                           child.partitioning)
                for child in self._options(node.only_child)
            )
        variants = self._planner(op, self.est.estimate(node))
        if op.arity == 1:
            return self._prune(
                option
                for child in self._options(node.only_child)
                for option in variants(node, child)
            )
        return self._binary_options(node, variants)

    def _binary_options(self, node: Node, variants) -> tuple[PhysNode, ...]:
        """Enumerate child-option combinations with branch-and-bound.

        ``cost_total`` of any option is at least the summed costs of its
        children, so once every *achievable* output partitioning holds an
        option, a child pair whose summed costs already reach the most
        expensive kept option cannot improve any bucket (replacement is
        strict-<) and is skipped before its variants are generated.
        """
        lefts = self._options(node.children[0])
        rights = self._options(node.children[1])
        buckets = self._achievable_partitionings(node, lefts, rights)
        best: dict[Partitioning, PhysNode] = {}
        threshold: float | None = None
        for left in lefts:
            for right in rights:
                if (
                    threshold is not None
                    and left.cost_total + right.cost_total >= threshold
                ):
                    continue
                for option in variants(node, left, right):
                    current = best.get(option.partitioning)
                    if current is None or option.cost_total < current.cost_total:
                        best[option.partitioning] = option
                if len(best) == len(buckets):
                    threshold = max(p.cost_total for p in best.values())
        return tuple(best.values())

    def _achievable_partitionings(
        self, node: Node, lefts: tuple[PhysNode, ...], rights: tuple[PhysNode, ...]
    ) -> frozenset[Partitioning]:
        """Every output partitioning any child combination could produce."""
        op = node.op
        writes = self.ctx.props(op).writes
        out: set[Partitioning] = set()
        if isinstance(op, (MatchOp, CoGroupOp)):
            keys = frozenset(
                {
                    frozenset(op.left_key_attrs()),
                    frozenset(op.right_key_attrs()),
                }
            )
            out.add(_keep_partitionings(keys, writes))
        if isinstance(op, (MatchOp, CrossOp)):
            # Broadcast variants preserve the probe side's partitioning.
            for side in (lefts, rights):
                for child in side:
                    out.add(_keep_partitionings(child.partitioning, writes))
        return frozenset(out)

    def _prune(self, options) -> tuple[PhysNode, ...]:
        """Keep the cheapest option per partitioning property (first wins)."""
        best: dict[Partitioning, PhysNode] = {}
        for option in options:
            current = best.get(option.partitioning)
            if current is None or option.cost_total < current.cost_total:
                best[option.partitioning] = option
        return tuple(best.values())

    # -- cell-level option tables (guided planning) ----------------------------

    def cell_options(self, cell: Cell) -> CellTable:
        """The option table of one equivalence cell, computed once.

        Options are bucketed by everything an enclosing operator's
        estimate and cost can observe about its input: the partitioning,
        the exact estimated row count, and — when the estimator pins an
        observation to the option's logical tree — the tree itself (width
        follows from the cell's attribute set).  Within a bucket options
        differ only in their logical tree and ``cost_total``, so the ``k``
        (``memo.options_k``) cheapest distinct trees, plus everything
        tying the k-th, are all an enclosing top-``k`` plan can use —
        up to rounding: a dearer option can *tie* a kept one once the
        enclosing costs are added, so each bucket also carries the
        cheapest cost it left out, rounded upwards sum by sum.
        Every option is a concrete :class:`PhysNode` over a concrete
        interned tree, costed by the same planners as :meth:`_options`,
        so its cost is the float the tree-level search computes for it.
        """
        table = self._memo.cell_options.get(cell)
        if table is None:
            table = self._compute_cell(cell, self._memo.options_k)
            self._memo.store_cell(cell, table)
            self.tables_computed += 1
        return table

    def _compute_cell(self, cell: Cell, k: int) -> CellTable:
        found: dict[tuple, _Bucket] = {}
        planners = {}

        def bucket_of(option: PhysNode, pin: Node | None) -> _Bucket:
            key = (option.partitioning, option.est.rows, pin)
            bucket = found.get(key)
            if bucket is None:
                bucket = found[key] = _Bucket(k)
            return bucket

        for expr in cell.exprs:
            op = expr.op
            if isinstance(op, Source):
                option = self._source(expr.rep)
                bucket_of(option, expr.rep).add(option)
                continue
            if not isinstance(op, UdfOperator):
                raise OptimizationError(f"cannot plan {op!r}")
            tables = [self.cell_options(child) for child in expr.children]
            for inputs in product(*(table.items() for table in tables)):
                # Every option of one input bucket presents the same rows,
                # bytes and partitioning, so the estimate and each
                # variant's strategy, own cost and output partitioning are
                # those planned for the bucket heads; other picks differ
                # in their children's summed cost only.  That takes
                # observations to be subtree-closed: a tree over an
                # unpinned input is unpinned, a pinned bucket one tree.
                options, losts = zip(*(kept for _, kept in inputs))
                heads = tuple(kept[0] for kept in options)
                head = Node(op, tuple(o.logical for o in heads))
                est = self.est.estimate(head)
                pinned = self.est.observed(head)
                if pinned and any(key[2] is None for key, _ in inputs):
                    raise OptimizationError(
                        f"{op.name}: observed over an unobserved input — "
                        "the statistics store is not subtree-closed"
                    )
                planner = planners.get((op, est))
                if planner is None:
                    planner = planners[op, est] = self._planner(op, est)
                planned = [
                    (variant, bucket_of(variant, head if pinned else None))
                    for variant in planner(head, *heads)
                ]
                picked, lost = _cheapest_combinations(options, losts, k)
                for variant, bucket in planned:
                    bucket.add(variant)
                    bucket.lost = min(bucket.lost, variant.cost_self + lost)
                for below, picks in picked:
                    node = None
                    for variant, bucket in planned:
                        if not bucket.admits(variant.cost_self + below):
                            continue
                        if node is None:
                            node = Node(op, tuple(o.logical for o in picks))
                        bucket.add(
                            self._wrap(
                                node, est, variant.ships, variant.local,
                                variant.build_side, picks, variant.cost_self,
                                variant.partitioning,
                            )
                        )
        return {key: (b.options(), b.lost) for key, b in found.items()}

    # -- helpers --------------------------------------------------------------

    def _wrap(
        self,
        node: Node,
        est: EstStats,
        ships: tuple[Ship, ...],
        local: LocalStrategy,
        build_side: int | None,
        children: tuple[PhysNode, ...],
        cost_self: float,
        partitioning: Partitioning,
    ) -> PhysNode:
        total = cost_self + sum(c.cost_total for c in children)
        return PhysNode(
            node, ships, local, build_side, children, est, cost_self, total,
            partitioning,
        )

    def _udf_cpu(self, op: UdfOperator, est: EstStats) -> float:
        hint = self.est.hints_for(op.name)
        params = self.params
        units = est.calls * hint.cpu_per_call + est.rows * params.record_overhead
        return params.cpu_seconds(units)

    # -- per-operator planning ---------------------------------------------------

    def _source(self, node: Node) -> PhysNode:
        est = self.est.estimate(node)
        op = node.op
        if isinstance(op, MaterializedSource):
            # An executed stage boundary: the data is an in-memory
            # checkpoint whose production was charged when the stage ran,
            # so re-reading it is free, and it arrives already hash-
            # partitioned however the executed plan left it.
            return self._wrap(
                node, est, (), LocalStrategy.SCAN, None, (), 0.0,
                op.partitioning,
            )
        cost = self.params.disk_seconds(est.bytes)
        return self._wrap(
            node, est, (), LocalStrategy.SCAN, None, (), cost, RANDOM
        )

    def _planner(self, op: UdfOperator, est: EstStats):
        """The operator's physical variants with per-operator terms hoisted.

        ``est`` is the estimate of the logical node(s) to plan; the
        returned ``variants(node, *child_options)`` lists that node's
        physical alternatives over one combination of child options.
        Nothing in it reads the node beyond recording it as ``logical``,
        so one planner serves every tree of a cell that presents the same
        estimate.
        """
        if isinstance(op, MapOp):
            return self._map_planner(op, est)
        if isinstance(op, ReduceOp):
            return self._reduce_planner(op, est)
        if isinstance(op, MatchOp):
            return self._match_planner(op, est)
        if isinstance(op, CrossOp):
            return self._cross_planner(op, est)
        if isinstance(op, CoGroupOp):
            return self._cogroup_planner(op, est)
        raise OptimizationError(f"cannot plan {op!r}")  # pragma: no cover

    def _map_planner(self, op: MapOp, est: EstStats):
        writes = self.ctx.props(op).writes
        cost = self._udf_cpu(op, est)

        def variants(node: Node, child: PhysNode) -> list[PhysNode]:
            parts = _keep_partitionings(child.partitioning, writes)
            return [
                self._wrap(node, est, _FORWARD_SHIPS, LocalStrategy.PIPELINE,
                           None, (child,), cost, parts)
            ]

        return variants

    def _reduce_planner(self, op: ReduceOp, est: EstStats):
        params = self.params
        key = op.key_attrs()
        key_tuple = op.key_attr_tuple()
        udf_cost = self._udf_cpu(op, est)
        parts = frozenset({key})

        def variants(node: Node, child: PhysNode) -> list[PhysNode]:
            in_est = child.est
            cost = 0.0
            ship = _FORWARD
            if not _compatible(child.partitioning, key):
                ship = Ship(ShipKind.PARTITION, key_tuple)
                cost += params.net_seconds(params.partition_bytes(in_est.bytes))
            cost += params.cpu_seconds(params.sort_units(in_est.rows))
            cost += params.disk_seconds(params.spill_bytes(in_est.bytes))
            cost += udf_cost
            return [
                self._wrap(node, est, (ship,), LocalStrategy.SORT_GROUP,
                           None, (child,), cost, parts)
            ]

        return variants

    def _match_planner(self, op: MatchOp, est: EstStats):
        params = self.params
        writes = self.ctx.props(op).writes
        lkey_tuple = op.left_key_attrs()
        rkey_tuple = op.right_key_attrs()
        lkey = frozenset(lkey_tuple)
        rkey = frozenset(rkey_tuple)
        udf_cost = self._udf_cpu(op, est)
        # After a partitioned join only the join keys are valid partitioning
        # properties: prior partitionings were destroyed by the shuffle.
        repart_parts = _keep_partitionings(frozenset({lkey, rkey}), writes)

        def variants(node: Node, left: PhysNode, right: PhysNode) -> list[PhysNode]:
            out: list[PhysNode] = []

            # (a) repartition both sides, hash join (build on the smaller side)
            cost = 0.0
            ships: list[Ship] = []
            for child, key, key_tuple in (
                (left, lkey, lkey_tuple),
                (right, rkey, rkey_tuple),
            ):
                if _compatible(child.partitioning, key):
                    ships.append(_FORWARD)
                else:
                    ships.append(Ship(ShipKind.PARTITION, key_tuple))
                    cost += params.net_seconds(
                        params.partition_bytes(child.est.bytes)
                    )
            build = 0 if left.est.bytes <= right.est.bytes else 1
            probe = 1 - build
            sides = (left, right)
            cost += params.cpu_seconds(
                sides[build].est.rows * params.build_unit
                + sides[probe].est.rows * params.probe_unit
            )
            cost += params.disk_seconds(params.spill_bytes(sides[build].est.bytes))
            cost += udf_cost
            out.append(
                self._wrap(node, est, tuple(ships), LocalStrategy.HASH_JOIN,
                           build, (left, right), cost, repart_parts)
            )

            # (b)/(c) broadcast one side, forward the other, build on broadcast
            for build_side in (0, 1):
                build_child = sides[build_side]
                probe_child = sides[1 - build_side]
                cost = params.net_seconds(
                    params.broadcast_bytes(build_child.est.bytes)
                )
                cost += params.cpu_seconds_single(
                    build_child.est.rows * params.build_unit
                )
                cost += params.cpu_seconds(probe_child.est.rows * params.probe_unit)
                cost += params.disk_seconds(
                    params.spill_bytes(build_child.est.bytes * params.degree)
                )
                cost += udf_cost
                ships = [_FORWARD, _FORWARD]
                ships[build_side] = _BROADCAST
                parts = _keep_partitionings(probe_child.partitioning, writes)
                out.append(
                    self._wrap(node, est, tuple(ships), LocalStrategy.HASH_JOIN,
                               build_side, (left, right), cost, parts)
                )
            return out

        return variants

    def _cross_planner(self, op: CrossOp, est: EstStats):
        params = self.params
        writes = self.ctx.props(op).writes
        pairs = est.calls
        udf_cost = self._udf_cpu(op, est)
        pair_cost = params.cpu_seconds(pairs * params.cross_unit)

        def variants(node: Node, left: PhysNode, right: PhysNode) -> list[PhysNode]:
            out: list[PhysNode] = []
            sides = (left, right)
            for build_side in (0, 1):
                build_child = sides[build_side]
                probe_child = sides[1 - build_side]
                cost = params.net_seconds(
                    params.broadcast_bytes(build_child.est.bytes)
                )
                cost += pair_cost
                cost += udf_cost
                ships = [_FORWARD, _FORWARD]
                ships[build_side] = _BROADCAST
                parts = _keep_partitionings(probe_child.partitioning, writes)
                out.append(
                    self._wrap(node, est, tuple(ships), LocalStrategy.NESTED_LOOP,
                               build_side, (left, right), cost, parts)
                )
            return out

        return variants

    def _cogroup_planner(self, op: CoGroupOp, est: EstStats):
        params = self.params
        writes = self.ctx.props(op).writes
        lkey_tuple = op.left_key_attrs()
        rkey_tuple = op.right_key_attrs()
        lkey = frozenset(lkey_tuple)
        rkey = frozenset(rkey_tuple)
        udf_cost = self._udf_cpu(op, est)
        parts = _keep_partitionings(frozenset({lkey, rkey}), writes)

        def variants(node: Node, left: PhysNode, right: PhysNode) -> list[PhysNode]:
            cost = 0.0
            ships = []
            for child, key, key_tuple in (
                (left, lkey, lkey_tuple),
                (right, rkey, rkey_tuple),
            ):
                if _compatible(child.partitioning, key):
                    ships.append(_FORWARD)
                else:
                    ships.append(Ship(ShipKind.PARTITION, key_tuple))
                    cost += params.net_seconds(
                        params.partition_bytes(child.est.bytes)
                    )
                cost += params.cpu_seconds(params.sort_units(child.est.rows))
                cost += params.disk_seconds(params.spill_bytes(child.est.bytes))
            cost += udf_cost
            return [
                self._wrap(node, est, tuple(ships), LocalStrategy.SORT_COGROUP,
                           None, (left, right), cost, parts)
            ]

        return variants


class _Bucket:
    """The ``k`` cheapest options over distinct logical trees, plus every
    option tying the k-th, of those offered so far."""

    __slots__ = ("k", "best", "cut", "limit", "lost")

    def __init__(self, k: int) -> None:
        self.k = k
        self.best: dict[Node, PhysNode] = {}
        #: The k-th cheapest cost at the last trim: a dearer offer is lost.
        self.cut = math.inf
        self.limit = 2 * k
        #: The cheapest cost left out: trimmed, refused, or never offered
        #: (cut by the caller, or over an option an input bucket left out).
        self.lost = math.inf

    def admits(self, cost_total: float) -> bool:
        """Could an option of this cost still be among the k cheapest?"""
        if len(self.best) >= self.limit:
            self.options()
        if cost_total > self.cut:
            self.lost = min(self.lost, cost_total)
        return cost_total <= self.cut

    def add(self, option: PhysNode) -> None:
        current = self.best.get(option.logical)
        if current is None or option.cost_total < current.cost_total:
            self.best[option.logical] = option

    def options(self) -> tuple[PhysNode, ...]:
        """Trim to the k cheapest and ties (stable: first offered first)."""
        kept = sorted(self.best.values(), key=_cost_total)
        if len(kept) >= self.k:
            self.cut = kept[self.k - 1].cost_total
            dropped = [o for o in kept if o.cost_total > self.cut]
            if dropped:
                self.lost = min(self.lost, dropped[0].cost_total)
                del kept[-len(dropped):]
        self.best = {o.logical: o for o in kept}
        self.limit = 2 * max(self.k, len(kept))
        return tuple(kept)


def _cheapest_combinations(
    inputs: tuple[tuple[PhysNode, ...], ...], losts: tuple[float, ...], k: int
) -> tuple[list[tuple[float, tuple[PhysNode, ...]]], float]:
    """Child-option combinations beyond the bucket heads that can yield a
    k-cheapest parent, each with its summed child cost (added up as
    ``_wrap`` adds it), and the smallest such sum among the combinations
    left out: those cut here and those over an option an input bucket
    left out (``losts``).

    Inputs are sorted by cost.  A unary operator passes its whole input
    bucket through.  A binary operator cuts at the k-th smallest summed
    child cost — :meth:`PhysicalOptimizer._binary_options`' exact bound
    generalised to k: a variant adds the same own cost to every pair of
    one bucket pair.  The k-th sum is found among the pairs ``(i, j)``
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


def optimize_physical(
    body: Node,
    ctx: PlanContext,
    estimator: CardinalityEstimator,
    params: CostParams,
) -> PhysNode:
    """Choose shipping and local strategies for one logical flow."""
    return PhysicalOptimizer(ctx, estimator, params).optimize(body)
