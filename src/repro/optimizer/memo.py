"""The Memo: everything derived about one plan space, invalidatable.

**Ownership.**  A :class:`Memo` owns the per-plan-space state the
optimizer derives.  Hint-independent (legality only, never invalidated):
the *cells* of the group memo — sets of equivalent sub-flows explored by
firing the swap rules on cell expressions (:meth:`Memo.explore`) — plus
record widths.  Hint-dependent: the per-cell option tables, from which
every ranking is read, and the cardinality estimator's per-node cache
(bound into the estimator via :meth:`Memo.bind`).

**Interesting partitionings.**  The memo holds the key sets of every
keyed operator it serves (:meth:`Memo.admit`); options keep only what an
operator outside their sub-flow could reuse (:meth:`Memo.interesting`).

**Dirty-spine invalidation.**  A reverse dependency index maps an
operator name to the entries — estimated trees and cells — whose sub-flow contains
that operator.  When the hints, observations or source statistics of some
operators change, :meth:`Memo.invalidate` evicts exactly the entries on
the spine *above* them, so the next :meth:`Optimizer.optimize(memo=...)
<repro.optimizer.optimizer.Optimizer.optimize>` call re-costs the dirty
spine and reuses everything else verbatim.  An estimate (and hence a
cost) depends only on the operators inside its sub-flow, so a surviving
entry is bit-identical under the new estimator (pinned by the
invalidation parity tests).
"""

from __future__ import annotations

import math
from itertools import product
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable

from ..core.errors import OptimizationError
from ..core.operators import CoGroupOp, MatchOp, Operator, ReduceOp
from ..core.plan import Node
from .cardinality import CardinalityEstimator, EstStats
from .context import PlanContext
from .rules import replace_at, swaps

if TYPE_CHECKING:  # pragma: no cover - import cycle (physical imports memo)
    from .physical import CellTable

#: The most trees one plan space may stand for: every search and
#: :func:`~repro.optimizer.enumeration.enumerate_flows` explore under it.
ENUMERATION_LIMIT = 1_000_000


class Expr:
    """One cell expression: an operator over child cells.

    It stands for every tree ``op(t1, .., tn)`` with ``ti`` a member of
    ``children[i]``; ``rep`` is one such tree.
    """

    __slots__ = ("op", "children", "rep")

    def __init__(
        self, op: Operator, children: tuple["Cell", ...], rep: Node
    ) -> None:
        self.op = op
        self.children = children
        self.rep = rep


class Cell:
    """A set of equivalent sub-flows no swap rule can tell apart.

    Members share their operator-name set (``names``) and the three
    derived facts swap legality reads of a sub-flow — output attributes,
    unique keys, row preservation — so any member (``rep``) can stand in
    for the cell when a rule is evaluated.  ``parents`` lists the
    ``(expression, input side)`` pairs that consume this cell.
    """

    __slots__ = ("names", "rep", "exprs", "parents")

    def __init__(self, names: frozenset[str], rep: Node) -> None:
        self.names = names
        self.rep = rep
        self.exprs: list[Expr] = []
        self.parents: list[tuple[Expr, int]] = []


class _Interesting(dict):
    """One sub-flow's partitioning -> its interesting part, on demand."""

    __slots__ = ("keys",)

    def __missing__(self, parts: frozenset) -> frozenset:
        got = self[parts] = frozenset(p for p in parts if any(p <= k for k in self.keys))
        return got


class _RegisteringDict(dict):
    """Node-keyed cache that registers every new key in the memo's index.

    The cardinality estimator writes ``cache[node] = value`` on its own;
    routing those writes through the memo's dependency index keeps
    :meth:`Memo.invalidate` authoritative over the cache without the
    writer knowing the memo exists.
    """

    __slots__ = ("_memo",)

    def __init__(self, memo: "Memo") -> None:
        super().__init__()
        self._memo = memo

    def __setitem__(self, key: Node, value) -> None:
        self._memo._register(key)
        super().__setitem__(key, value)


class Memo:
    """Invalidatable store of one plan space's cells and their costing.

    ``op_names`` maps a plan node to the frozenset of operator names in
    its subtree; pass a context-level memoized one
    (:meth:`~repro.optimizer.context.PlanContext.op_names`) to share the
    name cache across memos and feedback rounds — a standalone memo
    falls back to an internal memoized walk.
    """

    def __init__(
        self,
        op_names: Callable[[Node], frozenset[str]] | None = None,
    ) -> None:
        #: Interned logical sub-plan -> cached cardinality estimate.
        self.est_cache: dict[Node, EstStats] = _RegisteringDict(self)
        #: Output attribute set -> record width (catalog-derived, hence
        #: hint-independent: never invalidated).
        self.width_cache: dict[frozenset, float] = {}
        #: The group memo's logical layer: ``classes`` maps an operator-
        #: name set to its cells by derived facts ``(out_attrs, unique_keys,
        #: row_preserving)``, ``exprs`` an expression ``(op, child cells)``
        #: to its cell, ``_cell_of`` each sub-flow of an explored flow to its
        #: cell (swapped trees are never built), ``fired`` counts rule
        #: firings.  Legality only — hint-independent — so :meth:`invalidate`
        #: keeps it.
        self.classes: dict[frozenset[str], dict[tuple, Cell]] = {}
        self.exprs: dict[tuple[Operator, tuple[Cell, ...]], Cell] = {}
        self._cell_of: dict[Node, Cell] = {}
        self.fired = 0
        #: Cell -> how many trees it stands for (:meth:`tree_count`), valid
        #: until the next expression is added.
        self._counts: dict[Cell, int] = {}
        #: Cell -> its option table (:meth:`~repro.optimizer.physical.
        #: PhysicalOptimizer.cell_options`) of the ``cell_width[cell]``
        #: cheapest trees per bucket.  Evicted like estimates: a cell is
        #: dirty iff its name set contains a changed operator.
        self.cell_options: dict[Cell, "CellTable"] = {}
        self.cell_width: dict[Cell, int] = {}
        #: Operator name -> the one operator object it names (:meth:`explore`).
        self._ops: dict[str, Operator] = {}
        #: Keyed operator name -> its key sets (a Reduce key, a Match or
        #: CoGroup left and right key), over every operator admitted.
        self.keys: dict[str, frozenset[frozenset]] = {}
        self._interesting: dict[frozenset[str], _Interesting] = {}
        self._op_names = op_names if op_names is not None else self._names_of
        self._names: dict[Node, frozenset[str]] = {}
        # Reverse dependency index: operator-name set -> every tree and
        # cell ever registered over exactly those operators.  A plan space
        # has few distinct name sets (one per class), so registering is
        # one dict probe and invalidation scans the sets, not the entries.
        # Registration is permanent (a name set never changes): the index
        # may name evicted entries, whose pops no-op.
        self._by_names: dict[frozenset[str], set[Node | Cell]] = {}

    # -- table access ------------------------------------------------------

    def store_cell(self, cell: Cell, table: "CellTable", k: int) -> None:
        """Keep ``cell``'s table of the ``k`` cheapest trees per bucket: a
        request for at most ``k`` reuses it, a wider one recomputes it."""
        self._register(cell)
        self.cell_options[cell] = table
        self.cell_width[cell] = k

    def admit(self, flow: Node) -> None:
        """Learn the keys of ``flow``'s operators (down to trees the memo
        explored).  A new keyed operator drops every option table: they were
        bucketed without its keys, so may lack a partitioning it reuses."""
        todo = [flow]
        while todo:
            node = todo.pop()
            if node not in self._cell_of:
                self._learn(node.op)
                todo.extend(node.children)

    def _learn(self, op: Operator) -> None:
        if isinstance(op, ReduceOp):
            sides = (op.key_attrs(),)
        elif isinstance(op, (MatchOp, CoGroupOp)):
            sides = (op.left_key_attrs(), op.right_key_attrs())
        else:
            return
        keys, known = frozenset(map(frozenset, sides)), self.keys.get(op.name, frozenset())
        if not keys <= known:
            self.keys[op.name] = known | keys
            for table in (self._interesting, self.cell_options, self.cell_width):
                table.clear()

    def interesting(self, names: frozenset[str]) -> "_Interesting":
        """Partitioning -> its components ``p <= K`` for a key set ``K`` of an
        operator outside the sub-flow over ``names``: any other fails
        ``_compatible`` for every operator above, so dropping it is exact."""
        got = self._interesting.get(names)
        if got is None:
            got = self._interesting[names] = _Interesting()
            got.keys = [k for name, keys in self.keys.items() if name not in names for k in keys]
        return got

    def size(self) -> int:
        """Live invalidatable entries: per-cell option tables and
        estimates — the planning server's figure for a tenant's warm-state
        footprint (the hint-independent structure beside them is shared
        and comparatively small)."""
        return len(self.cell_options) + len(self.est_cache)

    # -- logical layer: cells ----------------------------------------------

    def explore(
        self, flow: Node, ctx: PlanContext, limit: int | None = None
    ) -> tuple[Cell, ...]:
        """The cells of ``flow``'s class, closed under every legal swap.

        The rule body :func:`~repro.optimizer.rules.swaps` fires once per
        (expression, input side, child expression), building cells, not
        trees: a rule reads nothing of a sub-flow beyond what its cell's
        members agree on, so each legality check reads ``cell.rep``.
        The trees the returned cells stand for are exactly the flows
        reachable from ``flow`` by legal swaps (:meth:`trees` lists them).
        A memo serves one plan space: sub-flows over the same operators
        are taken to be reorderings of each other, so a known operator
        name arriving as a different operator object is refused.

        With a ``limit``, raises :class:`OptimizationError` once the cells
        stand for more than ``limit`` trees, checked whenever the memo's
        expressions have doubled: a rule that over-generates fails fast
        instead of exhausting memory.
        """
        todo: list[tuple[Expr, int, Expr]] = []
        rep = attrgetter("rep")
        self.admit(flow)  # every tree of the class has the flow's operators
        self._intern(flow, ctx, todo)
        roots = self.classes[ctx.op_names(flow)]
        check = 2 * len(self.exprs)

        def build(op: Operator, children: tuple[Cell, ...]) -> Cell:
            return self._add(op, children, None, ctx, todo)

        while todo:
            parent, side, child = todo.pop()
            self.fired += 1
            for _ in swaps(parent.op, parent.children, side, child, ctx, build, rep):
                pass
            if limit is not None and len(self.exprs) >= check:
                check *= 2
                self._bound(roots.values(), limit)
        if limit is not None:
            self._bound(roots.values(), limit)
        return tuple(roots.values())

    def _bound(self, cells: Iterable[Cell], limit: int) -> None:
        count = self.tree_count(cells)
        if count > limit:
            raise OptimizationError(
                f"enumeration exceeded {limit} alternatives: the cells "
                f"explored stand for {count} or more"
            )

    def _intern(self, tree: Node, ctx: PlanContext, todo: list) -> Cell:
        cell = self._cell_of.get(tree)
        if cell is None:
            if self._ops.setdefault(tree.op.name, tree.op) is not tree.op:
                raise OptimizationError(
                    f"operator {tree.op.name!r} is not the one of that name "
                    "this memo explored: one memo serves one plan space"
                )
            children = tuple(self._intern(c, ctx, todo) for c in tree.children)
            cell = self._cell_of[tree] = self._add(
                tree.op, children, tree, ctx, todo
            )
        return cell

    def _add(
        self,
        op: Operator,
        children: tuple[Cell, ...],
        rep: Node | None,
        ctx: PlanContext,
        todo: list,
    ) -> Cell:
        """The cell owning expression ``(op, children)``, adding it if new.

        A new expression queues every rule firing it takes part in, and
        is instantiated over the sibling cells of its inputs: cells of
        one class (one operator-name set) are reachable from each other
        by swaps inside the sub-flow, so what consumes one consumes all.
        """
        cell = self.exprs.get((op, children))
        if cell is not None:
            return cell
        if rep is None:
            rep = Node(op, tuple(child.rep for child in children))
        names = ctx.op_names(rep)
        facts = (ctx.out_attrs(rep), ctx.unique_keys(rep), ctx.row_preserving(rep))
        cells = self.classes.setdefault(names, {})
        cell = cells.get(facts)
        fresh = cell is None
        if fresh:
            cell = cells[facts] = Cell(names, rep)
        self.exprs[op, children] = cell
        self._counts.clear()
        expr = Expr(op, children, rep)
        cell.exprs.append(expr)
        for side, child in enumerate(children):
            child.parents.append((expr, side))
            todo.extend((expr, side, below) for below in child.exprs)
        todo.extend((parent, side, expr) for parent, side in cell.parents)
        for side, child in enumerate(children):
            for sibling in tuple(self.classes[child.names].values()):
                if sibling is not child:
                    self._add(op, replace_at(children, side, sibling), None, ctx, todo)
        if fresh:
            for sibling in tuple(cells.values()):
                if sibling is not cell:
                    for parent, side in tuple(sibling.parents):
                        inputs = replace_at(parent.children, side, cell)
                        self._add(parent.op, inputs, None, ctx, todo)
        return cell

    def tree_count(self, cells: Iterable[Cell]) -> int:
        """How many distinct trees ``cells`` stand for (a sum-product)."""
        counts = self._counts

        def count(cell: Cell) -> int:
            got = counts.get(cell)
            if got is None:
                got = counts[cell] = sum(
                    math.prod(count(child) for child in expr.children)
                    for expr in cell.exprs
                )
            return got

        return sum(count(cell) for cell in cells)

    def trees(
        self, flow: Node, ctx: PlanContext, limit: int = ENUMERATION_LIMIT
    ) -> list[Node]:
        """Every tree of ``flow``'s plan space, each once, ``flow`` first.

        The rest follow the cells' expression order, which depends on what
        the memo explored before.  A space of more than ``limit`` trees
        raises :class:`OptimizationError` from :meth:`explore`, before any
        is listed.
        """
        roots = self.explore(flow, ctx, limit)
        members: dict[Cell, list[Node]] = {}

        def listed(cell: Cell) -> list[Node]:
            got = members.get(cell)
            if got is None:
                got = members[cell] = [
                    Node(expr.op, children)
                    for expr in cell.exprs
                    for children in product(*map(listed, expr.children))
                ]
            return got

        out = [flow]
        for cell in roots:
            out.extend(tree for tree in listed(cell) if tree is not flow)
        return out

    # -- estimator binding -------------------------------------------------

    def bind(self, estimator: CardinalityEstimator) -> None:
        """Make ``estimator`` read and write this memo's caches.

        Estimates become memo-scoped: they survive across optimize calls
        and feedback rounds exactly as long as the cell tables that were
        costed from them, and :meth:`invalidate` evicts both together.
        """
        estimator.use_caches(self.est_cache, self.width_cache)

    # -- dependency index --------------------------------------------------

    def _register(self, entry: "Node | Cell") -> None:
        names = entry.names if isinstance(entry, Cell) else self._op_names(entry)
        entries = self._by_names.get(names)
        if entries is None:
            entries = self._by_names[names] = set()
        entries.add(entry)

    def _names_of(self, node: Node) -> frozenset[str]:
        """Fallback subtree-name derivation (memoized per interned node)."""
        got = self._names.get(node)
        if got is None:
            if node.children:
                got = frozenset({node.op.name}).union(
                    *(self._names_of(c) for c in node.children)
                )
            else:
                got = frozenset({node.op.name})
            self._names[node] = got
        return got

    def _containing(self, op_names: frozenset[str]) -> set["Node | Cell"]:
        """Every registered entry whose sub-flow has one of ``op_names``."""
        found: set[Node | Cell] = set()
        for names, entries in self._by_names.items():
            if not names.isdisjoint(op_names):
                found |= entries
        return found

    def dependents_of(self, op_name: str) -> frozenset[Node]:
        """Every registered node whose subtree contains ``op_name``.

        Registration is permanent (containment is a stable property of an
        interned node), so the result may include currently-evicted nodes.
        """
        return frozenset(
            entry
            for entry in self._containing(frozenset({op_name}))
            if isinstance(entry, Node)
        )

    # -- invalidation ------------------------------------------------------

    def invalidate(self, changed_ops: Iterable[str]) -> int:
        """Evict every entry whose subtree contains a changed operator.

        This is the dirty-spine walk: a changed operator invalidates its
        own entry and every entry *above* it (any node whose subtree
        contains it), while sibling subtrees — typically the overwhelming
        majority of a plan space's distinct sub-plans — stay cached.
        The estimate cache and the per-cell option tables are evicted (a
        cell is dirty iff its name set contains a changed operator); widths
        and the cells themselves are hint-independent and survive.
        Returns the number of entries evicted.
        """
        victims = self._containing(frozenset(changed_ops))
        evicted = 0
        est_pop = self.est_cache.pop  # plain dict.pop: eviction, not a write
        cell_pop = self.cell_options.pop
        for entry in victims:
            hit = est_pop(entry, None) is not None
            hit = (cell_pop(entry, None) is not None) or hit
            if hit:
                evicted += 1
        return evicted
