"""Reference evaluator: direct bag-semantics execution of logical plans.

This is the semantic oracle of the library — it executes a plan tree on
in-memory data with no parallelism, no physical strategies, and no cost
accounting.  The execution engine and all reordering tests are validated
against it.

The operator application helpers here are also reused by the engine, so
both execution paths call a UDF — a Python callable — the same way.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable

from .errors import ExecutionError
from .operators import (
    CoGroupOp,
    CrossOp,
    MapOp,
    MatchOp,
    ReduceOp,
    Sink,
    Source,
    UdfOperator,
)
from .plan import Node
from .record import Collector, InputRecord, RawRecord
from .schema import Attribute

SourceData = dict[str, list[RawRecord]]


def key_of(row: RawRecord, key_attrs: tuple[Attribute, ...]) -> tuple:
    """The row's key tuple; a missing key attribute raises ExecutionError.

    The hot paths read keys through :func:`key_getter` and call this only
    after a ``KeyError``, to raise the error."""
    try:
        return tuple(map(row.__getitem__, key_attrs))
    except KeyError as exc:
        raise ExecutionError(
            f"key attribute {exc.args[0]} missing from record at runtime"
        ) from None


def key_getter(key_attrs: tuple[Attribute, ...]) -> Callable[[RawRecord], Any]:
    """One C-level reader of a row's key: ``itemgetter(*key_attrs)``.

    It yields the bare value for a one-attribute key and a tuple
    otherwise; both compare and group as :func:`key_of`'s tuple does.  It
    raises a bare ``KeyError`` on a missing attribute, which callers turn
    into :func:`key_of`'s ``ExecutionError``."""
    return itemgetter(*key_attrs) if key_attrs else lambda row: ()


def group_by(rows: list[RawRecord], key_attrs: tuple[Attribute, ...]) -> dict[Any, list[RawRecord]]:
    """Rows by key, keys and rows in first-seen order; keys as
    :func:`key_getter` reads them."""
    get = key_getter(key_attrs)
    groups: dict[Any, list[RawRecord]] = {}
    try:
        for row in rows:
            key = get(row)
            group = groups.get(key)
            if group is None:
                groups[key] = [row]
            else:
                group.append(row)
    except KeyError:
        key_of(row, key_attrs)  # raises the oracle's ExecutionError
        raise
    return groups


# ---------------------------------------------------------------------------
# Operator application (shared with the engine)
# ---------------------------------------------------------------------------


def apply_map(op: MapOp, rows: list[RawRecord]) -> list[RawRecord]:
    fn = op.udf.fn
    # hot path: hoist the wrapper components and share one collector —
    # emissions only ever concatenate, so per-call collectors are pure
    # overhead (the record API seen by the UDF is unchanged)
    fmap = op.input_maps[0]
    resolver = op.resolver
    collector = Collector()
    for row in rows:
        fn(InputRecord(row, fmap, resolver), collector)
    return collector._out


def apply_reduce(op: ReduceOp, rows: list[RawRecord]) -> list[RawRecord]:
    return reduce_groups(op, group_by(rows, op.key_attr_tuple()))


def reduce_groups(op: ReduceOp, groups: dict[Any, list[RawRecord]]) -> list[RawRecord]:
    """Call a Reduce UDF once per group of :func:`group_by`, in key order."""
    fn = op.udf.fn
    fmap = op.input_maps[0]
    resolver = op.resolver
    collector = Collector()
    for group in groups.values():
        fn([InputRecord(r, fmap, resolver) for r in group], collector)
    return collector._out


def apply_cross(op: CrossOp, left: list[RawRecord], right: list[RawRecord]) -> list[RawRecord]:
    fn = op.udf.fn
    l_map, r_map = op.input_maps
    resolver = op.resolver
    collector = Collector()
    r_recs = [InputRecord(r, r_map, resolver) for r in right] if left else []
    for l_row in left:
        l_rec = InputRecord(l_row, l_map, resolver)
        for r_rec in r_recs:
            fn(l_rec, r_rec, collector)
    return collector._out


def apply_match(op: MatchOp, left: list[RawRecord], right: list[RawRecord]) -> list[RawRecord]:
    right_index = group_by(right, op.right_key_attrs())
    get_key = key_getter(op.left_key_attrs())
    fn = op.udf.fn
    # hot path: hoist the wrapper components and share one collector; a
    # right row is wrapped once, when its key is first probed
    l_map, r_map = op.input_maps
    resolver = op.resolver
    collector = Collector()
    wrapped: dict[Any, list[InputRecord]] = {}
    try:
        for l_row in left:
            key = get_key(l_row)
            r_recs = wrapped.get(key)
            if r_recs is None:
                r_rows = right_index.get(key)
                if r_rows is None:
                    continue
                r_recs = wrapped[key] = [
                    InputRecord(r, r_map, resolver) for r in r_rows
                ]
            l_rec = InputRecord(l_row, l_map, resolver)
            for r_rec in r_recs:
                fn(l_rec, r_rec, collector)
    except KeyError:
        key_of(l_row, op.left_key_attrs())  # raises the oracle's ExecutionError
        raise
    return collector._out


def apply_cogroup(op: CoGroupOp, left: list[RawRecord], right: list[RawRecord]) -> list[RawRecord]:
    return cogroup_groups(
        op,
        group_by(left, op.left_key_attrs()),
        group_by(right, op.right_key_attrs()),
    )


def cogroup_groups(
    op: CoGroupOp,
    left_groups: dict[Any, list[RawRecord]],
    right_groups: dict[Any, list[RawRecord]],
) -> list[RawRecord]:
    """Call a CoGroup UDF once per key of either input's :func:`group_by`:
    the left keys in order, then the right keys the left lacks."""
    fn = op.udf.fn
    l_map, r_map = op.input_maps
    resolver = op.resolver
    collector = Collector()
    all_keys = list(left_groups)
    all_keys.extend(k for k in right_groups if k not in left_groups)
    for key in all_keys:
        fn(
            [InputRecord(r, l_map, resolver) for r in left_groups.get(key, ())],
            [InputRecord(r, r_map, resolver) for r in right_groups.get(key, ())],
            collector,
        )
    return collector._out


def apply_operator(op: UdfOperator, inputs: list[list[RawRecord]]) -> list[RawRecord]:
    """Apply any UDF operator to already-evaluated inputs."""
    if isinstance(op, MapOp):
        return apply_map(op, inputs[0])
    if isinstance(op, ReduceOp):
        return apply_reduce(op, inputs[0])
    if isinstance(op, MatchOp):
        return apply_match(op, inputs[0], inputs[1])
    if isinstance(op, CrossOp):
        return apply_cross(op, inputs[0], inputs[1])
    if isinstance(op, CoGroupOp):
        return apply_cogroup(op, inputs[0], inputs[1])
    raise ExecutionError(f"cannot apply operator {op!r}")


# ---------------------------------------------------------------------------
# Whole-plan evaluation
# ---------------------------------------------------------------------------


def evaluate(root: Node, data: SourceData) -> list[RawRecord]:
    """Evaluate a plan tree and return its output records.

    Internally records flow by reference (emitting an input record shares
    the underlying dict); the returned records are copies, so callers may
    mutate them without corrupting the source data.
    """
    return [dict(r) for r in _evaluate(root, data)]


def _evaluate(root: Node, data: SourceData) -> list[RawRecord]:
    op = root.op
    if isinstance(op, Source):
        try:
            return list(data[op.name])
        except KeyError:
            raise ExecutionError(f"no data bound for source {op.name!r}") from None
    if isinstance(op, Sink):
        return _evaluate(root.only_child, data)
    if isinstance(op, UdfOperator):
        inputs = [_evaluate(child, data) for child in root.children]
        return apply_operator(op, inputs)
    raise ExecutionError(f"cannot evaluate operator {op!r}")


def sink_projection(root: Node) -> tuple[Attribute, ...] | None:
    """The attributes the plan's sink asks for, if a sink with a projection
    is present."""
    if isinstance(root.op, Sink):
        return root.op.wanted
    return None
