"""Reference evaluator: direct bag-semantics execution of logical plans.

This is the semantic oracle of the library — it executes a plan tree on
in-memory data with no parallelism, no physical strategies, and no cost
accounting.  The execution engine and all reordering tests are validated
against it.

The operator application helpers here are also reused by the engine, so
both execution paths call a UDF — a Python callable — the same way.
"""

from __future__ import annotations

from typing import Any

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


def call_udf(op: UdfOperator, *record_args: Any) -> list[RawRecord]:
    """Invoke an operator's UDF with wrapped record arguments."""
    collector = Collector()
    op.udf.fn(*record_args, collector)
    return collector.records()


def _wrap_all(op: UdfOperator, input_index: int, rows: list[RawRecord]) -> list[InputRecord]:
    fmap = op.input_maps[input_index]
    resolver = op.resolver
    return [InputRecord(r, fmap, resolver) for r in rows]


def key_of(row: RawRecord, key_attrs: tuple[Attribute, ...]) -> tuple:
    try:
        return tuple(map(row.__getitem__, key_attrs))
    except KeyError as exc:
        raise ExecutionError(
            f"key attribute {exc.args[0]} missing from record at runtime"
        ) from None


def group_by(rows: list[RawRecord], key_attrs: tuple[Attribute, ...]) -> dict[tuple, list[RawRecord]]:
    groups: dict[tuple, list[RawRecord]] = {}
    for row in rows:
        groups.setdefault(key_of(row, key_attrs), []).append(row)
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
    out: list[RawRecord] = []
    for _, group in group_by(rows, op.key_attr_tuple()).items():
        out.extend(call_udf(op, _wrap_all(op, 0, group)))
    return out


def apply_cross(op: CrossOp, left: list[RawRecord], right: list[RawRecord]) -> list[RawRecord]:
    fn = op.udf.fn
    l_map, r_map = op.input_maps
    resolver = op.resolver
    collector = Collector()
    for l_row in left:
        l_rec = InputRecord(l_row, l_map, resolver)
        for r_row in right:
            fn(l_rec, InputRecord(r_row, r_map, resolver), collector)
    return collector._out


def apply_match(op: MatchOp, left: list[RawRecord], right: list[RawRecord]) -> list[RawRecord]:
    right_index = group_by(right, op.right_key_attrs())
    left_keys = op.left_key_attrs()
    fn = op.udf.fn
    # hot path: hoist the wrapper components and share one collector
    l_map, r_map = op.input_maps
    resolver = op.resolver
    collector = Collector()
    for l_row in left:
        matches = right_index.get(key_of(l_row, left_keys))
        if not matches:
            continue
        l_rec = InputRecord(l_row, l_map, resolver)
        for r_row in matches:
            fn(l_rec, InputRecord(r_row, r_map, resolver), collector)
    return collector._out


def apply_cogroup(op: CoGroupOp, left: list[RawRecord], right: list[RawRecord]) -> list[RawRecord]:
    left_groups = group_by(left, op.left_key_attrs())
    right_groups = group_by(right, op.right_key_attrs())
    out: list[RawRecord] = []
    all_keys = list(left_groups)
    all_keys.extend(k for k in right_groups if k not in left_groups)
    for key in all_keys:
        l_rows = left_groups.get(key, [])
        r_rows = right_groups.get(key, [])
        out.extend(
            call_udf(op, _wrap_all(op, 0, l_rows), _wrap_all(op, 1, r_rows))
        )
    return out


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
