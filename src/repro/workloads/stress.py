"""The planner stress space: a synthetic flow with a deep plan space.

Not one of the paper's evaluation workloads (it has no data and is never
executed): 7 chained joins under 2 pushable filters, the plan space the
planning benchmarks and the ranking fixtures share.
"""

from __future__ import annotations

from ..core import (
    Catalog,
    EmitBounds,
    FieldMap,
    FieldSet,
    MapOp,
    MatchOp,
    Sink,
    Source,
    SourceStats,
    UdfProperties,
    binary_udf,
    map_udf,
    node,
    prefixed,
)
from ..core.plan import Node
from ..optimizer.cardinality import Hints


def _concat_udf(left, right, out):
    out.emit(left.concat(right))


def _passthrough(rec, out):
    out.emit(rec.copy())


def build_stress(joins: int = 7, filters: int = 2):
    """``(plan, catalog, hints)`` of the chained-join starflake.

    Joins cannot commute with each other (each keys on the previous
    dimension's output attribute), while the fact-side filters commute
    freely and push through the whole chain: 6 864 alternatives at the
    default size, with MANUAL annotations and default cost parameters.
    """
    fact_attrs = prefixed("f", "k0", *[f"x{i}" for i in range(filters)])
    flow = node(Source("fact", fact_attrs))
    cur = fact_attrs
    catalog = Catalog()
    catalog.add_source("fact", SourceStats(row_count=2_000_000))
    hints = {}
    for j in range(filters):
        props = UdfProperties(
            reads=FieldSet.of((0, 1 + j)),
            branch_reads=FieldSet.of((0, 1 + j)),
            emit_bounds=EmitBounds.at_most_one(),
        )
        flow = node(
            MapOp(f"sigma_{j}", map_udf(_passthrough, props), FieldMap(cur)),
            flow,
        )
        hints[f"sigma_{j}"] = Hints(
            selectivity=0.1 + 0.2 * j, cpu_per_call=1.0 + 0.5 * j
        )
    key_pos = 0
    for i in range(joins):
        dim_attrs = prefixed(f"d{i}", "k", "next")
        catalog.add_source(f"dim{i}", SourceStats(row_count=10_000 * (i + 1)))
        props = UdfProperties(
            reads=FieldSet.of((0, key_pos), (1, 0)),
            emit_bounds=EmitBounds.at_most_one(),
        )
        join = MatchOp(
            f"join_{i}",
            binary_udf(_concat_udf, props),
            FieldMap(cur),
            FieldMap(dim_attrs),
            (key_pos,),
            (0,),
        )
        flow = node(join, flow, node(Source(f"dim{i}", dim_attrs)))
        cur = cur + dim_attrs
        key_pos = len(cur) - 1
        hints[f"join_{i}"] = Hints(
            cpu_per_call=1.0, distinct_keys=10_000 * (i + 1)
        )
    return Node(Sink("sink_stress"), (flow,)), catalog, hints
