"""The nine reference plan spaces and their frozen eager rankings.

Four paper workloads in both annotation modes plus the 7-join x 2-filter
stress space (6 864 alternatives).  ``tests/fixtures/rankings/*.json``
holds, per space, the ranking the eager path (cost every alternative,
stable sort) produced when the fixtures were frozen: per rank the plan's
``signature_key``, its cost as ``float.hex()`` and a digest of
``physical.describe()``.  The four workloads are frozen in full, the
stress space to its first 50 ranks plus ``plan_count``.

Regenerate (only when a change is *meant* to alter rankings) with
``PYTHONPATH=src python tests/optimizer/spaces.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from repro.core import (
    AnnotationMode,
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
from repro.core.plan import Node, signature_key
from repro.optimizer import CostParams, Hints, Optimizer
from repro.workloads import (
    build_clickstream,
    build_q7,
    build_q15,
    build_textmining,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "rankings"
STRESS_RANKS = 50

_BUILDERS = {
    "tpch_q7": build_q7,
    "tpch_q15": build_q15,
    "clickstream": build_clickstream,
    "textmining": build_textmining,
}
_MODES = {"sca": AnnotationMode.SCA, "manual": AnnotationMode.MANUAL}

SPACE_NAMES = ("stress",) + tuple(
    f"{name}-{mode}" for name in sorted(_BUILDERS) for mode in _MODES
)


@dataclass(frozen=True)
class Space:
    name: str
    plan: Node
    catalog: Catalog
    hints: dict[str, Hints]
    params: CostParams
    mode: AnnotationMode

    def optimizer(self, hints=None, **kwargs) -> Optimizer:
        return Optimizer(
            self.catalog,
            self.hints if hints is None else hints,
            self.mode,
            self.params,
            **kwargs,
        )


def _concat_udf(left, right, out):
    out.emit(left.concat(right))


def _passthrough(rec, out):
    out.emit(rec.copy())


def build_stress(joins: int = 7, filters: int = 2):
    """The ledger's ``stress_plan`` space (``benchmarks/ledger/stress.py``):
    chained joins that cannot commute with each other under fact-side
    filters that commute freely and push through the whole chain."""
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


@cache
def space(name: str) -> Space:
    """Build (once per process) one of :data:`SPACE_NAMES`."""
    if name == "stress":
        plan, catalog, hints = build_stress()
        return Space(
            name, plan, catalog, hints, CostParams(), AnnotationMode.MANUAL
        )
    workload_name, mode = name.rsplit("-", 1)
    workload = _BUILDERS[workload_name]()
    return Space(
        name,
        workload.plan,
        workload.catalog,
        workload.hints,
        workload.params,
        _MODES[mode],
    )


def entry(plan) -> dict[str, str]:
    """One ranked plan as the fixtures record it."""
    described = plan.physical.describe().encode("utf-8")
    return {
        "signature": signature_key(plan.body),
        "cost": plan.cost.hex(),
        "physical": hashlib.sha256(described).hexdigest()[:16],
    }


def frozen(name: str) -> dict:
    """The committed fixture of one space: ``plan_count`` + ``ranking``."""
    return json.loads((FIXTURES / f"{name}.json").read_text())


def _freeze() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name in SPACE_NAMES:
        result = space(name).optimizer().optimize(space(name).plan)
        limit = STRESS_RANKS if name == "stress" else None
        # One ranked plan per line keeps fixture diffs readable.
        rows = ",\n".join(
            "  " + json.dumps(entry(plan)) for plan in result.ranked[:limit]
        )
        (FIXTURES / f"{name}.json").write_text(
            f'{{"plan_count": {result.plan_count},\n "ranking": [\n{rows}\n]}}\n'
        )
        print(f"{name}: {result.plan_count} plans")


if __name__ == "__main__":
    _freeze()
