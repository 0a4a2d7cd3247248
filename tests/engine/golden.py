"""Frozen engine output for reference plans of the four paper workloads.

``tests/fixtures/engine/*.json`` holds, per workload, what the engine
produced for a few ranked plans when the fixtures were frozen: the plan's
``signature_key``, a digest of the ordered output records, and every
:class:`~repro.engine.metrics.OpMetrics` field per operator (floats as
``float.hex()``).  Q7 runs at scale 10 (ranks 1, median and last of the
eager SCA ranking); text mining, clickstream and Q15 at their default
scale, rank 1.

The fixtures pin the engine against itself, bit for bit.  That catches
what the reference-evaluator oracle cannot: a record-API bug shared by
``evaluate()`` and the engine, a reordered output, or one ulp of drift
in the modeled time.

Regenerate (only when a change is *meant* to alter engine output) with
``PYTHONPATH=src python tests/engine/golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path

from repro.core import AnnotationMode
from repro.core.dataset import canonical_record
from repro.core.plan import signature_key
from repro.engine.metrics import OpMetrics
from repro.optimizer import Optimizer
from repro.workloads import (
    build_clickstream,
    build_q7,
    build_q15,
    build_textmining,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "engine"


@dataclass(frozen=True)
class Case:
    name: str
    build: object
    scale_factor: float
    ranks: tuple[str, ...]  # "first", "median" or "last"


CASES = {
    case.name: case
    for case in (
        Case("tpch_q7", build_q7, 10, ("first", "median", "last")),
        Case("textmining", build_textmining, 1, ("first",)),
        Case("clickstream", build_clickstream, 1, ("first",)),
        Case("tpch_q15", build_q15, 1, ("first",)),
    )
}


def rank_index(which: str, count: int) -> int:
    return {"first": 0, "median": count // 2, "last": count - 1}[which]


@cache
def planned(name: str):
    """``(workload, eager ranking)`` of one case, built once per process."""
    case = CASES[name]
    workload = case.build(scale_factor=case.scale_factor)
    ranked = (
        Optimizer(
            workload.catalog, workload.hints, AnnotationMode.SCA, workload.params
        )
        .optimize(workload.plan)
        .ranked
    )
    return workload, ranked


def records_digest(records) -> str:
    """Digest of the records *in order* (each record canonicalized)."""
    text = "\n".join(repr(canonical_record(r)) for r in records)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def metrics_entry(m: OpMetrics) -> dict:
    out = {}
    for f in fields(OpMetrics):
        value = getattr(m, f.name)
        out[f.name] = value.hex() if isinstance(value, float) else value
    return out


def execution_entry(plan, result) -> dict:
    """One executed plan as the fixtures record it."""
    return {
        "rank": plan.rank,
        "signature": signature_key(plan.body),
        "rows": len(result.records),
        "records": records_digest(result.records),
        "seconds": result.report.seconds.hex(),
        "per_op": [metrics_entry(m) for m in result.report.per_op],
    }


def frozen(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


def _freeze() -> None:
    from repro.engine import Engine

    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, case in CASES.items():
        workload, ranked = planned(name)
        engine = Engine(workload.params, workload.true_costs)
        entries = []
        for which in case.ranks:
            plan = ranked[rank_index(which, len(ranked))]
            entry = execution_entry(plan, engine.execute(plan.physical, workload.data))
            entry["which"] = which
            entries.append(entry)
        # One operator per line keeps fixture diffs readable.
        blocks = []
        for entry in entries:
            per_op = ",\n".join(
                "      " + json.dumps(op) for op in entry.pop("per_op")
            )
            head = json.dumps(entry)[:-1]
            blocks.append(f'  {head}, "per_op": [\n{per_op}\n  ]}}')
        (FIXTURES / f"{name}.json").write_text(
            f'{{"plan_count": {len(ranked)},\n "executions": [\n'
            + ",\n".join(blocks)
            + "\n]}\n"
        )
        print(f"{name}: {len(entries)} execution(s) of {len(ranked)} plans")


if __name__ == "__main__":
    _freeze()
