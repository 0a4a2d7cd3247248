"""The nine reference plan spaces and their frozen eager rankings.

Four paper workloads in both annotation modes plus the 7-join x 2-filter
stress space (6 864 alternatives).  ``tests/fixtures/rankings/*.json``
holds, per space, the ranking the eager path (cost every alternative,
sort by cost, then by ``tie_key``) produced when the fixtures were
frozen: per rank the plan's
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

from repro.core import AnnotationMode, Catalog
from repro.core.plan import Node, body, signature_key
from repro.optimizer import (
    CostParams,
    Hints,
    Optimizer,
    PlanContext,
    enumerate_flows,
)
from repro.workloads import (
    build_clickstream,
    build_q7,
    build_q15,
    build_textmining,
)
from repro.workloads.stress import build_stress

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


@cache
def space(name: str) -> Space:
    """Build (once per process) one of :data:`SPACE_NAMES`.

    The space is enumerated once, capped at its frozen ``plan_count``:
    a swap rule that generates too many alternatives raises
    ``OptimizationError`` here instead of growing every test that
    enumerates the space without bound.
    """
    sp = _build(name)
    ctx = PlanContext(sp.catalog, sp.mode)
    enumerate_flows(body(sp.plan), ctx, limit=frozen(name)["plan_count"])
    return sp


def _build(name: str) -> Space:
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
        sp = _build(name)
        result = sp.optimizer().optimize(sp.plan)
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
