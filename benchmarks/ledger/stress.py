"""``stress_plan``: planning only, on the 7-join x 2-filter stress space.

6 864 alternatives, no data and no engine: the optimizer does all the
work.  One iteration is a cold-memo guided plan under the base hints,
then a single-hint change (``sigma_1``) -> exact invalidation -> re-plan
over the surviving memo.  The next iteration starts from the base hints
again, so every iteration does identical work and the search counts
repeat exactly.
"""

from __future__ import annotations

import gc
from pathlib import Path

from harness import (
    NULL_RECORDER,
    Samples,
    Tally,
    clock,
    median,
    percentile,
    run_iterations,
)

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
from repro.core.plan import Node, signature
from repro.optimizer import Hints, Optimizer

WARMUP_ITERATIONS = 2
CHANGED_OP = "sigma_1"
FLIPPED_HINT = Hints(selectivity=0.05, cpu_per_call=3.0)


def _concat_udf(left, right, out):
    out.emit(left.concat(right))


def _passthrough(rec, out):
    out.emit(rec.copy())


def build_stress(joins: int = 7, filters: int = 2):
    """A chained-join starflake (a copy of ``bench_reoptimize.build_stress``,
    so the ledger does not depend on the superseded benches): joins cannot
    commute with each other (each keys on the previous dimension's output
    attribute), while the fact-side filters commute freely and push through
    the whole chain."""
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


def _pick(result) -> tuple:
    """What the oracle compares: the rank-1 plan's shape and exact cost."""
    return signature(result.best.body), result.best.cost


class StressPlan:
    name = "stress_plan"
    clients = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        # The plan space is fixed; there is nothing for the seed to vary.
        self.tally = Tally()
        self.counts: dict[str, float] | None = None

    def setup(self) -> None:
        self.plan, self.catalog, self.base = build_stress()
        self.flipped = {**self.base, CHANGED_OP: FLIPPED_HINT}
        # Oracles: one eager full ranking under the base hints (every
        # alternative costed and sorted, no bounds, no frontier) and a
        # cold guided rebuild under the flipped hints (no surviving memo).
        eager = Optimizer(self.catalog, self.base, AnnotationMode.MANUAL)
        self.expected_cold = _pick(eager.optimize(self.plan))
        rebuild = Optimizer(
            self.catalog,
            self.flipped,
            AnnotationMode.MANUAL,
            search="guided",
            top_k=1,
        )
        self.expected_replan = _pick(rebuild.optimize(self.plan))
        self.optimizer = Optimizer(
            self.catalog,
            self.base,
            AnnotationMode.MANUAL,
            search="guided",
            top_k=1,
        )
        warmup = Samples()
        for i in range(WARMUP_ITERATIONS):
            self.iterate(NULL_RECORDER, warmup, -1 - i)

    def close(self) -> None:
        pass

    def run(self, seconds: float, recorder) -> Samples:
        return run_iterations(self, seconds, recorder)

    def iterate(self, rec, samples: Samples, i: int) -> None:
        gc.collect()
        optimizer = self.optimizer
        optimizer.hints = self.base
        t0 = clock()
        with rec.span("stress.iteration", "bench", iteration=i):
            with rec.span("optimizer.plan_cold", "optimizer"):
                memo = optimizer.new_memo()
                cold = optimizer.optimize(self.plan, memo=memo)
            t_replan = clock()
            optimizer.hints = self.flipped
            with rec.span("optimizer.invalidate", "optimizer"):
                evicted = memo.invalidate((CHANGED_OP,))
            with rec.span("optimizer.replan", "optimizer"):
                again = optimizer.optimize(self.plan, memo=memo)
        t1 = clock()

        samples.add("headline_s", t_replan - t0)
        samples.add("replan_s", t1 - t_replan)
        samples.add("iteration_s", t1 - t0)
        samples.add("traced", rec.enabled)
        samples.add("enumerate_s", cold.enumeration_seconds)
        samples.add("physical_s", cold.physical_seconds)

        stats, restats = cold.search_stats, again.search_stats
        counts = {
            "optimizer.expanded": stats.expanded,
            "optimizer.costed": stats.costed,
            "optimizer.pruned": stats.pruned,
            "optimizer.bounds_computed": stats.bounds_computed,
            "optimizer.estimate_calls": stats.estimate_calls,
            "optimizer.replan_bounds_computed": restats.bounds_computed,
            "optimizer.memo_evicted": evicted,
            "optimizer.costed_share": stats.costed / stats.expanded,
        }
        problems = []
        if _pick(cold) != self.expected_cold:
            problems.append("guided rank-1 differs from the eager ranking")
        if _pick(again) != self.expected_replan:
            problems.append("re-plan differs from a cold rebuild")
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            problems.append("deterministic counts drifted between iterations")
        self.tally.operation(problems)

    def end_to_end(self, samples: Samples) -> dict[str, float]:
        # Two plans per iteration: the cold one and the re-plan.
        iterations = samples["iteration_s"]
        return {
            "headline_ms_p50": median(samples["headline_s"]) * 1e3,
            "replan_ms_p50": median(samples["replan_s"]) * 1e3,
            "work_per_s": 2 * len(iterations) / sum(iterations),
        }

    def per_layer(self, samples: Samples, recorder) -> dict[str, float]:
        spans = recorder.durations()
        out = dict(self.counts)
        out.update(
            {
                "optimizer.plan_cold_s": median(spans["optimizer.plan_cold"]),
                "optimizer.enumerate_s": median(samples["enumerate_s"]),
                "optimizer.physical_s": median(samples["physical_s"]),
                "optimizer.invalidate_s": median(spans["optimizer.invalidate"]),
                "optimizer.replan_s": median(spans["optimizer.replan"]),
                "optimizer.plan_cold_s_p80": percentile(
                    spans["optimizer.plan_cold"], 80
                ),
                "bench.unattributed_s": median(
                    recorder.unattributed("stress.iteration")
                ),
            }
        )
        return out
