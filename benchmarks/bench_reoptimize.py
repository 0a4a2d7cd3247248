"""Re-optimization cost: dirty-spine re-costing vs a full rebuild.

After a single-hint change on the Q7 plan space (442 alternatives, ~1.4k
distinct sub-plans), invalidating only the spine above the changed
operator and re-optimizing over the surviving memo is several times
faster than a full rebuild — while producing bit-identical estimates,
costs, and rankings.  This is the per-round cost of the adaptive
feedback loop.

Results are written to ``benchmarks/results/reoptimize.json``.
"""

import json
import statistics
import time

from conftest import write_result

from repro.core import AnnotationMode
from repro.core.plan import signature
from repro.optimizer import Hints, Optimizer

REPS = 5


def assert_plans_identical(got, want):
    assert got.plan_count == want.plan_count
    for g, w in zip(got.ranked, want.ranked):
        assert g.rank == w.rank
        assert signature(g.body) == signature(w.body)
        assert g.cost == w.cost  # exact float equality
        assert g.physical.describe() == w.physical.describe()


# -- measurements -------------------------------------------------------------


def measure_reoptimize(workload):
    """Single-hint re-optimization: dirty spine vs full rebuild (Q7)."""
    changes = {
        "gamma_revenue": Hints(distinct_keys=64, cpu_per_call=2.0),
        "sigma_nation_pair": Hints(selectivity=0.02, cpu_per_call=1.5),
    }
    report = {}
    for name, hint in changes.items():
        new_hints = {**workload.hints, name: hint}
        rebuilds, respines = [], []
        evicted = entries = 0
        for _ in range(REPS):
            optimizer = Optimizer(
                workload.catalog, workload.hints, AnnotationMode.SCA,
                workload.params,
            )
            memo = optimizer.new_memo()
            optimizer.optimize(workload.plan, memo=memo)
            entries = len(memo)
            optimizer.hints = new_hints
            # full rebuild: what a memo-less optimizer does per change
            t0 = time.perf_counter()
            full = Optimizer(
                workload.catalog, new_hints, AnnotationMode.SCA, workload.params
            ).optimize(workload.plan)
            rebuilds.append(time.perf_counter() - t0)
            # dirty spine: invalidate + re-cost over the surviving memo
            t0 = time.perf_counter()
            evicted = memo.invalidate({name})
            incremental = optimizer.optimize(workload.plan, memo=memo)
            respines.append(time.perf_counter() - t0)
            assert_plans_identical(incremental, full)
        rebuild = statistics.median(rebuilds)
        respine = statistics.median(respines)
        report[name] = {
            "memo_entries": entries,
            "entries_evicted": evicted,
            "full_rebuild_seconds": rebuild,
            "dirty_spine_seconds": respine,
            "speedup": rebuild / respine if respine else float("inf"),
        }
    return report


def run_bench(q7_workload):
    return {"reoptimize_q7": measure_reoptimize(q7_workload)}


def test_reoptimize(benchmark, q7_workload, results_dir):
    report = benchmark.pedantic(
        run_bench, args=(q7_workload,), rounds=1, iterations=1
    )
    write_result(
        results_dir,
        "reoptimize.json",
        json.dumps(report, indent=2, sort_keys=True),
    )

    spine = report["reoptimize_q7"]["gamma_revenue"]
    # The dirty spine above the changed reduce covers under half of the
    # memo; re-costing it must be several times cheaper than a rebuild
    # (measured ~6x on the dev box; gate conservatively for CI noise).
    assert spine["entries_evicted"] < spine["memo_entries"]
    assert spine["speedup"] > 3.0
    for stats in report["reoptimize_q7"].values():
        assert stats["dirty_spine_seconds"] < stats["full_rebuild_seconds"]

