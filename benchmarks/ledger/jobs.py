"""``q7_job`` and ``textmining_job``: one whole job per iteration.

submit -> uncached SCA of every UDF -> fresh sqlite statistics store ->
cold guided plan -> execute with a collector -> ingest -> estimator-view
diff -> exact invalidation -> re-plan over the surviving memo.  Q7 at
scale 10 is the workload where the engine's own time and planning are
both a visible share of the job; text mining is its control (UDF bodies
are ~99% of the job).
"""

from __future__ import annotations

import gc
import hashlib
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

from repro.core import AnnotationMode, datasets_equal, evaluate, iter_nodes
from repro.core.dataset import canonical_record
from repro.core.errors import AnalysisError
from repro.core.operators import UdfOperator
from repro.engine import Engine
from repro.feedback import FeedbackEstimator, ObservationCollector, StatisticsStore
from repro.optimizer import Optimizer
from repro.sca import analyze_tac, compile_to_tac
from repro.workloads import build_q7, build_textmining

WARMUP_JOBS = 2


def records_digest(records) -> str:
    """Order-free digest of a record bag (the per-iteration output check)."""
    canon = sorted(repr(canonical_record(r)) for r in records)
    return hashlib.sha256("\n".join(canon).encode("utf-8")).hexdigest()


def analyze_uncached(udf) -> bool:
    """Run one UDF through the SCA front-end and analyzer, past every cache.

    True when the derived properties are precise, False when the analyzer
    had to fall back to the conservative read-all/write-all set.
    """
    try:
        tac = compile_to_tac(udf.fn, udf.param_kinds)
        return not analyze_tac(tac, udf.param_kinds).is_conservative()
    except AnalysisError:
        return False


class JobWorkload:
    clients = 1

    def __init__(
        self, name: str, build, scale_factor: int, seed: int, workdir: Path
    ) -> None:
        self.name = name
        self._build = build
        self.scale_factor = scale_factor
        self.seed = seed
        self.workdir = workdir
        self.tally = Tally()
        self.counts: dict[str, float] | None = None

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        self.workload = self._build(scale_factor=self.scale_factor, seed=self.seed)
        self.udfs = [
            n.op.udf
            for n in iter_nodes(self.workload.plan)
            if isinstance(n.op, UdfOperator)
        ]
        # The oracle is the logical reference interpreter: it shares no
        # code with the optimizer's physical plans or the engine.
        self.reference = evaluate(self.workload.plan, self.workload.data)
        self.reference_digest = records_digest(self.reference)
        warmup = Samples()
        for i in range(WARMUP_JOBS):
            records = self.iterate(NULL_RECORDER, warmup, -1 - i)
        # The full bag comparison once; every job is checked by digest.
        self.tally.operation(
            []
            if datasets_equal(records, self.reference)
            else ["output is not bag-equal to evaluate()"]
        )

    def close(self) -> None:
        pass

    def run(self, seconds: float, recorder) -> Samples:
        return run_iterations(self, seconds, recorder)

    # -- one job -----------------------------------------------------------

    def iterate(self, rec, samples: Samples, i: int) -> list:
        """Run one job; returns the executed records."""
        gc.collect()
        w = self.workload
        path = self.workdir / f"{self.name}-{i}.sqlite"
        store = None
        t0 = clock()
        try:
            with rec.span("job", "bench", iteration=i):
                with rec.span("sca.analyze", "sca"):
                    precise = sum(analyze_uncached(udf) for udf in self.udfs)
                with rec.span("feedback.open", "feedback"):
                    store = StatisticsStore.open(path)
                    view = store.estimator_view()
                with rec.span("optimizer.plan_cold", "optimizer"):
                    optimizer = Optimizer(
                        w.catalog,
                        w.hints,
                        AnnotationMode.SCA,
                        w.params,
                        estimator_factory=lambda ctx, hints: FeedbackEstimator(
                            ctx, hints, store
                        ),
                        search="guided",
                        top_k=1,
                    )
                    memo = optimizer.new_memo()
                    cold = optimizer.optimize(w.plan, memo=memo)
                with rec.span("engine.execute", "engine"):
                    collector = ObservationCollector()
                    engine = Engine(w.params, w.true_costs, collector=collector)
                    executed = engine.execute(cold.best.physical, w.data)
                with rec.span("feedback.ingest", "feedback"):
                    for execution in collector.executions:
                        store.ingest(execution)
                with rec.span("feedback.view_diff", "feedback"):
                    learned = store.estimator_view()
                    dirty = {
                        name
                        for name in view.keys() | learned.keys()
                        if view.get(name) != learned.get(name)
                    }
                t_replan = clock()
                with rec.span("optimizer.invalidate", "optimizer"):
                    evicted = memo.invalidate(dirty)
                with rec.span("optimizer.replan", "optimizer"):
                    again = optimizer.optimize(w.plan, memo=memo)
            t1 = clock()
        finally:
            if store is not None:
                store.close()
            for suffix in ("", "-wal", "-shm"):
                Path(f"{path}{suffix}").unlink(missing_ok=True)

        samples.add("headline_s", t1 - t0)
        samples.add("replan_s", t1 - t_replan)
        samples.add("traced", rec.enabled)
        samples.add("enumerate_s", cold.enumeration_seconds)
        samples.add("physical_s", cold.physical_seconds)

        report = executed.report
        stats, restats = cold.search_stats, again.search_stats
        counts = {
            "sca.udfs": len(self.udfs),
            "sca.precise_share": precise / len(self.udfs),
            "optimizer.expanded": stats.expanded,
            "optimizer.costed": stats.costed,
            "optimizer.pruned": stats.pruned,
            "optimizer.bounds_computed": stats.bounds_computed,
            "optimizer.estimate_calls": stats.estimate_calls,
            "optimizer.replan_bounds_computed": restats.bounds_computed,
            "optimizer.memo_evicted": evicted,
            "optimizer.costed_share": stats.costed / stats.expanded,
            "engine.rows_scanned": report.rows_scanned,
            "engine.rows_out": len(executed.records),
            "engine.udf_calls": report.udf_calls,
            "engine.modeled_s": report.seconds,
            "engine.net_bytes": report.net_bytes,
            "engine.disk_bytes": report.disk_bytes,
            "feedback.observations": sum(
                len(e.ops) for e in collector.executions
            ),
            "feedback.dirty_ops": len(dirty),
        }
        problems = []
        if not executed.records:
            problems.append("job returned no rows")
        if records_digest(executed.records) != self.reference_digest:
            problems.append("output digest differs from the reference")
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            problems.append("deterministic counts drifted between iterations")
        self.tally.operation(problems)
        return executed.records

    # -- reporting ---------------------------------------------------------

    def end_to_end(self, samples: Samples) -> dict[str, float]:
        jobs = samples["headline_s"]
        return {
            "headline_ms_p50": median(jobs) * 1e3,
            "replan_ms_p50": median(samples["replan_s"]) * 1e3,
            "work_per_s": self.counts["engine.rows_scanned"] * len(jobs) / sum(jobs),
        }

    def per_layer(self, samples: Samples, recorder) -> dict[str, float]:
        spans = recorder.durations()
        execute_s = median(spans["engine.execute"])
        out = dict(self.counts)
        out.update(
            {
                "sca.analyze_s": median(spans["sca.analyze"]),
                "optimizer.plan_cold_s": median(spans["optimizer.plan_cold"]),
                "optimizer.enumerate_s": median(samples["enumerate_s"]),
                "optimizer.physical_s": median(samples["physical_s"]),
                "optimizer.invalidate_s": median(spans["optimizer.invalidate"]),
                "optimizer.replan_s": median(spans["optimizer.replan"]),
                "optimizer.plan_cold_s_p80": percentile(
                    spans["optimizer.plan_cold"], 80
                ),
                "engine.execute_s": execute_s,
                "engine.us_per_row": execute_s * 1e6 / out["engine.rows_scanned"],
                "engine.us_per_udf_call": execute_s * 1e6 / out["engine.udf_calls"],
                "feedback.open_s": median(spans["feedback.open"]),
                "feedback.ingest_s": median(spans["feedback.ingest"]),
                "feedback.view_diff_s": median(spans["feedback.view_diff"]),
                "job.tail_s_p80": percentile(samples["headline_s"], 80),
                "bench.unattributed_s": median(recorder.unattributed("job")),
            }
        )
        return out


def q7_job(seed: int, workdir: Path) -> JobWorkload:
    # Scale 10: at scale 1 Q7 returns zero rows and the output check
    # would be vacuous.
    return JobWorkload("q7_job", build_q7, 10, seed, workdir)


def textmining_job(seed: int, workdir: Path) -> JobWorkload:
    return JobWorkload("textmining_job", build_textmining, 3, seed, workdir)
