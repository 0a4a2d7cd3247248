"""Concurrent-writer bench for the sqlite statistics store.

``STORE_BENCH_WRITERS`` forked processes share one statistics store and
ingest ``STORE_BENCH_INGESTS`` executions each, every execution touching
one writer-private operator plus one fully contended shared operator.
Per-ingest wall latencies stream to per-writer files; the parent folds
them into ingests/sec plus p50/p95/p99 and — the whole point — proves
**zero lost updates** under real multi-process contention:

* the final store version equals the total ingest count (every commit
  folded exactly one execution),
* every writer-private operator aggregated exactly its writer's runs,
* the contended operator aggregated every writer's runs.

A single-writer pass additionally pins that the sqlite store learns
bit-identically to an in-memory store.

Environment knobs (defaults are the CI configuration)::

    STORE_BENCH_WRITERS=4   # forked writer processes
    STORE_BENCH_INGESTS=50  # ingests per writer
"""

import json
import math
import os
import time

from conftest import write_result

from repro.feedback import StatisticsStore
from repro.feedback.observation import ExecutionObservation, OpObservation

WRITERS = int(os.environ.get("STORE_BENCH_WRITERS", "4"))
INGESTS = int(os.environ.get("STORE_BENCH_INGESTS", "50"))


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def _observation(writer: int, i: int) -> ExecutionObservation:
    """Deterministic per-(writer, ingest) observation: one private op,
    one fully contended op, one plan runtime."""
    return ExecutionObservation(
        plan_key=f"plan-{writer}",
        seconds=1.0 + 0.01 * i,
        ops=(
            OpObservation(
                key=f"private-{writer}",
                op_name=f"private-{writer}",
                kind="map",
                rows_in=1000,
                rows_out=100 + i,
                udf_calls=1000,
                cpu_per_call=1.5,
                disk_bytes=0.0,
            ),
            OpObservation(
                key="shared",
                op_name="shared",
                kind="map",
                rows_in=1000,
                rows_out=500 + writer,
                udf_calls=1000,
                cpu_per_call=2.0,
                disk_bytes=0.0,
            ),
        ),
        wall_seconds=0.001,
    )


def _writer_process(path, writer: int, latency_path) -> None:
    store = StatisticsStore.open(path)
    latencies = []
    for i in range(INGESTS):
        start = time.perf_counter()
        store.ingest(_observation(writer, i))
        latencies.append(time.perf_counter() - start)
    latency_path.write_text(json.dumps(latencies))


def _run_sqlite(tmp_path) -> dict:
    path = tmp_path / "contended.sqlite"
    StatisticsStore.open(path)  # pre-create: writers race ingests, not birth
    start = time.perf_counter()
    children = []
    for writer in range(WRITERS):
        latency_path = tmp_path / f"latency-{writer}.json"
        pid = os.fork()
        if pid == 0:  # pragma: no cover - exercised in the fork
            code = 1
            try:
                _writer_process(path, writer, latency_path)
                code = 0
            finally:
                os._exit(code)
        children.append(pid)
    for pid in children:
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0, f"writer {pid} failed"
    wall = time.perf_counter() - start

    latencies = []
    for writer in range(WRITERS):
        latencies.extend(
            json.loads(
                (tmp_path / f"latency-{writer}.json").read_text()
            )
        )
    total = WRITERS * INGESTS

    # Zero lost updates: every ingest from every process landed exactly
    # once, EMA folds and run counters included.
    final = StatisticsStore.open(path)
    assert final.version == total, (
        f"lost updates — version {final.version} != {total}"
    )
    assert final.nodes["shared"].runs == total
    for writer in range(WRITERS):
        assert final.nodes[f"private-{writer}"].runs == INGESTS
        assert final.plans[f"plan-{writer}"].runs == INGESTS
    assert final.generation == total + 1  # +1 creation commit

    return {
        "writers": WRITERS,
        "ingests_per_writer": INGESTS,
        "total_ingests": total,
        "wall_seconds": wall,
        "ingests_per_sec": total / wall,
        "ingest_latency": {
            "samples": len(latencies),
            "p50_seconds": _percentile(latencies, 50),
            "p95_seconds": _percentile(latencies, 95),
            "p99_seconds": _percentile(latencies, 99),
        },
        "lost_updates": 0,
    }


def _single_writer_parity(tmp_path) -> bool:
    """The same ingest sequence lands bit-identically in memory and in
    sqlite, and survives a reopen."""
    memory = StatisticsStore()
    sqlite = StatisticsStore.open(tmp_path / "parity.sqlite")
    for store in (memory, sqlite):
        for writer in range(2):
            for i in range(10):
                store.ingest(_observation(writer, i))
    assert sqlite.estimator_view() == memory.estimator_view()
    reloaded = StatisticsStore.open(tmp_path / "parity.sqlite")
    assert reloaded.estimator_view() == memory.estimator_view()
    assert reloaded.to_dict() == sqlite.to_dict()
    return True


def test_store_concurrency(results_dir, tmp_path):
    sqlite = _run_sqlite(tmp_path)
    report = {
        "writers": WRITERS,
        "ingests_per_writer": INGESTS,
        "cpu_count": os.cpu_count() or 1,
        "sqlite": sqlite,
        # The trend-gated headline: sustained multi-process ingest
        # throughput of the sqlite-WAL backend under full contention.
        "sqlite_ingests_per_sec": sqlite["ingests_per_sec"],
        "single_writer_parity": _single_writer_parity(tmp_path),
        "note": (
            f"{WRITERS} forked writers x {INGESTS} ingests each into one "
            "shared store; optimistic generation-checked commits; zero "
            "lost updates asserted on version, per-writer and contended "
            "aggregates"
        ),
    }
    write_result(
        results_dir,
        "store_concurrency.json",
        json.dumps(report, indent=2, sort_keys=True),
    )

    assert report["single_writer_parity"]
    assert sqlite["lost_updates"] == 0
    assert sqlite["ingests_per_sec"] > 0
    latency = sqlite["ingest_latency"]
    assert latency["p99_seconds"] >= latency["p50_seconds"]
