"""``serve_mix``: a real ``repro serve`` process under two closed-loop tenants.

Each tenant has one connection and cycles the four named workloads at
the server's default scale; the tenants get a client thread each when
there is a core per thread beside the server's, else they take turns.
Work comes in blocks of 80 requests; before each block the benchmark
process commits a *foreign write* to the tenant's sqlite store — the
path ``repro experiment --stats-store`` takes — so the tenant's next
request of every workload pays ``sync()`` -> exact invalidation ->
re-plan (4 misses), and the other 76 are warm hits: 19 of every 20
requests hit.  It is the only workload that exercises ``serve`` and the
sqlite backend, and it uses the store and the plan cache both ways at
once (writes beside reads).

The written observation is always tpch_q7's, genuinely collected from
its rank-1 plan, with ``sigma_shipdate``'s ``rows_out`` scaled by a
seeded factor.  Rotating the written workload would make the
first-miss latency a four-mode mixture whose median does not repeat;
Q7 has the only plan space (442 alternatives) where the dirty re-plan
is visible.  Source scans are left out of the write because tpch_q7
and tpch_q15 both name a source ``lineitem`` with different row counts,
and a store that has seen one refuses to plan the other.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import tempfile
import threading
import traceback
from pathlib import Path

from harness import NULL_RECORDER, Samples, Tally, clock, median, percentile, run_for

from repro.core import AnnotationMode
from repro.core.plan import signature_key
from repro.engine import Engine
from repro.feedback import ObservationCollector, StatisticsStore
from repro.optimizer import Optimizer
from repro.serve import ServeError, spawn_server
from repro.workloads import ALL_WORKLOADS

#: The request cycle; the written workload comes first in every block.
NAMES = ("tpch_q7", "tpch_q15", "clickstream", "textmining")
TENANTS = ("ledger-a", "ledger-b")
BLOCK = 80  # requests per foreign write: 4 misses + 76 hits
WARMUP_BLOCKS = 2
WRITTEN = "tpch_q7"
PERTURBED_OP = "sigma_shipdate"

#: The server's environment beside the caller's.  asyncio reads every
#: request into a fresh 256 KiB buffer; glibc serves that from the heap
#: or maps it anew (two minor faults a request, a quarter on the hit
#: median) depending on where its self-adjusting mmap threshold stands
#: after the first plans, which is a coin flip per server process.
#: With 64 MiB of slack kept above the heap the buffer always fits.
SERVER_ENV = {"MALLOC_TOP_PAD_": str(64 << 20)}

#: End-of-run ``metrics`` counters reported per layer (server name ->
#: ledger name), as the difference between run start and run end.
COUNTERS = {
    "serve.requests": "serve.requests",
    "serve.cache_hits": "serve.cache_hits",
    "serve.cache_misses": "serve.cache_misses",
    "serve.planned": "serve.planned",
    "serve.invalidations": "serve.invalidations",
    "serve.memo_evictions": "serve.memo_evictions",
    "serve.cache_invalidations": "serve.cache_invalidations",
    "serve.rejected": "serve.rejected",
    "serve.store_conflicts": "serve.store_conflicts",
    "serve.cache_cross_tenant_hits": "serve.cross_tenant_hits",
    "serve.background_replans": "serve.background_replans",
}


class Tenant:
    """One tenant: a connection, a store path, and what its cache holds."""

    def __init__(self, index: int, name: str, path: Path, seed: int) -> None:
        self.index = index
        self.name = name
        self.path = path
        self.rng = random.Random(f"{seed}/{name}")
        self.client = None
        #: Workloads whose next request must miss (stale since a write).
        self.stale: set[str] = set()
        self.blocks = 0


class ServeMix:
    name = "serve_mix"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        # Concurrent clients leave the server a core of its own.  On the
        # two-core reference host that is one client driving both
        # tenants in turn: with two, both cores were saturated and every
        # hiccup of the host doubled in the hit latency.  A single client
        # shares one CPU with the server instead, see pin().
        self.clients = min(len(TENANTS), max(1, (os.cpu_count() or 1) - 1))
        self.tally = Tally()
        self.server = None
        self.tenants: list[Tenant] = []
        self.spawn_s = 0.0
        self.writer = threading.Lock()
        self.affinity = None  # the CPU set to restore in close()

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        # The server builds its workloads with the default seeds, so the
        # benchmark builds the same ones; --seed feeds the perturbations.
        direct = {}
        for name in NAMES:
            w = ALL_WORKLOADS[name]()
            best = Optimizer(
                w.catalog,
                w.hints,
                AnnotationMode.SCA,
                w.params,
                search="guided",
                top_k=1,
            ).optimize(w.plan).best
            direct[name] = (best.cost, signature_key(best.body))
            if name == WRITTEN:
                collector = ObservationCollector()
                Engine(w.params, w.true_costs, collector=collector).execute(
                    best.physical, w.data
                )
                observed = collector.executions[0]
                self.observation = dataclasses.replace(
                    observed,
                    ops=tuple(o for o in observed.ops if o.kind != "source"),
                )

        self.pin()
        stats_dir = Path(tempfile.mkdtemp(prefix="stats-", dir=self.workdir))
        # spawn_server() hands the child a copy of this process's environment.
        saved = {key: os.environ.get(key) for key in SERVER_ENV}
        os.environ.update(SERVER_ENV)
        try:
            t0 = clock()
            self.server = spawn_server(
                ["--stats-dir", str(stats_dir), "--search", "guided"]
            )
            self.spawn_s = clock() - t0
        finally:
            for key, value in saved.items():
                if value is None:
                    del os.environ[key]
                else:
                    os.environ[key] = value
        self.tenants = [
            Tenant(i, name, stats_dir / f"{name}.sqlite", self.seed)
            for i, name in enumerate(TENANTS)
        ]
        for tenant in self.tenants:
            tenant.client = self.server.connect()

        # Empty-store parity: what the server plans for a tenant with no
        # statistics must be bit-equal to a direct Optimizer.optimize.
        first = self.tenants[0]
        for name in NAMES:
            response = first.client.plan(name, tenant=first.name)
            problems = []
            if response["cache"] != "miss":
                problems.append(f"first {name} request was not a miss")
            if (response["cost"], response["signature"]) != direct[name]:
                problems.append(f"{name} differs from a direct optimize")
            self.tally.operation(problems)

        # The second tenant's store is written before its first request,
        # so the two tenants never share a statistics fingerprint and any
        # cross-tenant cache hit is a leak.
        warmup = Samples()
        for tenant in reversed(self.tenants):
            for _ in range(WARMUP_BLOCKS):
                self.block(tenant, NULL_RECORDER, warmup, self.tally)
        # Keep the four workloads' data out of the load generator's
        # automatic collections: a pause here would be read as latency.
        gc.collect()
        gc.freeze()

    def pin(self) -> None:
        """With one client, keep it and the server on one CPU.

        One closed-loop client and the server take strict turns, so they
        never need two cores, but where the scheduler puts them decides
        the round trip: on the two-core reference host the hit median is
        0.20 ms on a shared core, 0.23 ms across two, and was 0.35 ms
        unpinned beside a busy neighbour process.  The server is spawned
        after this and inherits the mask.
        """
        if self.clients == 1 and hasattr(os, "sched_setaffinity"):
            self.affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self.affinity)})

    def close(self) -> None:
        if self.affinity is not None:
            os.sched_setaffinity(0, self.affinity)
            self.affinity = None
        gc.unfreeze()
        for tenant in self.tenants:
            if tenant.client is not None:
                tenant.client.close()
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- load --------------------------------------------------------------

    def foreign_write(self, tenant: Tenant) -> bool:
        """Commit one perturbed observation; True if the tenant's learned
        view changed (so its cached plans are stale)."""
        factor = tenant.rng.uniform(0.5, 1.5)
        ops = tuple(
            dataclasses.replace(o, rows_out=max(1, round(o.rows_out * factor)))
            if o.op_name == PERTURBED_OP
            else o
            for o in self.observation.ops
        )
        store = StatisticsStore.open(tenant.path)
        try:
            before = store.estimator_view()
            store.ingest(dataclasses.replace(self.observation, ops=ops))
            return store.estimator_view() != before
        finally:
            store.close()

    def block(self, tenant: Tenant, rec, samples: Samples, tally: Tally) -> None:
        """One foreign write, then ``BLOCK`` closed-loop requests."""
        # One foreign writer serves all tenants: it commits to one store
        # and moves on once that tenant has re-planned.  Two dirty
        # re-plans therefore never share the server's interpreter lock;
        # whether they did was a coin flip per block that doubled the
        # miss latency and made its median bimodal.
        started = clock()
        with self.writer:
            t0 = clock()
            with rec.span("feedback.foreign_ingest", "feedback", tid=tenant.index):
                changed = self.foreign_write(tenant)
            samples.add("foreign_ingest_s", clock() - t0)
            if changed:
                tenant.stale = set(NAMES)
            self.request(tenant, NAMES[0], rec, samples, tally)
        for i in range(1, BLOCK):
            self.request(tenant, NAMES[i % len(NAMES)], rec, samples, tally)
        samples.add("block_s", clock() - started)
        tenant.blocks += 1

    def request(
        self, tenant: Tenant, name: str, rec, samples: Samples, tally: Tally
    ) -> None:
        """One plan request, timed and checked against what the cache holds."""
        tid = tenant.index
        problems = []
        with rec.span(
            "serve.request", "serve", tid=tid, block=tenant.blocks, workload=name
        ) as span:
            t0 = clock()
            try:
                response = tenant.client.plan(name, tenant=tenant.name)
            except (ServeError, OSError) as exc:
                response = None
                problems.append(f"{name} request failed: {exc}")
            t1 = clock()
        if response is not None:
            expect_miss = name in tenant.stale
            tenant.stale.discard(name)
            server_s = response["serve_seconds"]
            if rec.enabled:
                # The server's own timing, centred in the round trip;
                # what is left of the request span is the wire.
                start = t0 + (t1 - t0 - server_s) / 2
                rec.add(
                    "serve.server", "serve", start, start + server_s, span["id"], tid
                )
            samples.add("server_s", server_s)
            samples.add("wire_s", t1 - t0 - server_s)
            if response["cache"] == "hit":
                samples.add("headline_s", t1 - t0)
                samples.add("traced", rec.enabled)
                if expect_miss:
                    # Legitimate only if the server's background pass
                    # re-planned it first; settled at the end of the run.
                    samples.add("unexpected_hit", 1)
            else:
                if not expect_miss:
                    problems.append(f"{name} missed with nothing written")
                # Only the written workload's memo has a dirty spine; the
                # other three re-plan over an untouched memo.
                if name == WRITTEN:
                    samples.add("dirty_miss_s", t1 - t0)
                    samples.add("planning_s", response["planning_seconds"])
                else:
                    samples.add("clean_miss_s", t1 - t0)
        tally.operation(problems)

    def run(self, seconds: float, recorder) -> Samples:
        before = self._counters()
        results: list[tuple[Samples, Tally]] = []

        def client(index: int) -> None:
            samples, tally = Samples(), Tally()
            results.append((samples, tally))
            mine = self.tenants[index :: self.clients]

            def body(i: int) -> None:
                # The traced phase records every other block.
                traced = recorder is not None and (i // len(mine)) % 2 == 0
                rec = recorder if traced else NULL_RECORDER
                try:
                    self.block(mine[i % len(mine)], rec, samples, tally)
                except Exception:  # noqa: BLE001 - counted, never fatal
                    traceback.print_exc()
                    tally.operation(["block raised"])

            run_for(seconds, body)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        merged = Samples()
        for samples, tally in results:
            merged.merge(samples)
            self.tally.merge(tally)
        after = self._counters()
        self.deltas = {
            ours: after.get(theirs, 0) - before.get(theirs, 0)
            for theirs, ours in COUNTERS.items()
        }
        self.tally.operation(
            ["a plan was served across tenants"]
            if self.deltas["serve.cross_tenant_hits"]
            else []
        )
        self.tally.operation(
            ["a stale plan was served as a hit"]
            if len(merged["unexpected_hit"]) > self.deltas["serve.background_replans"]
            else []
        )
        return merged

    def _counters(self) -> dict[str, float]:
        return self.tenants[0].client.metrics()["counters"]

    # -- reporting ---------------------------------------------------------

    def end_to_end(self, samples: Samples) -> dict[str, float]:
        # Throughput of the median block (write, 4 misses, 76 hits), times
        # the blocks in flight: requests over the wall clock is a mean, and
        # one stall of the host in 15 s moved it by a sixth.
        return {
            "headline_ms_p50": median(samples["headline_s"]) * 1e3,
            "replan_ms_p50": median(samples["dirty_miss_s"]) * 1e3,
            "work_per_s": self.clients * BLOCK / median(samples["block_s"]),
        }

    def per_layer(self, samples: Samples, recorder) -> dict[str, float]:
        out = dict(self.deltas)
        hits, misses = out["serve.cache_hits"], out["serve.cache_misses"]
        out.update(
            {
                "serve.hit_share": hits / (hits + misses) if hits + misses else 0.0,
                "serve.server_ms": median(samples["server_s"]) * 1e3,
                "serve.wire_ms": median(samples["wire_s"]) * 1e3,
                "serve.planning_ms": median(samples["planning_s"]) * 1e3,
                "serve.spawn_s": self.spawn_s,
                "serve.hit_ms_p99": percentile(samples["headline_s"], 99) * 1e3,
                "serve.miss_ms_p95": percentile(samples["dirty_miss_s"], 95) * 1e3,
                "serve.clean_miss_ms": median(samples["clean_miss_s"]) * 1e3,
                "feedback.foreign_ingest_ms": median(samples["foreign_ingest_s"])
                * 1e3,
            }
        )
        return out
