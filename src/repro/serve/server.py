"""The long-lived, multi-tenant planning server (optimizer-as-a-service).

The optimizer core is fast because of state it accumulates — interned
plans, a warm :class:`~repro.optimizer.memo.Memo` whose bound table
re-evaluates in milliseconds, learned statistics — and a one-shot CLI
throws all of it away after every call.  :class:`PlanningServer` keeps
that state hot and serves it concurrently:

* **Per-tenant statistics.**  Each tenant owns a sqlite-WAL
  :class:`~repro.feedback.store.StatisticsStore` under ``stats_dir``
  (shareable with any ingesting process); every request first runs
  ``store.sync()``, and a foreign commit invalidates exactly the dirty
  memo spine and rotates the tenant's cache fingerprint (old entries are
  garbage-collected once no live tenant reads them) — the same exact
  invalidation contract the adaptive loop uses.
* **Per-tenant warm memos.**  One memo per (tenant, workload, mode,
  scale) plan space carries cells, options and estimates across requests, so
  a cache *miss* after an invalidation still re-plans incrementally.
* **A shared plan cache** keyed on the full planning identity —
  ``(workload, mode, scale, top_k, statistics fingerprint)`` where the
  fingerprint hashes the tenant's ``estimator_view()``.  Two tenants
  share an entry only when their learned statistics are bit-identical
  (then the plans are too); any divergence separates the keys, so plans
  can never leak across differing tenants.  Cross-tenant hits are
  counted (``serve.cache_cross_tenant_hits``) to make that property
  observable — and assertable — from the outside.
* **Admission control.**  A bounded server-wide admission count plus a
  per-tenant in-flight cap; beyond either, requests are rejected
  immediately with a structured 429-style error instead of queueing
  unboundedly.
* **Background re-optimization.**  Hot request signatures (>=
  ``reopt_hot_hits`` lifetime hits) whose cache entries were invalidated
  are re-planned in batches off the request path, so the next client
  request after an ingest is a warm hit again.
* **Observability.**  Each request runs on its own short-lived
  :class:`~repro.obs.Tracer` (concurrent requests never share a span
  stack) that is absorbed into a server-wide sink afterwards, so
  ``--trace`` yields one merged timeline with exact per-request nesting;
  ``serve.*`` counters/gauges export as Prometheus text over an optional
  HTTP endpoint and the ``metrics`` protocol op.

Planning results are bit-identical to a direct
:meth:`Optimizer.optimize` call with the same store — the server adds
caching and scheduling, never arithmetic (pinned by the parity test).
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from ..core.errors import FeedbackError
from ..core.plan import linearize, signature_key
from ..core.udf import AnnotationMode
from ..feedback.estimator import FeedbackEstimator
from ..feedback.store import StatisticsStore
from ..obs.export import render_prometheus
from ..obs.tracer import NOOP_TRACER, MetricsRegistry, Tracer, clock
from ..optimizer.cardinality import CardinalityEstimator
from ..optimizer.memo import Memo
from ..optimizer.optimizer import Optimizer
from ..workloads import ALL_WORKLOADS
from .protocol import (
    ADMISSION_REJECTED,
    BAD_REQUEST,
    INTERNAL_ERROR,
    STORE_CONFLICT,
    UNKNOWN_WORKLOAD,
    PlanRequest,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    parse_plan_request,
)


def view_fingerprint(view: dict[str, tuple]) -> str:
    """Deterministic digest of a store's ``estimator_view()``.

    The view is the exact set of facts an estimator reads (learned
    hints, pinned observations, source overrides), so two stores with
    equal fingerprints produce bit-identical plans for every flow — the
    property that makes the fingerprint a sound plan-cache key
    component.  Hashed over a sorted canonical repr; 16 hex chars keep
    responses readable while collisions stay negligible at cache scale.
    """
    canon = repr(sorted(view.items()))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


#: How long :meth:`PlanningServer.stop` lets in-flight requests finish.
STOP_GRACE_SECONDS = 5.0


@dataclass(slots=True)
class ServerConfig:
    """Everything a :class:`PlanningServer` needs to know at startup."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port (read it back from .port)
    metrics_port: int | None = None  # None = no HTTP metrics endpoint
    #: Directory of per-tenant sqlite statistics stores
    #: (``<tenant>.sqlite``); None serves from per-tenant in-memory
    #: stores (no persistence, no foreign ingests — benchmarking and
    #: tests).
    stats_dir: str | Path | None = None
    search: str = "guided"
    default_top_k: int = 1
    default_mode: str = "sca"
    #: Admission control: server-wide cap on admitted (queued + running)
    #: requests, and per-tenant in-flight cap.
    max_queue: int = 64
    tenant_inflight: int = 4
    #: Tenant LRU cap — the memory-pressure valve: beyond it the
    #: least-recently-used idle tenant's memos, cache entries, and store
    #: handle are dropped.
    max_tenants: int = 64
    max_cache_entries: int = 4096
    #: A request signature is "hot" after this many lifetime hits;
    #: invalidated hot entries are re-planned in the background, at most
    #: ``reopt_batch`` per pass, every ``reopt_interval`` seconds.
    reopt_hot_hits: int = 2
    reopt_batch: int = 8
    reopt_interval: float = 2.0

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.tenant_inflight < 1:
            raise ValueError(
                f"tenant_inflight must be >= 1, got {self.tenant_inflight}"
            )
        if self.max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {self.max_tenants}")
        if self.search not in ("eager", "guided"):
            raise ValueError(f"search must be eager|guided, got {self.search!r}")


@dataclass(slots=True)
class _CacheEntry:
    """One cached planning response (the fingerprint-keyed unit)."""

    payload: dict
    owner: str  # tenant whose request planned it
    fingerprint: str
    hits: int = 0


@dataclass(slots=True)
class TenantState:
    """Hot per-tenant state: statistics store, warm memos, hit history."""

    name: str
    store: StatisticsStore
    fingerprint: str
    #: (workload, mode, scale) -> long-lived Optimizer / warm Memo.
    optimizers: dict[tuple, Optimizer] = field(default_factory=dict)
    memos: dict[tuple, Memo] = field(default_factory=dict)
    #: Serializes this tenant's sync/plan critical section (one memo
    #: cannot be mutated concurrently); cross-tenant requests overlap.
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    inflight: int = 0
    #: Lifetime hit counts per request signature (fingerprint excluded).
    hits: dict[tuple, int] = field(default_factory=dict)
    #: Hot signatures queued for background re-planning (insertion order).
    pending_reopt: "OrderedDict[tuple, PlanRequest]" = field(
        default_factory=OrderedDict
    )

    def memo_entries(self) -> int:
        return sum(memo.size() for memo in self.memos.values())


class PlanningServer:
    """Asyncio front end over the hot planning state.

    All bookkeeping (tenants, cache, counters) is touched only on the
    event-loop thread; planning and store synchronization run in worker
    threads via ``asyncio.to_thread`` under the owning tenant's lock.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        tracer: Tracer | None = None,
        workloads: dict | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        #: Span sink; None-tracer means spans are skipped but the serve
        #: counters below are always collected.
        self.sink = tracer if tracer is not None else NOOP_TRACER
        self.trace_enabled = tracer is not None
        self.metrics = MetricsRegistry()
        self.registry = workloads if workloads is not None else ALL_WORKLOADS
        self._tenants: "OrderedDict[str, TenantState]" = OrderedDict()
        self._cache: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()
        self._workloads: dict[tuple, object] = {}
        self._workload_build_lock = threading.Lock()
        self._admitted = 0
        self._started_at = clock()
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._shutdown: asyncio.Event | None = None
        self._reopt_task: asyncio.Task | None = None
        #: Live connection handlers (both listeners) and their writers;
        #: ``_busy`` holds the ones between reading a request and
        #: sending its reply.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._busy: set[asyncio.Task] = set()
        self.port: int | None = None
        self.metrics_port: int | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http,
                self.config.host,
                self.config.metrics_port,
            )
            self.metrics_port = self._metrics_server.sockets[0].getsockname()[1]
        if self.config.reopt_interval > 0:
            self._reopt_task = asyncio.create_task(self._reopt_loop())

    async def serve_forever(self) -> None:
        """Block until :meth:`request_shutdown` (or the shutdown op)."""
        assert self._shutdown is not None, "start() first"
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()

    async def stop(self) -> None:
        """Stop listening, drain every connection, then close the stores.

        Idle connections get EOF at once; a request in flight may finish
        and send its reply within :data:`STOP_GRACE_SECONDS`, after which
        its handler is cancelled.  Every handler has ended on return.
        """
        self.request_shutdown()
        if self._reopt_task is not None:
            self._reopt_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reopt_task
            self._reopt_task = None
        servers = [
            s for s in (self._server, self._metrics_server) if s is not None
        ]
        for server in servers:
            server.close()
        for task, writer in list(self._connections.items()):
            if task not in self._busy:
                writer.close()
        handlers = set(self._connections)
        if handlers:
            _, late = await asyncio.wait(handlers, timeout=STOP_GRACE_SECONDS)
            for task in late:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)
        for server in servers:
            await server.wait_closed()
        self._server = self._metrics_server = None
        for tenant in self._tenants.values():
            tenant.store.close()
        self._tenants.clear()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # oversized or torn line: drop the connection
                if not line or self._shutdown.is_set():
                    break
                self._busy.add(task)
                try:
                    response = await self._dispatch(line)
                    writer.write(encode_message(response))
                    await writer.drain()
                except ConnectionError:
                    break
                finally:
                    self._busy.discard(task)
        except asyncio.CancelledError:
            pass  # stop()'s grace period ran out: end like a closed client
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, asyncio.CancelledError):
                await writer.wait_closed()
            del self._connections[task]

    async def _dispatch(self, line: bytes) -> dict:
        try:
            payload = decode_message(line)
        except ProtocolError as exc:
            self.metrics.inc("serve.protocol_errors")
            return error_response(BAD_REQUEST, str(exc))
        op = payload.get("op", "plan")
        try:
            if op == "plan":
                return await self._handle_plan(payload)
            if op == "metrics":
                return {
                    "ok": True,
                    "prometheus": self.prometheus_text(),
                    "counters": dict(self.metrics.counters),
                    "gauges": dict(self.metrics.gauges),
                }
            if op == "ping":
                return {
                    "ok": True,
                    "pong": True,
                    "uptime_seconds": clock() - self._started_at,
                }
            if op == "shutdown":
                self.request_shutdown()
                return {"ok": True, "shutting_down": True}
        except Exception as exc:  # noqa: BLE001 - a request must never kill the server
            self.metrics.inc("serve.errors")
            return error_response(
                INTERNAL_ERROR, f"{type(exc).__name__}: {exc}"
            )
        self.metrics.inc("serve.protocol_errors")
        return error_response(BAD_REQUEST, f"unknown op {op!r}")

    # -- the request path --------------------------------------------------

    async def _handle_plan(self, payload: dict) -> dict:
        try:
            req = parse_plan_request(
                payload, self.config.default_top_k, self.config.default_mode
            )
        except ProtocolError as exc:
            self.metrics.inc("serve.protocol_errors")
            return error_response(BAD_REQUEST, str(exc))
        if req.workload not in self.registry:
            return error_response(
                UNKNOWN_WORKLOAD,
                f"unknown workload {req.workload!r} (available: "
                f"{', '.join(sorted(self.registry))})",
            )
        # Admission control: reject instead of queueing unboundedly.
        if self._admitted >= self.config.max_queue:
            return self._reject(req, "queue", "admission queue is full")
        tenant = self._tenants.get(req.tenant)
        if (
            tenant is not None
            and tenant.inflight >= self.config.tenant_inflight
        ):
            return self._reject(
                req, "tenant", f"tenant {req.tenant!r} in-flight cap reached"
            )
        self._admitted += 1
        try:
            tenant = self._get_tenant(req.tenant)
            tenant.inflight += 1
            try:
                async with tenant.lock:
                    return await self._plan_locked(tenant, req)
            finally:
                tenant.inflight -= 1
        finally:
            self._admitted -= 1

    def _reject(self, req: PlanRequest, kind: str, message: str) -> dict:
        self.metrics.inc("serve.rejected")
        self.metrics.inc(f"serve.rejected_{kind}")
        if self.trace_enabled:
            tracer = Tracer()
            with tracer.span(
                "serve.request",
                category="serve",
                tenant=req.tenant,
                workload=req.workload,
                cache="rejected",
                code=ADMISSION_REJECTED,
            ):
                pass
            self.sink.absorb(tracer)
        return error_response(ADMISSION_REJECTED, message)

    async def _plan_locked(self, tenant: TenantState, req: PlanRequest) -> dict:
        tracer = Tracer() if self.trace_enabled else NOOP_TRACER
        started = clock()
        span = tracer.span(
            "serve.request",
            category="serve",
            tenant=tenant.name,
            workload=req.workload,
        )
        try:
            with span:
                dirty = await asyncio.to_thread(
                    self._sync_store, tenant, tracer
                )
                if dirty:
                    self._apply_invalidation(tenant, dirty, tracer)
                params = req.params()
                tenant.hits[params] = tenant.hits.get(params, 0) + 1
                key = (*params, tenant.fingerprint)
                entry = self._cache.get(key)
                if entry is not None:
                    self._cache.move_to_end(key)
                    entry.hits += 1
                    self.metrics.inc("serve.cache_hits")
                    cross = entry.owner != tenant.name
                    if cross:
                        self.metrics.inc("serve.cache_cross_tenant_hits")
                    span.set(cache="hit", cross_tenant=cross)
                    response = dict(entry.payload)
                    response["cache"] = "hit"
                else:
                    self.metrics.inc("serve.cache_misses")
                    try:
                        response = await asyncio.to_thread(
                            self._plan_cold, tenant, req, tracer
                        )
                    except FeedbackError as exc:
                        span.set(cache="error", code=STORE_CONFLICT)
                        self.metrics.inc("serve.store_conflicts")
                        return error_response(STORE_CONFLICT, str(exc))
                    self.metrics.inc("serve.planned")
                    self._store_cache(
                        key,
                        _CacheEntry(response, tenant.name, tenant.fingerprint),
                    )
                    span.set(cache="miss")
                    response = dict(response)
                    response["cache"] = "miss"
                self.metrics.inc("serve.requests")
                response["tenant"] = tenant.name
                response["fingerprint"] = tenant.fingerprint
                response["serve_seconds"] = clock() - started
                return response
        finally:
            self.sink.absorb(tracer)

    # -- planning internals (worker threads, under the tenant lock) --------

    def _sync_store(self, tenant: TenantState, tracer) -> frozenset[str]:
        """Probe the tenant's backend for foreign commits (thread)."""
        store = tenant.store
        store.tracer = tracer
        try:
            return store.sync()
        finally:
            store.tracer = NOOP_TRACER

    def _apply_invalidation(
        self, tenant: TenantState, dirty: frozenset[str], tracer
    ) -> None:
        """Exact invalidation after a foreign ingest (loop thread).

        Evicts the dirty memo spines and rotates the tenant's
        fingerprint, which by itself makes every prior cache entry
        unreachable *for this tenant* — the fingerprint in the key
        certifies exactly which statistics a cached plan was computed
        from, so no rotation can ever serve a stale plan.  Entries under
        the old fingerprint are then garbage-collected unless some other
        live tenant still carries that fingerprint (its statistics
        didn't change, so for it those plans remain exactly right).
        Finally the tenant's hot signatures, now uncached under the new
        fingerprint, queue for background re-planning.
        """
        evicted = 0
        with tracer.span(
            "serve.invalidate", category="serve", dirty=len(dirty)
        ) as span:
            for memo in tenant.memos.values():
                evicted += memo.invalidate(dirty)
            stale_fp = tenant.fingerprint
            tenant.fingerprint = view_fingerprint(
                tenant.store.estimator_view()
            )
            dropped = 0
            if tenant.fingerprint != stale_fp:
                still_read = any(
                    peer.fingerprint == stale_fp
                    for peer in self._tenants.values()
                    if peer is not tenant
                )
                if not still_read:
                    stale_keys = [
                        key
                        for key, entry in self._cache.items()
                        if entry.fingerprint == stale_fp
                    ]
                    for key in stale_keys:
                        del self._cache[key]
                    dropped = len(stale_keys)
                for params, count in tenant.hits.items():
                    if (
                        count >= self.config.reopt_hot_hits
                        and (*params, tenant.fingerprint) not in self._cache
                        and params not in tenant.pending_reopt
                    ):
                        tenant.pending_reopt[params] = PlanRequest(
                            tenant.name, *params
                        )
        span.set(evicted=evicted, cache_dropped=dropped)
        self.metrics.inc("serve.invalidations")
        self.metrics.inc("serve.memo_evictions", evicted)
        self.metrics.inc("serve.cache_invalidations", dropped)

    def _plan_cold(
        self, tenant: TenantState, req: PlanRequest, tracer
    ) -> dict:
        """Plan a cache miss (worker thread, tenant lock held)."""
        workload = self._workload(req.workload, req.scale)
        # A store learned on different data (another scale/seed) must
        # fail loudly instead of silently mis-estimating — same contract
        # as the adaptive loop.
        tenant.store.check_compatible(workload.catalog)
        space = (req.workload, req.mode, req.scale)
        optimizer = tenant.optimizers.get(space)
        if optimizer is None:
            store = tenant.store

            def estimator_factory(ctx, hints) -> CardinalityEstimator:
                return FeedbackEstimator(ctx, hints, store)

            optimizer = Optimizer(
                workload.catalog,
                workload.hints,
                _MODE[req.mode],
                workload.params,
                estimator_factory=estimator_factory,
                search=self.config.search,
                top_k=req.top_k,
            )
            tenant.optimizers[space] = optimizer
            tenant.memos[space] = optimizer.new_memo()
        # The request's tracer and top_k ride on the cached optimizer;
        # safe because the tenant lock serializes its requests.
        optimizer.tracer = tracer
        optimizer.top_k = req.top_k
        t0 = clock()
        result = optimizer.optimize(workload.plan, memo=tenant.memos[space])
        planning_seconds = clock() - t0
        optimizer.tracer = NOOP_TRACER
        best = result.best
        stats = result.search_stats
        return {
            "ok": True,
            "workload": req.workload,
            "mode": req.mode,
            "scale": req.scale,
            "top_k": req.top_k,
            "cost": best.cost,
            "plan": list(linearize(best.body)),
            "physical": best.physical.describe(),
            "signature": signature_key(best.body),
            "ranked": [
                {"rank": p.rank, "cost": p.cost} for p in result.ranked
            ],
            "alternatives": stats.expanded,
            "costed": stats.costed,
            "planning_seconds": planning_seconds,
        }

    def _workload(self, name: str, scale: float):
        """Build (once) and share the immutable workload bundle."""
        key = (name, scale)
        workload = self._workloads.get(key)
        if workload is not None:
            return workload
        with self._workload_build_lock:
            workload = self._workloads.get(key)
            if workload is None:
                workload = self.registry[name](scale_factor=scale)
                self._workloads[key] = workload
        return workload

    # -- tenant lifecycle --------------------------------------------------

    def _get_tenant(self, name: str) -> TenantState:
        tenant = self._tenants.get(name)
        if tenant is not None:
            self._tenants.move_to_end(name)
            return tenant
        while len(self._tenants) >= self.config.max_tenants:
            victim = next(
                (
                    key
                    for key, state in self._tenants.items()
                    if state.inflight == 0
                ),
                None,
            )
            if victim is None:
                break  # every tenant is mid-request; admit over the cap
            self._evict_tenant(victim)
        store = self._open_store(name)
        tenant = TenantState(
            name=name,
            store=store,
            fingerprint=view_fingerprint(store.estimator_view()),
        )
        self._tenants[name] = tenant
        return tenant

    def _open_store(self, tenant: str) -> StatisticsStore:
        if self.config.stats_dir is None:
            return StatisticsStore()
        stats_dir = Path(self.config.stats_dir)
        stats_dir.mkdir(parents=True, exist_ok=True)
        return StatisticsStore.open(stats_dir / f"{tenant}.sqlite")

    def _evict_tenant(self, name: str) -> None:
        tenant = self._tenants.pop(name)
        dropped = [
            key for key, entry in self._cache.items() if entry.owner == name
        ]
        for key in dropped:
            del self._cache[key]
        tenant.store.close()
        self.metrics.inc("serve.tenant_evictions")

    def _store_cache(self, key: tuple, entry: _CacheEntry) -> None:
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self.config.max_cache_entries:
            self._cache.popitem(last=False)
            self.metrics.inc("serve.cache_trims")

    # -- background re-optimization ----------------------------------------

    async def run_background_pass(self) -> int:
        """Re-plan invalidated hot signatures; returns plans produced.

        One pass re-plans at most ``reopt_batch`` signatures across all
        tenants (oldest first per tenant), re-checking the cache under
        the tenant lock so a concurrent request that already re-planned
        the signature costs nothing.
        """
        replanned = 0
        for tenant in list(self._tenants.values()):
            while (
                tenant.pending_reopt
                and replanned < self.config.reopt_batch
            ):
                params, req = tenant.pending_reopt.popitem(last=False)
                async with tenant.lock:
                    tracer = Tracer() if self.trace_enabled else NOOP_TRACER
                    with tracer.span(
                        "serve.reoptimize",
                        category="serve",
                        tenant=tenant.name,
                        workload=req.workload,
                    ):
                        dirty = await asyncio.to_thread(
                            self._sync_store, tenant, tracer
                        )
                        if dirty:
                            self._apply_invalidation(tenant, dirty, tracer)
                        key = (*params, tenant.fingerprint)
                        if key not in self._cache:
                            try:
                                payload = await asyncio.to_thread(
                                    self._plan_cold, tenant, req, tracer
                                )
                            except FeedbackError:
                                self.metrics.inc("serve.store_conflicts")
                                continue
                            self._store_cache(
                                key,
                                _CacheEntry(
                                    payload, tenant.name, tenant.fingerprint
                                ),
                            )
                            self.metrics.inc("serve.background_replans")
                            replanned += 1
                    self.sink.absorb(tracer)
            if replanned >= self.config.reopt_batch:
                break
        return replanned

    async def _reopt_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.reopt_interval)
            with contextlib.suppress(Exception):
                await self.run_background_pass()

    # -- metrics -----------------------------------------------------------

    def prometheus_text(self) -> str:
        """The serve registry as Prometheus exposition text.

        Gauges are refreshed at render time; ``serve.plans_per_sec`` is
        total served plan responses over uptime — the operational
        headline a scrape watches.
        """
        self.metrics.set("serve.tenants", len(self._tenants))
        self.metrics.set("serve.cache_entries", len(self._cache))
        self.metrics.set(
            "serve.memo_entries",
            sum(t.memo_entries() for t in self._tenants.values()),
        )
        uptime = clock() - self._started_at
        self.metrics.set("serve.uptime_seconds", uptime)
        served = self.metrics.counters.get("serve.requests", 0)
        self.metrics.set(
            "serve.plans_per_sec", served / uptime if uptime > 0 else 0.0
        )
        return render_prometheus(self.metrics)

    async def _handle_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.1 GET endpoint: ``/metrics`` in Prometheus text."""
        task = asyncio.current_task()
        self._connections[task] = writer  # never busy: stop() closes it
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) > 1 else "/"
            if path.rstrip("/") in ("", "/metrics"):
                body = self.prometheus_text().encode("utf-8")
                status = b"200 OK"
                ctype = b"text/plain; version=0.0.4; charset=utf-8"
            else:
                body = b"try /metrics\n"
                status = b"404 Not Found"
                ctype = b"text/plain; charset=utf-8"
            writer.write(
                b"HTTP/1.1 %s\r\nContent-Type: %s\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
                % (status, ctype, len(body), body)
            )
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()
            del self._connections[task]


_MODE = {
    "sca": AnnotationMode.SCA,
    "manual": AnnotationMode.MANUAL,
}
