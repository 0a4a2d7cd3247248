"""Exact cache invalidation against foreign statistics commits.

A second process ingests into a tenant's sqlite store while the server
is running (or even mid-request); the server's next ``sync()`` must
detect it, drop exactly the stale plan-cache entries and memo spines,
and re-plan — including the race where the ingest lands while a plan is
being computed: that result is stored under the *pre-ingest* fingerprint
and becomes unreachable the moment the commit is seen.
"""

from __future__ import annotations

import threading

from repro.feedback.observation import ExecutionObservation, OpObservation
from repro.feedback.store import StatisticsStore
from repro.serve import ServerConfig
from repro.workloads import ALL_WORKLOADS


def foreign_ingest(store_path, op_name="sigma_shipdate", rows_out=321.0):
    """One out-of-process-style commit into a tenant's store file."""
    store = StatisticsStore.open(store_path)
    store.ingest(
        ExecutionObservation(
            plan_key="foreign_run",
            seconds=1.0,
            ops=(
                OpObservation(
                    key=f"{op_name}@foreign",
                    op_name=op_name,
                    kind="map",
                    rows_in=1000,
                    rows_out=rows_out,
                    udf_calls=1000,
                    cpu_per_call=1e-6,
                    disk_bytes=0.0,
                ),
            ),
        )
    )
    store.close()


def make_stats_server(make_server, tmp_path, **overrides):
    config = ServerConfig(
        reopt_interval=0, stats_dir=tmp_path / "stats", **overrides
    )
    return make_server(config)


def test_foreign_commit_invalidates_cache(make_server, tmp_path):
    server = make_stats_server(make_server, tmp_path)
    with server.connect() as client:
        cold = client.plan("tpch_q7", tenant="t")
        assert client.plan("tpch_q7", tenant="t")["cache"] == "hit"

        foreign_ingest(tmp_path / "stats" / "t.sqlite")

        after = client.plan("tpch_q7", tenant="t")
        counters = client.metrics()["counters"]
    # The commit changed the tenant's estimator view: new fingerprint,
    # stale entry dropped, fresh plan computed against the new stats.
    assert after["cache"] == "miss"
    assert after["fingerprint"] != cold["fingerprint"]
    assert counters["serve.invalidations"] == 1
    assert counters["serve.cache_invalidations"] == 1
    # The dirty op sits deep in q7's join spine: real memo work evicted.
    assert counters["serve.memo_evictions"] > 0


def test_other_tenants_cache_survives_foreign_commit(make_server, tmp_path):
    server = make_stats_server(make_server, tmp_path)
    with server.connect() as client:
        client.plan("tpch_q7", tenant="noisy")
        client.plan("tpch_q7", tenant="quiet")
        foreign_ingest(tmp_path / "stats" / "noisy.sqlite")
        assert client.plan("tpch_q7", tenant="noisy")["cache"] == "miss"
        # Invalidation is exact: the other tenant's entry is untouched.
        assert client.plan("tpch_q7", tenant="quiet")["cache"] == "hit"


def test_differently_seeded_tenants_never_share_a_plan(make_server, tmp_path):
    """Two tenants whose stores differ only in an operator that no
    workload contains get equal plans under distinct cache keys, and
    each warm repeat hits its own tenant's entry."""
    tenants = ("left", "right")
    (tmp_path / "stats").mkdir()
    for salt, tenant in enumerate(tenants):
        foreign_ingest(tmp_path / "stats" / f"{tenant}.sqlite", f"salt_{salt}")
    server = make_stats_server(make_server, tmp_path)
    requests = [(t, w) for t in tenants for w in sorted(ALL_WORKLOADS)]
    with server.connect() as client:
        cold = {(t, w): client.plan(w, tenant=t) for t, w in requests}
        warm = {(t, w): client.plan(w, tenant=t) for t, w in requests}
        counters = client.metrics()["counters"]
    assert {r["cache"] for r in cold.values()} == {"miss"}
    assert {r["cache"] for r in warm.values()} == {"hit"}
    assert len({r["fingerprint"] for r in cold.values()}) == len(tenants)
    for workload in ALL_WORKLOADS:
        assert len({cold[t, workload]["cost"] for t in tenants}) == 1
    assert counters["serve.planned"] == len(requests)
    assert counters["serve.cache_misses"] == len(requests)
    assert counters["serve.cache_hits"] == len(requests)
    assert "serve.cache_cross_tenant_hits" not in counters
    assert "serve.rejected" not in counters


def test_ingest_landing_mid_request_cannot_poison_the_cache(
    make_server, tmp_path, monkeypatch
):
    """The fingerprint is captured *before* planning starts, so a result
    computed from pre-ingest statistics is filed under the pre-ingest
    key — the next sync retires it instead of serving it as current."""
    server = make_stats_server(make_server, tmp_path)
    real = server.server._plan_cold
    started = threading.Semaphore(0)
    release = threading.Event()

    def parked(tenant, req, tracer):
        started.release()
        assert release.wait(timeout=30)
        return real(tenant, req, tracer)

    monkeypatch.setattr(server.server, "_plan_cold", parked)

    box: dict = {}

    def work():
        with server.connect() as client:
            box["response"] = client.plan("tpch_q7", tenant="raced")

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    assert started.acquire(timeout=30)
    # The request has synced (clean) and missed the cache; now the
    # foreign commit lands while its plan is still being computed.
    foreign_ingest(tmp_path / "stats" / "raced.sqlite")
    release.set()
    thread.join(timeout=30)
    stale = box["response"]
    assert stale["cache"] == "miss"

    with server.connect() as client:
        fresh = client.plan("tpch_q7", tenant="raced")
        counters = client.metrics()["counters"]
    # The raced result went in under the pre-ingest fingerprint; the
    # next request saw the commit, dropped it, and re-planned.
    assert fresh["cache"] == "miss"
    assert fresh["fingerprint"] != stale["fingerprint"]
    assert counters["serve.cache_invalidations"] == 1
    assert counters["serve.cache_misses"] == 2
    assert counters.get("serve.cache_hits", 0) == 0


def test_hot_signatures_are_replanned_in_the_background(
    make_server, tmp_path
):
    server = make_stats_server(make_server, tmp_path, reopt_hot_hits=2)
    with server.connect() as client:
        # Two lifetime hits make (tpch_q7, sca, 1.0, 1) hot for "t".
        client.plan("tpch_q7", tenant="t")
        client.plan("tpch_q7", tenant="t")
        foreign_ingest(tmp_path / "stats" / "t.sqlite")
        # Any request for the tenant syncs, invalidates, and queues the
        # hot signature for background re-planning.
        client.plan("clickstream", tenant="t")
        assert server.run_background_pass() == 1
        # The replan already happened off the request path: warm again.
        response = client.plan("tpch_q7", tenant="t")
        counters = client.metrics()["counters"]
    assert response["cache"] == "hit"
    assert counters["serve.background_replans"] == 1


def test_background_pass_skips_already_replanned_signatures(
    make_server, tmp_path
):
    server = make_stats_server(make_server, tmp_path, reopt_hot_hits=2)
    with server.connect() as client:
        client.plan("tpch_q7", tenant="t")
        client.plan("tpch_q7", tenant="t")
        foreign_ingest(tmp_path / "stats" / "t.sqlite")
        client.plan("clickstream", tenant="t")  # queues the hot replan
        # A client beats the background pass to it...
        client.plan("tpch_q7", tenant="t")
        # ...so the pass finds the cache warm and plans nothing.
        assert server.run_background_pass() == 0
