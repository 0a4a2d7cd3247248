"""Server behavior: parity with direct optimization, caching, metrics.

The headline contract: a served plan is *bit-identical* to what a direct
:meth:`Optimizer.optimize` call with the same statistics produces — the
server adds caching and scheduling, never arithmetic.
"""

from __future__ import annotations

import asyncio
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.core import AnnotationMode
from repro.core.plan import linearize, signature_key
from repro.feedback.estimator import FeedbackEstimator
from repro.feedback.store import StatisticsStore
from repro.obs import Tracer
from repro.optimizer import Optimizer
from repro.serve import ServeError, ServerConfig
from repro.workloads import ALL_WORKLOADS
from tests.serve.test_admission import BlockingPlanner, _plan_async


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_served_plan_matches_direct_optimizer(make_server, name):
    """Cost, operator order, physical shape, and signature all match a
    direct guided-search optimization against the same (empty) store —
    costs compare with ``==``, not approx: JSON floats round-trip."""
    server = make_server(ServerConfig(reopt_interval=0, default_top_k=2))
    with server.connect() as client:
        response = client.plan(name, tenant="parity", top_k=2)

    workload = ALL_WORKLOADS[name]()
    store = StatisticsStore()
    optimizer = Optimizer(
        workload.catalog,
        workload.hints,
        AnnotationMode.SCA,
        workload.params,
        estimator_factory=lambda ctx, hints: FeedbackEstimator(
            ctx, hints, store
        ),
        search="guided",
        top_k=2,
    )
    direct = optimizer.optimize(workload.plan)
    best = direct.best
    assert response["cost"] == best.cost
    assert response["plan"] == list(linearize(best.body))
    assert response["physical"] == best.physical.describe()
    assert response["signature"] == signature_key(best.body)
    assert [r["cost"] for r in response["ranked"]] == [
        p.cost for p in direct.ranked
    ]


def test_cache_hit_returns_identical_payload(make_server):
    server = make_server()
    with server.connect() as client:
        cold = client.plan("tpch_q7", tenant="a")
        warm = client.plan("tpch_q7", tenant="a")
    assert cold["cache"] == "miss"
    assert warm["cache"] == "hit"
    assert warm["fingerprint"] == cold["fingerprint"]
    # Everything but the serve-time bookkeeping is byte-for-byte shared.
    for volatile in ("cache", "serve_seconds"):
        cold.pop(volatile), warm.pop(volatile)
    assert warm == cold


def test_cache_is_scoped_by_params(make_server):
    server = make_server()
    with server.connect() as client:
        base = client.plan("tpch_q7", tenant="a")
        scaled = client.plan("tpch_q7", tenant="a", scale=2.0)
        deeper = client.plan("tpch_q7", tenant="a", top_k=2)
        modal = client.plan("tpch_q7", tenant="a", mode="manual")
    assert base["cache"] == "miss"
    # Different scale / top_k / mode are different planning identities.
    assert scaled["cache"] == deeper["cache"] == modal["cache"] == "miss"
    assert len(scaled["ranked"]) == 1 and len(deeper["ranked"]) == 2


def test_counters_and_prometheus_endpoint(make_server):
    server = make_server(ServerConfig(reopt_interval=0, metrics_port=0))
    with server.connect() as client:
        client.plan("clickstream", tenant="a")
        client.plan("clickstream", tenant="a")
        client.ping()
        with pytest.raises(ServeError) as rejected:
            client.plan("unknown_workload", tenant="a")
        assert rejected.value.code == 404
        metrics = client.metrics()
    counters = metrics["counters"]
    assert counters["serve.requests"] == 2
    assert counters["serve.planned"] == 1
    assert counters["serve.cache_hits"] == 1
    assert counters["serve.cache_misses"] == 1
    assert "serve.cache_cross_tenant_hits" not in counters

    url = f"http://127.0.0.1:{server.server.metrics_port}/metrics"
    with urllib.request.urlopen(url, timeout=30) as http:
        assert http.status == 200
        text = http.read().decode("utf-8")
    assert "repro_serve_requests_total 2" in text
    assert "repro_serve_cache_hits_total 1" in text
    assert "repro_serve_tenants 1" in text
    assert "repro_serve_plans_per_sec" in text
    assert metrics["prometheus"].splitlines()[0].startswith("# TYPE ")


def test_metrics_http_404(make_server):
    server = make_server(ServerConfig(reopt_interval=0, metrics_port=0))
    url = f"http://127.0.0.1:{server.server.metrics_port}/other"
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(url, timeout=30)
    assert err.value.code == 404


def test_requests_are_traced_into_the_sink(make_server):
    sink = Tracer()
    server = make_server(tracer=sink)
    with server.connect() as client:
        client.plan("tpch_q7", tenant="traced")
        client.plan("tpch_q7", tenant="traced")

    def snapshot():
        return [
            (s.name, s.attrs.get("cache"), s.span_id, s.parent_id)
            for s in sink.spans
        ]

    spans = server.call(snapshot)
    requests = [s for s in spans if s[0] == "serve.request"]
    assert [s[1] for s in requests] == ["miss", "hit"]
    # The cold request's optimizer spans are nested under it, and span
    # ids stay unique after the absorb-merge.
    ids = [s[2] for s in spans]
    assert len(ids) == len(set(ids))
    miss_id = requests[0][2]
    children = [s for s in spans if s[3] == miss_id]
    assert any(s[0] == "optimizer.optimize" for s in children)


def test_unknown_op_and_bad_json_are_structured_errors(make_server):
    server = make_server()
    with server.connect() as client:
        with pytest.raises(ServeError) as bad_op:
            client.request({"op": "dance"})
        assert bad_op.value.code == 400
        # The connection survives a malformed line.
        client._sock.sendall(b"this is not json\n")
        line = client._reader.readline()
        assert b'"code": 400' in line
        assert client.ping()["pong"] is True


def test_shutdown_op_stops_the_server(make_server):
    server = make_server()
    with server.connect() as client:
        assert client.shutdown()["shutting_down"] is True
    server._thread.join(timeout=30)
    assert not server._thread.is_alive()


def test_stop_drains_idle_and_in_flight_connections(make_server, monkeypatch):
    """Shutdown gives an idle client EOF at once, lets a request in
    flight send its reply, and leaves no connection handler behind."""
    server = make_server()
    planner = BlockingPlanner()
    planner.install(monkeypatch, server)
    busy, box = _plan_async(server, "busy")
    assert planner.started.acquire(timeout=30)
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as idle:
        idle.sendall(b'{"op": "ping"}\n')
        assert b'"pong": true' in idle.makefile("rb").readline()
        start = time.perf_counter()
        server.loop.call_soon_threadsafe(server.server.request_shutdown)
        assert idle.recv(1) == b""  # EOF while the planner is still held
        planner.release.set()
        server._thread.join(timeout=30)
        elapsed = time.perf_counter() - start
    busy.join(timeout=30)
    assert not server._thread.is_alive()
    assert elapsed < 5.0
    assert box["response"]["cost"] == 1.0
    assert server.server._connections == {}
    assert [t for t in asyncio.all_tasks(server.loop) if not t.done()] == []
