"""Unit tests for the repro.obs tracer, exporters, and summarizer."""

import json

import pytest

from repro.obs import (
    NOOP_TRACER,
    MetricsRegistry,
    NoopTracer,
    Tracer,
    load_trace,
    render_prometheus,
    render_summary,
    self_times,
    span_rows,
    summarize,
    write_chrome,
    write_jsonl,
    write_prometheus,
    write_trace,
)
from repro.obs.summarize import TraceSpan


class FakeClock:
    """Deterministic monotonic clock: every reading advances by `step`."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def make_tracer():
    return Tracer(_clock=FakeClock())


class TestTracer:
    def test_span_records_start_end_and_attrs(self):
        tracer = make_tracer()
        with tracer.span("work", category="engine", rows=3) as span:
            pass
        assert len(tracer.spans) == 1
        assert span.name == "work"
        assert span.category == "engine"
        assert span.attrs == {"rows": 3}
        assert span.duration == 1.0  # one clock tick inside
        assert span.parent_id is None

    def test_nesting_assigns_parent_ids(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Children exit first, so they are recorded first.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_attrs_settable_after_exit(self):
        tracer = make_tracer()
        span = tracer.span("work")
        with span:
            pass
        span.set(rows_out=42)
        assert tracer.spans[0].attrs["rows_out"] == 42

    def test_span_ids_unique_and_monotonic(self):
        tracer = make_tracer()
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [s.span_id for s in tracer.spans]
        assert len(set(ids)) == 5
        assert ids == sorted(ids)

    def test_exception_still_closes_and_records(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert len(tracer.spans) == 1
        assert tracer._stack == []

    def test_metrics(self):
        registry = MetricsRegistry()
        registry.inc("runs")
        registry.inc("runs", 2)
        registry.set("depth", 7)
        assert registry.snapshot() == {
            "counters": {"runs": 3},
            "gauges": {"depth": 7},
        }

    def test_tracer_count_and_gauge(self):
        tracer = make_tracer()
        tracer.count("a")
        tracer.gauge("b", 1.5)
        assert tracer.metrics.counters["a"] == 1
        assert tracer.metrics.gauges["b"] == 1.5


class TestNoopTracer:
    def test_shared_instance_and_enabled_flag(self):
        assert isinstance(NOOP_TRACER, NoopTracer)
        assert NOOP_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_all_operations_are_inert(self):
        span = NOOP_TRACER.span("x", category="y", a=1)
        with span as entered:
            assert entered is span
        assert span.set(b=2) is span
        NOOP_TRACER.count("c")
        NOOP_TRACER.gauge("g", 1.0)
        # Stateless: nothing accumulated anywhere.
        assert not hasattr(NOOP_TRACER, "spans")

    def test_span_object_is_shared(self):
        assert NOOP_TRACER.span("a") is NOOP_TRACER.span("b")


def traced_sample():
    """A tracer with nested spans and metrics."""
    tracer = make_tracer()
    with tracer.span("engine.execute", category="engine", plan="p"):
        with tracer.span("engine.op", category="engine", op="join"):
            pass
        with tracer.span("engine.partition", category="engine", partition=0):
            pass
    with tracer.span("optimizer.optimize", category="optimizer"):
        pass
    tracer.count("engine.executions")
    tracer.gauge("memo.entries", 12)
    return tracer


class TestExport:
    def test_span_rows_sorted_and_rebased(self):
        rows = span_rows(traced_sample())
        assert [r["ts"] for r in rows] == sorted(r["ts"] for r in rows)
        assert min(r["ts"] for r in rows) == 0.0
        names = {r["name"] for r in rows}
        assert {"engine.execute", "engine.op", "engine.partition"} <= names

    def test_jsonl_round_trip(self, tmp_path):
        tracer = traced_sample()
        path = tmp_path / "t.jsonl"
        count = write_jsonl(tracer, path)
        assert count == len(tracer.spans)
        spans = load_trace(path)
        assert len(spans) == count
        by_name = {s.name: s for s in spans}
        # Parent links survive the round trip.
        assert (
            by_name["engine.op"].parent_id
            == by_name["engine.execute"].span_id
        )
        assert by_name["engine.partition"].tid == 0

    def test_chrome_round_trip_and_metadata(self, tmp_path):
        tracer = traced_sample()
        path = tmp_path / "t.json"
        count = write_chrome(tracer, path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        x_events = [e for e in events if e["ph"] == "X"]
        assert len(x_events) == count == len(tracer.spans)
        # Perfetto-style thread metadata: the tracing process's one lane.
        thread_names = [
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        ]
        assert thread_names == ["main"]
        # Timestamps are microseconds.
        op = next(e for e in x_events if e["name"] == "engine.op")
        assert op["dur"] == pytest.approx(1.0 * 1e6)
        # Round trip through the summarizer loader preserves nesting.
        spans = load_trace(path)
        by_name = {s.name: s for s in spans}
        assert (
            by_name["engine.op"].parent_id
            == by_name["engine.execute"].span_id
        )

    def test_write_trace_sniffs_extension(self, tmp_path):
        tracer = traced_sample()
        jsonl = tmp_path / "a.jsonl"
        chrome = tmp_path / "a.json"
        write_trace(tracer, jsonl)
        write_trace(tracer, chrome)
        assert jsonl.read_text().lstrip().startswith("{")
        assert '"traceEvents"' in chrome.read_text()[:40]
        assert len(load_trace(jsonl)) == len(load_trace(chrome))

    def test_write_trace_explicit_format_and_errors(self, tmp_path):
        tracer = traced_sample()
        path = tmp_path / "weird.trace"
        write_trace(tracer, path, fmt="jsonl")
        assert len(load_trace(path)) == len(tracer.spans)
        with pytest.raises(ValueError, match="unknown trace format"):
            write_trace(tracer, path, fmt="xml")

    def test_prometheus_rendering(self, tmp_path):
        tracer = traced_sample()
        text = render_prometheus(tracer.metrics)
        assert "# TYPE repro_engine_executions_total counter" in text
        assert "repro_engine_executions_total 1" in text
        assert "# TYPE repro_memo_entries gauge" in text
        assert "repro_memo_entries 12" in text
        path = tmp_path / "metrics.txt"
        write_prometheus(tracer, path)
        assert path.read_text() == text

    def test_prometheus_sanitizes_names(self):
        registry = MetricsRegistry()
        registry.inc("weird name-with.chars")
        text = render_prometheus(registry)
        assert "repro_weird_name_with_chars_total 1" in text


class TestSummarize:
    def test_self_time_subtracts_direct_children(self):
        tracer = make_tracer()
        with tracer.span("outer"):  # 5 ticks total
            with tracer.span("inner"):  # 1 tick
                pass
            with tracer.span("inner"):  # 1 tick
                pass
        path_spans = [
            s for s in span_rows(tracer)
        ]  # sanity: exporter sees them all
        assert len(path_spans) == 3
        spans = _as_trace_spans(tracer)
        selfs = self_times(spans)
        outer = next(s for s in spans if s.name == "outer")
        assert selfs[outer.span_id] == pytest.approx(outer.duration - 2.0)

    def test_negative_self_time_clamps_to_zero(self):
        # Children on concurrent lanes can sum past their parent's span.
        spans = [
            TraceSpan(1, None, "stage", "engine", 0.0, 10.0, 0),
            TraceSpan(2, 1, "part", "engine", 0.0, 8.0, 11),
            TraceSpan(3, 1, "part", "engine", 0.0, 8.0, 12),
        ]
        assert self_times(spans)[1] == 0.0

    def test_jsonl_tids_load_as_lanes(self, tmp_path):
        # Merged traces (e.g. one lane per tenant) carry their own tids.
        rows = [
            {"id": 1, "parent": None, "name": "serve.request", "cat": "serve",
             "ts": 0.0, "dur": 1.0, "tid": 1},
            {"id": 2, "parent": None, "name": "serve.request", "cat": "serve",
             "ts": 0.5, "dur": 1.0, "tid": 2},
        ]
        path = tmp_path / "lanes.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        spans = load_trace(path)
        assert [s.tid for s in spans] == [1, 2]
        assert "(2 timeline lane(s))" in render_summary(spans)

    def test_summarize_aggregates_by_category_and_name(self):
        per_cat, per_name = summarize(_as_trace_spans(traced_sample()))
        cats = {a.key for a in per_cat}
        assert cats == {"engine", "optimizer"}
        engine_names = {a.key for a in per_name if a.category == "engine"}
        assert "engine.partition" in engine_names
        # Self time never exceeds total time.
        for agg in per_cat + per_name:
            assert agg.self_seconds <= agg.total_seconds + 1e-12

    def test_render_summary(self):
        text = render_summary(_as_trace_spans(traced_sample()))
        assert "self time by subsystem" in text
        assert "engine" in text
        assert "optimizer" in text
        assert "timeline lane" in text

    def test_render_summary_empty(self):
        assert "empty trace" in render_summary([])


def _as_trace_spans(tracer):
    return [
        TraceSpan(
            span_id=s.span_id,
            parent_id=s.parent_id,
            name=s.name,
            category=s.category,
            start=s.start,
            duration=s.duration,
            tid=0,
        )
        for s in tracer.spans
    ]
