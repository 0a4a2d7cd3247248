"""Trace and metrics exporters.

Three formats, all derived from one finished :class:`~.tracer.Tracer`:

* **JSONL span log** (:func:`write_jsonl`) — one JSON object per span,
  sorted by start time, seconds-based; the stable machine-readable form
  (`repro trace summarize` reads it back).
* **Chrome trace-event JSON** (:func:`write_chrome`) — complete
  ``traceEvents`` duration events (microsecond timestamps) loadable in
  Perfetto / ``chrome://tracing``.  The tracing process renders as one
  named thread lane.
* **Prometheus-style text snapshot** (:func:`render_prometheus` /
  :func:`write_prometheus`) — the deterministic counters and gauges in
  the exposition text format (``# TYPE``-annotated, sanitized names).

Timestamps are re-based to the trace's earliest span start, so traces
begin at t=0 regardless of process uptime.
"""

from __future__ import annotations

import json
from pathlib import Path

from .tracer import MetricsRegistry, Span, Tracer


def _clean(value):
    """Attribute values must survive JSON; anything exotic becomes str."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _sorted_spans(tracer: Tracer) -> list[Span]:
    return sorted(tracer.spans, key=lambda s: (s.start, s.span_id))


def _base_time(spans: list[Span]) -> float:
    return min((s.start for s in spans), default=0.0)


def span_rows(tracer: Tracer) -> list[dict]:
    """Spans as plain dicts (seconds, re-based to trace start)."""
    spans = _sorted_spans(tracer)
    base = _base_time(spans)
    return [
        {
            "id": s.span_id,
            "parent": s.parent_id,
            "name": s.name,
            "cat": s.category,
            "ts": s.start - base,
            "dur": s.duration,
            "args": {k: _clean(v) for k, v in s.attrs.items()},
        }
        for s in spans
    ]


def write_jsonl(tracer: Tracer, path: str | Path) -> int:
    """Write the JSONL span log; returns the number of spans written."""
    rows = span_rows(tracer)
    text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    Path(path).write_text(text)
    return len(rows)


def chrome_events(tracer: Tracer) -> list[dict]:
    """Chrome trace-event list: thread metadata plus duration events."""
    spans = _sorted_spans(tracer)
    base = _base_time(spans)
    pid = tracer.pid
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": pid,
            "tid": pid,
            "args": {"name": "main"},
        },
    ]
    for s in spans:
        args = {k: _clean(v) for k, v in s.attrs.items()}
        # Chrome duration events carry no parent link; embed the span
        # ids so `repro trace summarize` can rebuild exact nesting.
        args["span"] = s.span_id
        if s.parent_id is not None:
            args["parent"] = s.parent_id
        events.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": s.category or "repro",
                "ts": (s.start - base) * 1e6,
                "dur": s.duration * 1e6,
                "pid": pid,
                "tid": pid,
                "args": args,
            }
        )
    return events


def write_chrome(tracer: Tracer, path: str | Path) -> int:
    """Write a Perfetto-loadable Chrome trace; returns the span count."""
    events = chrome_events(tracer)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    Path(path).write_text(json.dumps(payload))
    return sum(1 for e in events if e["ph"] == "X")


_FORMATS = ("jsonl", "chrome")


def write_trace(tracer: Tracer, path: str | Path, fmt: str | None = None) -> int:
    """Write ``tracer`` to ``path``; ``fmt=None`` sniffs the extension.

    ``.jsonl`` writes the span log, anything else the Chrome trace.
    """
    if fmt is None:
        fmt = "jsonl" if str(path).endswith(".jsonl") else "chrome"
    if fmt not in _FORMATS:
        raise ValueError(f"unknown trace format {fmt!r} (use jsonl|chrome)")
    writer = write_jsonl if fmt == "jsonl" else write_chrome
    return writer(tracer, path)


def _metric_name(name: str) -> str:
    """Prometheus metric names: ``repro_`` prefix, [a-zA-Z0-9_:] only."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{cleaned}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus exposition text (counters then gauges)."""
    lines: list[str] = []
    for name, value in registry.counters.items():
        metric = _metric_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value:g}")
    for name, value in registry.gauges.items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(tracer: Tracer, path: str | Path) -> None:
    Path(path).write_text(render_prometheus(tracer.metrics))
