"""Self-time breakdown of a trace file (`repro trace summarize`).

Loads either exporter format (JSONL span log or Chrome trace-event
JSON — sniffed from the content, not the extension) and aggregates
spans two ways:

* per **subsystem** (the span category: optimizer / engine / feedback),
* per **span name** within each subsystem,

reporting count, total wall time, and *self* wall time — a span's
duration minus the duration of its direct children, so time spent in a
nested region is charged once, to the innermost span.  Sorting by self
time answers the practitioner question the paper's "black box" framing
poses about our own system: where does the time actually go?
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True, slots=True)
class TraceSpan:
    """One span as read back from a trace file."""

    span_id: int | None
    parent_id: int | None
    name: str
    category: str
    start: float  # seconds from trace start
    duration: float  # seconds
    tid: int


def load_trace(path: str | Path) -> list[TraceSpan]:
    """Read spans from a JSONL span log or a Chrome trace-event file."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if not stripped:
        return []
    if stripped.startswith("{") and '"traceEvents"' in stripped[:200]:
        return _load_chrome(json.loads(text))
    return _load_jsonl(text)


def _load_jsonl(text: str) -> list[TraceSpan]:
    spans = []
    for line in text.splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        spans.append(
            TraceSpan(
                span_id=row.get("id"),
                parent_id=row.get("parent"),
                name=row["name"],
                category=row.get("cat", ""),
                start=float(row["ts"]),
                duration=float(row["dur"]),
                tid=int(row.get("tid", 0)),
            )
        )
    return spans


def _load_chrome(payload: dict) -> list[TraceSpan]:
    spans = []
    for event in payload.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        spans.append(
            TraceSpan(
                span_id=args.get("span"),
                parent_id=args.get("parent"),
                name=event["name"],
                category=event.get("cat", ""),
                start=float(event.get("ts", 0.0)) / 1e6,
                duration=float(event.get("dur", 0.0)) / 1e6,
                tid=int(event.get("tid", 0)),
            )
        )
    return spans


@dataclass(slots=True)
class SpanAggregate:
    """Count/total/self rollup of one span name (or one category)."""

    key: str
    category: str
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0


def self_times(spans: list[TraceSpan]) -> dict[int | None, float]:
    """Per-span self time: duration minus direct children's durations.

    Spans without ids (foreign traces) contribute their full duration.
    Negative self time (children that ran concurrently, e.g. on other
    tenants' lanes of a merged trace, summing past their parent) clamps
    to zero — the parent has no exclusive share left.
    """
    child_sum: dict[int | None, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_sum[span.parent_id] = (
                child_sum.get(span.parent_id, 0.0) + span.duration
            )
    out: dict[int | None, float] = {}
    for span in spans:
        own = span.duration - child_sum.get(span.span_id, 0.0)
        out[span.span_id] = max(0.0, own) if span.span_id is not None else 0.0
    return out


def summarize(spans: list[TraceSpan]) -> tuple[list[SpanAggregate], list[SpanAggregate]]:
    """Aggregate spans by (category) and by (category, name).

    Returns ``(per_category, per_name)``, both sorted by descending self
    time.
    """
    selfs = self_times(spans)
    by_cat: dict[str, SpanAggregate] = {}
    by_name: dict[tuple[str, str], SpanAggregate] = {}
    for span in spans:
        own = (
            selfs.get(span.span_id, span.duration)
            if span.span_id is not None
            else span.duration
        )
        cat = span.category or "(uncategorized)"
        agg = by_cat.get(cat)
        if agg is None:
            agg = by_cat[cat] = SpanAggregate(key=cat, category=cat)
        agg.count += 1
        agg.total_seconds += span.duration
        agg.self_seconds += own
        key = (cat, span.name)
        agg = by_name.get(key)
        if agg is None:
            agg = by_name[key] = SpanAggregate(key=span.name, category=cat)
        agg.count += 1
        agg.total_seconds += span.duration
        agg.self_seconds += own
    ranked_cat = sorted(by_cat.values(), key=lambda a: -a.self_seconds)
    ranked_name = sorted(by_name.values(), key=lambda a: -a.self_seconds)
    return ranked_cat, ranked_name


def render_summary(spans: list[TraceSpan], top: int = 20) -> str:
    """The `repro trace summarize` report text."""
    if not spans:
        return "empty trace: no spans"
    per_cat, per_name = summarize(spans)
    wall = max(s.start + s.duration for s in spans) - min(
        s.start for s in spans
    )
    total_self = sum(a.self_seconds for a in per_cat) or 1.0
    tids = {s.tid for s in spans}
    lines = [
        f"{len(spans)} spans over {wall * 1e3:.1f} ms wall "
        f"({len(tids)} timeline lane(s))",
        "",
        "self time by subsystem",
        f"  {'subsystem':<16} {'spans':>7} {'total':>10} {'self':>10} {'share':>7}",
    ]
    for agg in per_cat:
        lines.append(
            f"  {agg.key:<16} {agg.count:>7} "
            f"{agg.total_seconds * 1e3:>8.1f}ms {agg.self_seconds * 1e3:>8.1f}ms "
            f"{agg.self_seconds / total_self:>6.1%}"
        )
    lines.append("")
    lines.append(f"top spans by self time (showing {min(top, len(per_name))})")
    lines.append(
        f"  {'span':<28} {'subsystem':<12} {'count':>7} {'total':>10} {'self':>10}"
    )
    for agg in per_name[:top]:
        lines.append(
            f"  {agg.key:<28} {agg.category:<12} {agg.count:>7} "
            f"{agg.total_seconds * 1e3:>8.1f}ms {agg.self_seconds * 1e3:>8.1f}ms"
        )
    return "\n".join(lines)
