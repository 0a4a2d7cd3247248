"""The span-based tracer and deterministic metrics registry.

Two strictly separated measurement axes run through the system:

* **Modeled time** — the deterministic simulated seconds the cost model
  and engine compute.  The tracer never touches it: records, per-op
  :class:`~repro.engine.metrics.OpMetrics`, and modeled seconds are
  bit-identical whether tracing is on or off (pinned by
  ``tests/obs/test_tracing_parity.py``).
* **Wall clock** — where planning and execution time *actually* goes on
  this machine.  Spans read :data:`clock` (the monotonic
  ``time.perf_counter``) and nothing else.

This module is the only place in ``src/repro`` allowed to call
``time.perf_counter`` directly (enforced by
``tests/obs/test_timing_discipline.py``); every other wall-clock reading
goes through :data:`clock` or through spans, so all timing shares one
monotonic clock.

The default everywhere is the shared :data:`NOOP_TRACER`: every call is
a constant-time no-op on preallocated objects, so instrumented code pays
only an attribute lookup and a dict-free method call per span site (the
hot sites are per stage / per operator / per partition — never per
record).
"""

from __future__ import annotations

import os
import time

#: The one wall clock of the system (monotonic).  Code outside
#: ``repro.obs`` that needs a raw reading — the engine's wall-seconds
#: fields, the optimizer's phase timings — imports this instead of
#: calling ``time.perf_counter`` itself.
clock = time.perf_counter


class MetricsRegistry:
    """Deterministic named counters and gauges.

    Values are driven by structural facts (stages run, plans costed,
    conflicts retried) — never by wall time — so two runs of the same
    work produce identical snapshots.  Insertion-ordered, like every
    other deterministic table in the system.
    """

    __slots__ = ("counters", "gauges")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {"counters": dict(self.counters), "gauges": dict(self.gauges)}


class Span:
    """One timed region: a context manager that records itself on exit.

    Nesting is tracked per tracer (the engine and optimizer are
    single-threaded within one process): entering pushes the span on the
    tracer's stack, so spans opened inside it become its children.
    Structured attributes arrive via keyword arguments at creation or
    :meth:`set` at any point — including after exit, for facts only known
    once the region's output exists (row counts, modeled seconds).
    """

    __slots__ = (
        "tracer",
        "span_id",
        "parent_id",
        "name",
        "category",
        "start",
        "end",
        "attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        name: str,
        category: str,
        attrs: dict,
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id: int | None = None
        self.name = name
        self.category = category
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self.tracer._stack
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self.start = self.tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self.tracer._clock()
        stack = self.tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - unbalanced exit, keep best effort
            try:
                stack.remove(self)
            except ValueError:
                pass
        self.tracer.spans.append(self)
        return False


class Tracer:
    """Collects spans and metrics for one traced run.

    * :meth:`span` opens a nested, attributed wall-clock span (use as a
      context manager);
    * :meth:`count` / :meth:`gauge` feed the deterministic
      :class:`MetricsRegistry`.

    ``_clock`` is injectable for tests (a fake monotonic clock makes
    span arithmetic exactly assertable).
    """

    __slots__ = ("spans", "metrics", "pid", "_clock", "_stack", "_next_id")

    enabled = True

    def __init__(self, _clock=clock) -> None:
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()
        self.pid = os.getpid()
        self._clock = _clock
        self._stack: list[Span] = []
        self._next_id = 0

    def span(self, name: str, category: str = "", **attrs) -> Span:
        self._next_id += 1
        return Span(self, self._next_id, name, category, attrs)

    def count(self, name: str, value: float = 1) -> None:
        self.metrics.inc(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.set(name, value)

    def absorb(self, other: "Tracer") -> None:
        """Merge another tracer's finished spans and metrics into this one.

        The serving layer traces each request on its own short-lived
        tracer (so concurrent requests never interleave on one span
        stack) and folds the result into a long-lived sink tracer
        afterwards.  Span ids are re-based past this tracer's highest id,
        parent links included, so exporters and ``repro trace summarize``
        rebuild exact per-request nesting from the merged log.  ``other``
        must be finished (no open spans) and is consumed: its span
        objects are adopted, not copied.
        """
        if other.spans:
            base = self._next_id
            top = 0
            for span in other.spans:
                span.span_id += base
                if span.parent_id is not None:
                    span.parent_id += base
                if span.span_id > top:
                    top = span.span_id
            self.spans.extend(other.spans)
            self._next_id = top
        for name, value in other.metrics.counters.items():
            self.metrics.inc(name, value)
        for name, value in other.metrics.gauges.items():
            self.metrics.set(name, value)


class _NoopSpan:
    """Shared inert span: enter/exit/set all do nothing."""

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The default tracer: every operation is a constant-time no-op.

    Stateless and shared (:data:`NOOP_TRACER`), so ``Engine()`` /
    ``Optimizer()`` construction allocates nothing.  Hot code may guard
    optional extra work on ``tracer.enabled``.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, category: str = "", **attrs) -> _NoopSpan:
        return _NOOP_SPAN

    def absorb(self, other) -> None:
        pass

    def count(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass


#: The process-wide shared no-op tracer every component defaults to.
NOOP_TRACER = NoopTracer()
