"""Measurement plumbing shared by the ledger's workloads.

Everything here belongs to the benchmark, not to the program: the span
recorder wraps calls *into* ``repro`` from outside and is never handed to
the program as a ``tracer=`` (that stays the no-op in every run).
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

clock = time.perf_counter

#: Per-iteration counts that depend only on the inputs, never on the
#: clock.  They must be identical on every iteration of a run and between
#: two runs of one commit with one seed; ``compare.py`` requires an exact
#: match and the workloads count a drift between iterations as a failure.
DETERMINISTIC = frozenset(
    {
        "sca.udfs",
        "sca.precise_share",
        "optimizer.expanded",
        "optimizer.costed",
        "optimizer.pruned",
        "optimizer.bounds_computed",
        "optimizer.estimate_calls",
        "optimizer.replan_bounds_computed",
        "optimizer.memo_evicted",
        "optimizer.costed_share",
        "engine.rows_scanned",
        "engine.rows_out",
        "engine.udf_calls",
        "engine.modeled_s",
        "engine.net_bytes",
        "engine.disk_bytes",
        "feedback.observations",
        "feedback.dirty_ops",
    }
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class _Span:
    """One open region of a :class:`Recorder`; entering yields its row."""

    __slots__ = ("recorder", "row")

    def __init__(self, recorder, name, cat, tid, args) -> None:
        self.recorder = recorder
        self.row = {"name": name, "cat": cat, "tid": tid, "args": args}

    def __enter__(self) -> dict:
        row, stack = self.row, self.recorder._stack()
        row["id"] = next(self.recorder._ids)
        row["parent"] = stack[-1] if stack else None
        stack.append(row["id"])
        row["start"] = clock()
        return row

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.row["end"] = clock()
        self.recorder._stack().pop()
        self.recorder.spans.append(self.row)
        return False


class Recorder:
    """In-memory span log: name, start, end, parent, iteration id.

    Safe to share between the two ``serve_mix`` client threads: every
    thread nests on its own stack, ids come from one atomic counter and
    ``list.append`` is atomic.  Nothing is written until :meth:`write`.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, cat: str, tid: int = 0, **args) -> "_Span":
        return _Span(self, name, cat, tid, args)

    def add(
        self, name: str, cat: str, start: float, end: float, parent: int, tid: int = 0
    ) -> None:
        """Register a region measured elsewhere (the server's own timings)."""
        self.spans.append(
            {
                "id": next(self._ids),
                "parent": parent,
                "name": name,
                "cat": cat,
                "tid": tid,
                "args": {},
                "start": start,
                "end": end,
            }
        )

    def durations(self) -> dict[str, list[float]]:
        """Span name -> every recorded duration, in seconds."""
        out: dict[str, list[float]] = defaultdict(list)
        for row in self.spans:
            out[row["name"]].append(row["end"] - row["start"])
        return out

    def unattributed(self, root: str) -> list[float]:
        """Per ``root`` span: its duration minus its direct children's."""
        covered: dict[int, float] = defaultdict(float)
        for row in self.spans:
            if row["parent"] is not None:
                covered[row["parent"]] += row["end"] - row["start"]
        return [
            row["end"] - row["start"] - covered[row["id"]]
            for row in self.spans
            if row["name"] == root
        ]

    def write(self, path: Path) -> int:
        """Write the span log in the JSONL shape ``repro.obs.load_trace`` reads."""
        rows = sorted(self.spans, key=lambda r: (r["start"], r["id"]))
        base = rows[0]["start"] if rows else 0.0
        with path.open("w") as out:
            for row in rows:
                out.write(
                    json.dumps(
                        {
                            "id": row["id"],
                            "parent": row["parent"],
                            "name": row["name"],
                            "cat": row["cat"],
                            "ts": row["start"] - base,
                            "dur": row["end"] - row["start"],
                            "tid": row["tid"],
                            "args": row["args"],
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        return len(rows)


class NullRecorder:
    """The untraced side: same calls, nothing recorded."""

    enabled = False
    _NULL = nullcontext()

    def span(self, name: str, cat: str, tid: int = 0, **args):
        return self._NULL

    def add(self, *args, **kwargs) -> None:
        pass


NULL_RECORDER = NullRecorder()


class Tally:
    """Attempted and failed operations; a failed check never aborts the run."""

    #: Failure descriptions echoed to stderr before going quiet.
    _ECHO = 5

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def operation(self, problems: list[str]) -> None:
        """Count one operation; it failed if any oracle check complained."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= self._ECHO:
                print(f"FAILED: {'; '.join(problems)}", file=sys.stderr)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


class Samples:
    """Named series of per-iteration measurements for one phase of a run."""

    def __init__(self) -> None:
        self.series: dict[str, list[float]] = defaultdict(list)

    def add(self, name: str, value: float) -> None:
        self.series[name].append(value)

    def __getitem__(self, name: str) -> list[float]:
        return self.series[name]

    def merge(self, other: "Samples") -> None:
        for name, values in other.series.items():
            self.series[name].extend(values)

    def counts(self) -> dict[str, int]:
        return {name: len(values) for name, values in sorted(self.series.items())}


def trace_overhead_share(samples: Samples) -> float:
    """Traced vs untraced headline median inside one traced phase.

    The traced phase alternates recorded and unrecorded iterations, so
    both medians come from the same seconds of the same process.
    """
    sides: dict[bool, list[float]] = {True: [], False: []}
    for value, traced in zip(samples["headline_s"], samples["traced"]):
        sides[traced].append(value)
    if not sides[True] or not sides[False]:
        return 0.0
    return median(sides[True]) / median(sides[False]) - 1.0


def run_for(seconds: float, body) -> None:
    """Call ``body(i)`` until ``seconds`` of wall clock have passed.

    Always at least once; the deadline is only checked between calls, so
    every started iteration (or ``serve_mix`` block) completes.
    """
    deadline = clock() + seconds
    for i in itertools.count():
        body(i)
        if clock() >= deadline:
            return


def run_iterations(workload, seconds: float, recorder) -> Samples:
    """The closed single-client loop of the job and stress workloads.

    ``recorder=None`` is the untraced phase.  The traced phase records
    every other iteration, which is what lets
    :func:`trace_overhead_share` compare like with like.
    """
    samples = Samples()

    def body(i: int) -> None:
        traced = recorder is not None and i % 2 == 0
        try:
            workload.iterate(recorder if traced else NULL_RECORDER, samples, i)
        except Exception:  # noqa: BLE001 - a failed operation is counted, never fatal
            traceback.print_exc()
            workload.tally.operation(["iteration raised"])

    run_for(seconds, body)
    return samples
