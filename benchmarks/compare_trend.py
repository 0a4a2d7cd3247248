#!/usr/bin/env python3
"""CI bench-trend gate: fail on >30% regression of a headline metric.

Each benchmark writes a JSON report to ``benchmarks/results/``; a
committed snapshot of each report lives in ``benchmarks/baselines/``.
This script compares the headline metric of a fresh result against its
baseline and exits non-zero when the result regressed by more than
``TOLERANCE`` (direction-aware: throughput-style metrics must not drop,
cost-style metrics must not grow).

Headline metrics are deliberately machine-relative ratios or fully
deterministic modeled quantities, so the gate tracks the *code's* trend
rather than the CI host's mood.

Usage::

    python benchmarks/compare_trend.py                       # gate all known results
    python benchmarks/compare_trend.py results/midquery.json # gate one
    python benchmarks/compare_trend.py --write-baselines     # refresh snapshots
    python benchmarks/compare_trend.py --write-baselines results/serve.json  # one

Run from anywhere; paths resolve relative to this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINES_DIR = BENCH_DIR / "baselines"

#: Allowed relative regression before the gate fails.
TOLERANCE = 0.30


@dataclass(frozen=True)
class Headline:
    """Where a benchmark's headline metric lives and which way is up."""

    path: tuple  # key path into the JSON report (ints index lists)
    higher_is_better: bool
    note: str


HEADLINES: dict[str, Headline] = {
    # Final-round median q-error on the headline workload: deterministic.
    "feedback_qerror.json": Headline(
        ("workloads", "clickstream", "rounds", -1, "qerror_median"),
        False,
        "median q-error after feedback (1.0 is perfect)",
    ),
    # Dirty-spine vs full-rebuild speedup: machine-relative.
    "reoptimize.json": Headline(
        ("reoptimize_q7", "gamma_revenue", "speedup"),
        True,
        "single-hint re-optimization speedup",
    ),
    # Modeled end-to-end recovery of the mis-hinted run: deterministic.
    "midquery.json": Headline(
        ("modeled_speedup",), True, "mis-hinted run recovery via mid-query"
    ),
    # Multi-process sqlite ingest throughput vs a curated portable floor
    # (see baseline_note); the bench itself hard-asserts zero lost updates.
    "store_concurrency.json": Headline(
        ("sqlite_ingests_per_sec",),
        True,
        "contended 4-writer sqlite ingests/sec vs curated floor",
    ),
    # Live-tracer wall over untraced wall (1.0 = tracing is free):
    # machine-relative ratio, lower is better.
    "trace_overhead.json": Headline(
        ("tracing_on_overhead",),
        False,
        "live-tracer wall / untraced wall (1.0 = free)",
    ),
    # Planning-server warm-vs-cold p50 latency ratio over a multi-tenant
    # replay vs a curated portable floor (the bench also hard-asserts
    # the >= 5x speedup floor and zero cross-tenant cache hits).
    "serve.json": Headline(
        ("warm_speedup_p50",),
        True,
        "planning server cold/warm p50 latency vs curated floor",
    ),
}


def extract(report: dict, path: tuple) -> float:
    value = report
    for key in path:
        value = value[key]
    if not isinstance(value, (int, float)):
        raise TypeError(f"headline at {path} is not numeric: {value!r}")
    return float(value)


def gate(result_path: Path) -> str | None:
    """Check one result against its baseline; return an error or None."""
    name = result_path.name
    headline = HEADLINES.get(name)
    if headline is None:
        return f"{name}: no headline metric registered in compare_trend.py"
    baseline_path = BASELINES_DIR / name
    if not baseline_path.exists():
        return (
            f"{name}: no committed baseline at {baseline_path} — run "
            "`python benchmarks/compare_trend.py --write-baselines` and "
            "commit the snapshot"
        )
    if not result_path.exists():
        return f"{name}: result {result_path} missing — did the bench run?"
    try:
        current = extract(json.loads(result_path.read_text()), headline.path)
    except (KeyError, IndexError, TypeError) as exc:
        return (
            f"{name}: headline key path {headline.path!r} not found in "
            f"{result_path} ({exc.__class__.__name__}: {exc}) — the bench's "
            "report schema and compare_trend.py disagree"
        )
    try:
        baseline = extract(json.loads(baseline_path.read_text()), headline.path)
    except (KeyError, IndexError, TypeError) as exc:
        return (
            f"{name}: headline key path {headline.path!r} not found in the "
            f"committed baseline {baseline_path} "
            f"({exc.__class__.__name__}: {exc}) — refresh it with "
            "`python benchmarks/compare_trend.py --write-baselines`"
        )
    if baseline <= 0:
        return f"{name}: non-positive baseline {baseline} is not gateable"
    if headline.higher_is_better:
        regressed = current < (1.0 - TOLERANCE) * baseline
        trend = current / baseline
    else:
        regressed = current > (1.0 + TOLERANCE) * baseline
        trend = baseline / current if current else float("inf")
    status = "REGRESSED" if regressed else "ok"
    print(
        f"{name}: {headline.note}: baseline={baseline:.4g} "
        f"current={current:.4g} (trend x{trend:.3f}) {status}"
    )
    if regressed:
        return (
            f"{name}: headline metric regressed more than "
            f"{TOLERANCE:.0%} vs the committed baseline "
            f"({baseline:.4g} -> {current:.4g}); if intentional, refresh "
            "benchmarks/baselines/ in this change and justify it"
        )
    return None


def write_baselines(paths: list[Path]) -> int:
    BASELINES_DIR.mkdir(exist_ok=True)
    for result in paths:
        if not result.exists():
            print(f"skip {result.name}: no fresh result to snapshot")
            continue
        (BASELINES_DIR / result.name).write_text(result.read_text())
        print(f"baseline {result.name} <- {result}")
    return 0


def resolve(path: Path) -> Path:
    """Make explicit result paths work from any cwd: fall back to
    resolving against this file's directory (``results/serve.json`` names
    ``benchmarks/results/serve.json`` from the repo root too)."""
    if path.exists() or path.is_absolute():
        return path
    candidate = BENCH_DIR / path
    return candidate if candidate.exists() else path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results",
        nargs="*",
        type=Path,
        help="result JSON files to gate (default: every registered bench "
        "whose result file exists)",
    )
    parser.add_argument(
        "--write-baselines",
        action="store_true",
        help="snapshot fresh results into benchmarks/baselines/",
    )
    args = parser.parse_args(argv)
    # Default set: every registered bench with a fresh result OR a
    # committed baseline.  Including baseline-only names is what makes a
    # bench that silently failed to produce its result a gate failure
    # ("did the bench run?") instead of a silent skip.
    paths = [resolve(path) for path in args.results] or [
        RESULTS_DIR / name
        for name in sorted(HEADLINES)
        if (RESULTS_DIR / name).exists() or (BASELINES_DIR / name).exists()
    ]
    if args.write_baselines:
        return write_baselines(paths)
    if not paths:
        print(
            "FAIL no result files found under benchmarks/results/ — run the "
            "benchmarks first (explicit paths gate missing files as errors)",
            file=sys.stderr,
        )
        return 1
    errors = [error for path in paths if (error := gate(path)) is not None]
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
