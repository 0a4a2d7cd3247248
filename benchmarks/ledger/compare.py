"""Compare two ledgers under the bounds of ``BENCHMARK.json``.

    python benchmarks/ledger/compare.py A.json B.json

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second set); each is an ``out/ledger.json`` written by ``run.py``,
ideally with ``--runs 10``.  One row per (workload, end-to-end metric)
with both medians and quartiles.  A metric whose run-to-run spread is
wider than its bound is *unresolved*, not unchanged, unless every run of
B reads better than every run of A.  The deterministic counts of runs
that share a workload and a seed must match exactly.  Exits non-zero on
a regression, a count mismatch, or more failed operations in B.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from harness import DETERMINISTIC

ROOT = Path(__file__).resolve().parent.parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a lone run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(ledger: dict) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for run in ledger["runs"]:
        grouped[run["workload"]].append(run)
    return grouped


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(share by which B's median is worse than A's, spread, verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if spread > bound:
        clear_win = max(sign * v for v in b) < min(sign * v for v in a)
        return worse, spread, "improved" if clear_win else "unresolved"
    return worse, spread, "REGRESSION" if worse > bound else "ok"


def count_mismatches(a_runs: list[dict], b_runs: list[dict]) -> list[str]:
    """Deterministic counts that differ between runs of one seed."""
    seen: dict[tuple, set] = defaultdict(set)
    for run in (*a_runs, *b_runs):
        for name in DETERMINISTIC:
            metric = run.get("per_layer", {}).get(name)
            if metric is not None:
                seen[run["seed"], name].add(metric["value"])
    return [
        f"seed {seed} {name}: {sorted(values)}"
        for (seed, name), values in sorted(seen.items())
        if len(values) > 1
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    a_ledger, b_ledger = (by_workload(json.loads(Path(p).read_text())) for p in argv)
    tallies = {"ok": 0, "improved": 0, "unresolved": 0, "REGRESSION": 0}
    bad_counts = more_failures = 0
    print(
        f"{'workload':<15} {'metric':<16} {'unit':<5} {'A median [q1, q3]':<34} "
        f"{'B median [q1, q3]':<34} {'worse':>7} {'spread':>7} {'bound':>6}  verdict"
    )
    for workload in sorted(a_ledger.keys() & b_ledger.keys()):
        a_runs, b_runs = a_ledger[workload], b_ledger[workload]
        for metric in spec:
            name = metric["name"]
            a = [run["end_to_end"][name]["value"] for run in a_runs]
            b = [run["end_to_end"][name]["value"] for run in b_runs]
            worse, spread, outcome = verdict(a, b, metric["better"], metric["bound"])
            tallies[outcome] += 1
            cells = [
                "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(side)) for side in (a, b)
            ]
            print(
                f"{workload:<15} {name:<16} {metric['unit']:<5} {cells[0]:<34} "
                f"{cells[1]:<34} {worse:>+7.1%} {spread:>7.1%} "
                f"{metric['bound']:>6.0%}  {outcome}"
            )
        for line in count_mismatches(a_runs, b_runs):
            bad_counts += 1
            print(f"{workload:<15} COUNT MISMATCH {line}")
        a_failed, b_failed = (
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in (a_runs, b_runs)
        )
        if b_failed > a_failed:
            more_failures += 1
            print(
                f"{workload:<15} failed_share rose from {a_failed:.4f} "
                f"to {b_failed:.4f}"
            )
    print(
        f"\n{tallies['REGRESSION']} regressions, {tallies['unresolved']} unresolved, "
        f"{tallies['improved']} improved, {tallies['ok']} within bounds, "
        f"{bad_counts} count mismatches, {more_failures} workloads with more failures"
    )
    return 1 if tallies["REGRESSION"] or bad_counts or more_failures else 0


if __name__ == "__main__":
    sys.exit(main())
