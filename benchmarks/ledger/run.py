"""The perf ledger: every workload, end to end and per layer, one command.

    PYTHONPATH=src python benchmarks/ledger/run.py [--seed N] [--workload NAME]
                                                   [--seconds S] [--runs R]

runs each workload in its own child process (set-up, an untraced phase,
then a traced phase), prints every metric by name with its unit, checks
outputs against an independent oracle, and writes ``out/ledger.json``
plus one span log per workload.

With ``--trace 0|1`` it is the single measurement the driver of
``BENCHMARK.json`` asks for: one workload, one phase, in this process,
and the last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# The ledger runs from a bare checkout: no installed package, no
# PYTHONPATH.  Child servers get the same root through spawn_server().
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from harness import Recorder, clock, median, trace_overhead_share  # noqa: E402
from jobs import q7_job, textmining_job  # noqa: E402
from serve_mix import ServeMix  # noqa: E402
from stress import StressPlan  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {
    "q7_job": q7_job,
    "textmining_job": textmining_job,
    "stress_plan": StressPlan,
    "serve_mix": ServeMix,
}
#: Full set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def _named(spec: list[dict], values: dict[str, float], every: bool = False) -> dict:
    """``values`` united as ``BENCHMARK.json`` lists them, in its order.

    A name the file does not list is a bug in the workload, not a new
    metric; with ``every``, so is a listed name the workload left out.
    """
    listed = {m["name"] for m in spec}
    if set(values) - listed or (every and listed - set(values)):
        odd = sorted(listed ^ set(values))
        raise KeyError(f"metrics differ from BENCHMARK.json: {odd}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec
        if m["name"] in values
    }


def run_one(
    name: str,
    seed: int,
    seconds: float,
    phases: tuple[str, ...],
    out_dir: Path,
    setups: int = SETUPS,
) -> dict:
    """Set up ``name`` and measure the given phases in this process."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=out_dir))
    workload = None
    try:
        setup_seconds = []
        for _ in range(setups):
            if workload is not None:
                workload.close()
            workload = WORKLOADS[name](seed, workdir)
            t0 = clock()
            workload.setup()
            setup_seconds.append(clock() - t0)

        result = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "clients": workload.clients,
            "samples": {},
        }
        if "untraced" in phases:
            samples = workload.run(seconds, None)
            result["samples"]["untraced"] = samples.counts()
            values = workload.end_to_end(samples)
            values["setup_s"] = median(setup_seconds)
        if "traced" in phases:
            recorder = Recorder()
            samples = workload.run(seconds, recorder)
            result["samples"]["traced"] = samples.counts()
            layers = workload.per_layer(samples, recorder)
            layers["bench.iterations"] = len(samples["headline_s"])
            layers["bench.trace_overhead_share"] = trace_overhead_share(samples)
            result["per_layer"] = _named(BENCHMARK["per_layer"], layers)
            trace = out_dir / f"trace_{name}.jsonl"
            result["trace"] = {"path": str(trace), "spans": recorder.write(trace)}
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if "untraced" in phases:
        # serve_mix's memory is the server's; the others run in-process.
        who = resource.RUSAGE_CHILDREN if name == "serve_mix" else resource.RUSAGE_SELF
        values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        result["end_to_end"] = _named(BENCHMARK["end_to_end"], values, every=True)
    tally = workload.tally
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failed_share=tally.failed / tally.attempted,
        correct=tally.failed == 0,
    )
    return result


# -- the full ledger ---------------------------------------------------------


def _child(conn, *args) -> None:
    conn.send(run_one(*args))
    conn.close()


def run_in_child(*args) -> dict:
    """One workload, set up and measured in a process of its own."""
    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_child, args=(sender, *args))
    process.start()
    sender.close()
    try:
        return receiver.recv()
    except EOFError:
        raise SystemExit(f"the child running {args[0]} died without a result")
    finally:
        process.join()


def host_info() -> dict:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
    }


def print_run(run: dict) -> None:
    print(
        f"\n{run['workload']}  seed={run['seed']}  clients={run['clients']}  "
        f"attempted={run['attempted']}  failed={run['failed']}  "
        f"failed_share={run['failed_share']:.4f}"
    )
    for phase, counts in run["samples"].items():
        shown = ", ".join(f"{k}={v}" for k, v in counts.items())
        print(f"  samples ({phase}): {shown}")
    for kind in ("end_to_end", "per_layer"):
        for name, metric in run[kind].items():
            print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")


def ledger(args) -> int:
    out_dir = Path(args.out)
    names = [args.workload] if args.workload else list(WORKLOADS)
    host = host_info()
    print(f"host: {host}")
    runs = []
    for r in range(args.runs):
        for name in names:
            run = run_in_child(
                name, args.seed + r, args.seconds, ("untraced", "traced"),
                out_dir, args.setups,
            )
            print_run(run)
            runs.append(run)
    path = out_dir / "ledger.json"
    path.write_text(json.dumps({"host": host, "runs": runs}, indent=1) + "\n")
    print(f"\nwrote {path}")
    return 0 if all(run["correct"] for run in runs) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=BENCHMARK["run_seconds"],
        help="wall-clock budget of each measured phase",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="measure one phase of one workload in this process and print "
        "the result as the last line (0: end-to-end, 1: per-layer)",
    )
    parser.add_argument("--runs", type=int, default=1, help="ledger repeats, seed+i")
    parser.add_argument(
        "--setups", type=int, default=SETUPS, help="set-ups per run (median)"
    )
    parser.add_argument("--out", default=str(HERE / "out"), help="output directory")
    args = parser.parse_args(argv)
    if args.trace is None:
        return ledger(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    phase, kind = (("untraced", "end_to_end"), ("traced", "per_layer"))[args.trace]
    run = run_one(
        args.workload, args.seed, args.seconds, (phase,), Path(args.out), args.setups
    )
    # The driver wants every listed metric from every workload: a layer
    # this workload never calls did no work, which reads as 0.
    metrics = {
        m["name"]: run[kind].get(m["name"], {"value": 0.0, "unit": m["unit"]})
        for m in BENCHMARK[kind]
    }
    print(
        json.dumps(
            {
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
