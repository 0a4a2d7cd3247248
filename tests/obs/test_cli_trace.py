"""CLI surface of the observability subsystem.

``repro experiment --trace`` must produce a Perfetto-loadable Chrome
trace covering the optimizer, per-stage engine work, and — under
feedback — the statistics store;
``repro trace summarize`` must read both formats back.
"""

import json

from repro.cli import main
from repro.obs import load_trace


def test_experiment_trace_chrome_perfetto_loadable(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    assert (
        main(
            [
                "experiment",
                "clickstream",
                "--picks",
                "3",
                "--trace",
                str(trace),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "span(s) written to" in out
    payload = json.loads(trace.read_text())
    # Chrome trace-event envelope Perfetto accepts.
    assert isinstance(payload["traceEvents"], list)
    assert payload["displayTimeUnit"] == "ms"
    x_events = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
    assert x_events
    for event in x_events:
        assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(event)
    cats = {e["cat"] for e in x_events}
    assert {"optimizer", "engine"} <= cats
    names = {e["name"] for e in x_events}
    assert "optimizer.optimize" in names
    assert "engine.execute" in names
    assert "engine.partition" in names


def test_experiment_trace_jsonl_and_metrics(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.txt"
    assert (
        main(
            [
                "experiment",
                "tpch_q15",
                "--picks",
                "2",
                "--feedback-rounds",
                "1",
                "--trace",
                str(trace),
                "--trace-metrics",
                str(metrics),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "metrics snapshot written to" in out
    spans = load_trace(trace)  # extension sniffed -> span-log JSONL
    names = {s.name for s in spans}
    assert "feedback.round" in names
    assert "feedback.ingest" in names
    assert "optimizer.optimize" in names
    text = metrics.read_text()
    # --feedback-rounds 1 runs round 0 then round 1.
    assert "repro_feedback_rounds_total 2" in text
    assert "repro_engine_executions_total" in text


def test_trace_summarize_both_formats(capsys, tmp_path):
    for suffix, fmt_args in (
        (".json", []),
        (".jsonl", []),
        (".dat", ["--trace-format", "chrome"]),
    ):
        trace = tmp_path / f"trace{suffix}"
        assert (
            main(
                [
                    "experiment",
                    "tpch_q15",
                    "--picks",
                    "2",
                    "--trace",
                    str(trace),
                    *fmt_args,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "self time by subsystem" in out
        assert "engine" in out
        assert "optimizer" in out


def test_trace_summarize_top_limits_rows(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    assert (
        main(["experiment", "tpch_q15", "--picks", "2", "--trace", str(trace)])
        == 0
    )
    capsys.readouterr()
    assert main(["trace", "summarize", str(trace), "--top", "1"]) == 0
    out = capsys.readouterr().out
    # Skip the rest of the heading line itself ("... (showing 1)").
    section = out.split("top spans by self time")[1].splitlines()[1:]
    rows = [
        line
        for line in section
        if line.strip() and not set(line.strip()) <= {"-", " "}
    ]
    # Column header plus exactly one span row.
    assert len(rows) == 2


def test_trace_summarize_missing_file(capsys, tmp_path):
    assert main(["trace", "summarize", str(tmp_path / "nope.json")]) == 1
    assert "cannot read trace" in capsys.readouterr().err


def test_trace_summarize_garbage_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not a trace at all")
    assert main(["trace", "summarize", str(bad)]) == 1
    assert "cannot read trace" in capsys.readouterr().err
