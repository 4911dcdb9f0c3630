"""Tests for the ``python -m repro`` command-line interface."""

import re
import subprocess
import sys

import pytest

from repro.__main__ import EXPERIMENTS, main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_list_names_all_experiments():
    proc = run_cli("list")
    assert proc.returncode == 0
    for name in EXPERIMENTS:
        assert name in proc.stdout


def test_run_table1():
    proc = run_cli("run", "table1")
    assert proc.returncode == 0
    assert "Table 1" in proc.stdout
    assert "SuperMem" in proc.stdout


def test_run_unknown_experiment_fails():
    proc = run_cli("run", "fig99")
    assert proc.returncode != 0


def test_run_requires_subcommand():
    proc = run_cli()
    assert proc.returncode != 0


def _accounting(stderr):
    """The sweep accounting lines on stderr, as {label: fields}."""
    return {
        label: dict(re.findall(r"(\w+)=(\d+)", fields))
        for label, fields in re.findall(
            r"^\[\w+\] (\S+): (resumed=\d+ .*)$", stderr, re.M
        )
    }


def test_ablations_rerun_accounts_every_sweep(tmp_path):
    """`run ablations` is four sweeps; a re-run against one journal must
    account for the resumed points of every one of them, not the last."""
    args = ("run", "ablations", "--scale", "smoke", "--output", str(tmp_path / "a.md"))
    journal = ("--resume", str(tmp_path / "ablations.jsonl"))
    assert run_cli(*args, *journal).returncode == 0
    proc = run_cli(*args, *journal)
    assert proc.returncode == 0
    lines = _accounting(proc.stderr)
    assert sum(int(fields["resumed"]) for fields in lines.values()) == 14
    assert sorted(lines) == [
        "ablation:counter-org",
        "ablation:cwc-policy",
        "ablation:drain-policy",
        "ablation:xbank-offset",
    ]
    assert all(fields["retries"] == "0" for fields in lines.values())


def test_warm_outcome_store_run_reports_store_hits(tmp_path):
    """A second process over the same outcome store loads the trace and
    the recorded cache walk, and says so on its accounting line."""
    args = ("run", "ablations", "--scale", "smoke", "--output", str(tmp_path / "a.md"))
    store = ("--outcome-store", str(tmp_path / "store"))
    cold = _accounting(run_cli(*args, *store).stderr)["ablation:cwc-policy"]
    assert int(cold["trace_misses"]) >= 1
    warm = _accounting(run_cli(*args, *store).stderr)["ablation:cwc-policy"]
    assert int(warm["trace_hits"]) >= 1
    assert warm["trace_misses"] == warm["outcome_misses"] == "0"


def test_output_file(tmp_path):
    out = tmp_path / "t1.md"
    assert main(["run", "table1", "--output", str(out)]) == 0
    assert "Table 1" in out.read_text()


def test_in_process_main_list(capsys):
    assert main(["list"]) == 0
    captured = capsys.readouterr()
    assert "fig13" in captured.out


def test_trace_generate_and_summarise(tmp_path, capsys):
    out = tmp_path / "q.smtr"
    assert (
        main(
            [
                "trace",
                "queue",
                "--ops",
                "10",
                "--request-size",
                "256",
                "--footprint",
                "65536",
                "--output",
                str(out),
            ]
        )
        == 0
    )
    assert out.exists()
    capsys.readouterr()
    assert main(["trace", str(out), "--summary"]) == 0
    captured = capsys.readouterr()
    assert "transactions: 10" in captured.out


def test_simulate_command(capsys):
    assert (
        main(
            [
                "simulate",
                "array",
                "--scheme",
                "supermem",
                "--ops",
                "10",
                "--footprint",
                "262144",
                "--profile",
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "SuperMem" in captured.out
    assert "bank imbalance" in captured.out


def test_simulate_unknown_scheme_fails():
    with pytest.raises(SystemExit):
        main(["simulate", "array", "--scheme", "rot13"])


def test_run_with_json_export(tmp_path, capsys):
    import json

    md = tmp_path / "t1.md"
    js = tmp_path / "t1.json"
    assert main(["run", "table1", "--output", str(md), "--json", str(js)]) == 0
    payload = json.loads(js.read_text())
    assert payload["experiment"] == "table1"
    assert any(p["system"] == "supermem" for p in payload["points"])


def test_simulate_json_summary(tmp_path, capsys):
    import json

    out = tmp_path / "result.json"
    assert (
        main(
            [
                "simulate",
                "queue",
                "--ops",
                "10",
                "--footprint",
                "262144",
                "--json",
                str(out),
            ]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["n_txns"] == 10
    assert payload["total_time_ns"] > 0
    assert "p95_txn_latency_ns" in payload
    assert "wq.appends" in payload["stats"]


def test_simulate_json_to_stdout(capsys):
    import json

    assert (
        main(
            ["simulate", "queue", "--ops", "5", "--footprint", "262144", "--json", "-"]
        )
        == 0
    )
    captured = capsys.readouterr().out
    payload = json.loads(captured[captured.index("{"):])
    assert payload["n_txns"] == 5


def test_simulate_trace_and_report(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    assert (
        main(
            [
                "simulate",
                "queue",
                "--ops",
                "20",
                "--footprint",
                "1048576",
                "--trace",
                str(trace),
                "--trace-jsonl",
                str(jsonl),
                "--sample-ns",
                "2000",
            ]
        )
        == 0
    )
    payload = json.loads(trace.read_text())
    assert payload["traceEvents"]
    assert jsonl.read_text().splitlines()
    capsys.readouterr()

    assert main(["trace-report", str(trace), "--buckets", "5"]) == 0
    report = capsys.readouterr().out
    assert "trace span" in report
    assert "wq occ" in report
    assert "coal %" in report
    assert "bank imbal" in report
