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


def test_output_file(tmp_path):
    out = tmp_path / "t1.md"
    assert main(["run", "table1", "--output", str(out)]) == 0
    assert "Table 1" in out.read_text()


def test_in_process_main_list(capsys):
    assert main(["list"]) == 0
    captured = capsys.readouterr()
    assert "fig13" in captured.out


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


def test_simulate_unknown_workload_exits_with_a_message():
    # A one-line exit like an unknown scheme's, not a ConfigError traceback.
    with pytest.raises(SystemExit, match="unknown workload 'heap'"):
        main(["simulate", "heap"])


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
            ]
        )
        == 0
    )
    payload = json.loads(trace.read_text())
    assert payload["traceEvents"]
    capsys.readouterr()

    assert main(["trace-report", str(trace), "--buckets", "5"]) == 0
    report = capsys.readouterr().out
    assert "trace span" in report
    assert "wq occ" in report
    assert "coal %" in report
    assert "bank imbal" in report


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["trace-report", "{missing}"], "missing.json"),
        (["trace-report", "{trace}", "--buckets", "0"], "got 0"),
        (["simulate", "queue", "--request-size", "0"], "got 0"),
        (["recovery-report", "supermem", "--dirty-frac", "2"], "got 2.0"),
        (["recovery-report", "supermem", "--log-lines", "1"], "got 1"),
        (["recovery-report", "supermem", "--capacity", "1000"], "got 1000"),
        (["recovery-report", "supermem", "--request-size", "0"], "got 0"),
    ],
    ids=[
        "trace-report-missing-file",
        "trace-report-zero-buckets",
        "simulate-zero-request-size",
        "recovery-dirty-frac",
        "recovery-log-lines",
        "recovery-capacity",
        "recovery-zero-request-size",
    ],
)
def test_bad_arguments_exit_with_one_line(argv, needle, tmp_path):
    """A bad argument value ends in a one-line message naming it, not a
    traceback."""
    trace = tmp_path / "t.json"
    trace.write_text('{"traceEvents": [{"ph": "I", "ts": 0, "name": "x"}]}')
    paths = {
        "{missing}": str(tmp_path / "missing.json"),
        "{trace}": str(trace),
    }
    with pytest.raises(SystemExit) as info:
        main([paths.get(arg, arg) for arg in argv])
    message = str(info.value.code)
    assert needle in message
    assert "\n" not in message
