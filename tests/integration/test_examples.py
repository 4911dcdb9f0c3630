"""Smoke-run every example script (they are part of the public surface)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

FAST = [
    "crash_consistency.py",
    "kv_store.py",
    "tamper_detection.py",
    "page_reencryption.py",
]
SLOW = ["quickstart.py", "scheme_comparison.py"]


def run_example(name: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc.stdout


@pytest.mark.parametrize("name", FAST)
def test_fast_examples(name):
    output = run_example(name)
    assert output.strip(), f"{name} produced no output"


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW)
def test_slow_examples(name):
    run_example(name, timeout=400)


def test_crash_consistency_verdicts():
    output = run_example("crash_consistency.py")
    assert "GARBAGE (inconsistent!)" in output  # the broken baseline
    assert output.count("consistent)") >= 2  # SuperMem + txn recovery


def test_kv_store_rolls_back():
    output = run_example("kv_store.py")
    assert "balance=300" in output
    assert "power failure injected!" in output


def test_tamper_detection_catches_all_attacks():
    output = run_example("tamper_detection.py")
    assert output.count("detected (") == 3
    assert "NOT detected" not in output
