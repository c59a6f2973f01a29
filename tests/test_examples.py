"""Smoke tests for the example scripts (fast paths only)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, argv):
    old_argv = sys.argv
    sys.argv = [script] + argv
    try:
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart_runs(capsys):
    _run("quickstart.py", [])
    out = capsys.readouterr().out
    assert "decode throughput" in out
    assert "tokens/J" in out


def test_ablation_walkthrough_runs(capsys):
    _run("ablation_walkthrough.py", [])
    out = capsys.readouterr().out
    assert "Fig. 10" in out
    assert "Final design point" in out


def test_accelerator_design_space_runs(capsys):
    _run("accelerator_design_space.py", [])
    out = capsys.readouterr().out
    assert "Table IV" in out
    assert "Fig. 9a" in out
    assert "Fig. 9b" in out


def test_serving_demo_runs(capsys):
    _run("serving_demo.py", [])
    out = capsys.readouterr().out
    assert "batched greedy generation" in out
    assert "matches single-sequence decode" in out
    assert "MISMATCH" not in out
    assert "continuous batching" in out
    assert "tokens per decode call" in out


def test_server_demo_runs(capsys):
    _run("server_demo.py", [])
    out = capsys.readouterr().out
    assert "server listening on http://" in out
    assert "matches single-sequence decode" in out
    assert "MISMATCH" not in out
    assert "observed as cancel" in out


@pytest.mark.slow
def test_quantization_study_fast_mode(capsys):
    _run("quantization_study.py", ["--fast"])
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "Table III" in out
