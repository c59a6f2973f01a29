"""Tests of the benchmark harness itself (collected by the tier-1 ``pytest`` run)."""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import compare, spans, stats, target  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, script  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_scripts_repeat_per_seed_and_differ_across_seeds(name):
    load = WORKLOADS[name]
    first = list(islice(script(load, 7, 0), 12))
    assert first == list(islice(script(load, 7, 0), 12))
    assert first != list(islice(script(load, 8, 0), 12))
    assert first != list(islice(script(load, 7, 1), 12))
    classes = {cls for cls, _ in load.mix}
    assert {spec["cls"] for spec in first} <= classes
    assert all(0 < token < 512 for spec in first for token in spec["prompt"])


def test_tail_keeps_ten_samples_beyond_and_reports_the_percentile_used():
    hundred = list(range(100))
    assert stats.tail(hundred, 90) == (stats.percentile(hundred, 90), 90.0)   # 10 beyond
    value, used = stats.tail(hundred, 99)          # 99 would rest on one sample
    assert used == 90.0 and value == stats.percentile(hundred, 90)
    assert stats.tail(list(range(1000)), 99)[1] == 99.0
    assert stats.tail(list(range(50)), 90)[1] == 80.0   # exactly ten beyond
    assert stats.tail(list(range(12)), 90)[1] == 50.0   # never below the median
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile([0, 10], 75) == 7.5


def test_self_time_is_span_minus_covered_child_time():
    #  root 0..10, a 1..4 (child b 2..3), a 5..9; self(root) = 10 - 3 - 4 = 3
    trace = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 2.0, 3.0, 1, 1],
        ["a", 5.0, 9.0, 0, 1],
    ]
    summary = spans.summarise(trace)
    assert summary["total"] == {"root": 10.0, "a": 7.0, "b": 1.0}
    assert summary["self"] == {"root": 3.0, "a": 6.0, "b": 1.0}
    assert summary["edges"] == {"root>a": 7.0, "a>b": 1.0}
    assert summary["root_total"] == 10.0
    assert sum(summary["self"].values()) == summary["root_total"]


def test_traced_model_is_bit_identical_and_proxy_forwards_capabilities():
    fp_model = target.build_fp_model()
    plain, traced = target.quantize(fp_model), target.quantize(fp_model)
    tracer = spans.Tracer()
    spans.install(tracer, traced)
    for real, proxy in zip(plain.blocks, traced.blocks):
        for capability in ("supports_batched", "supports_prefill_scan", "state_resident"):
            assert getattr(proxy.ssm_impl, capability) == getattr(real.ssm_impl, capability)
        assert proxy.ssm_impl.supports_prefill_scan is True

    prompt = np.arange(1, 41)
    logits, cache = plain.prefill(prompt)
    traced_logits, traced_cache = traced.prefill(prompt)
    assert np.array_equal(logits, traced_logits)
    for _ in range(4):
        token = int(np.argmax(logits))
        logits = plain.step(token, cache)
        traced_logits = traced.step(token, traced_cache)
        assert np.array_equal(logits, traced_logits)
    assert cache.state_equal(traced_cache)

    names = {span[0] for span in tracer.spans}
    assert {"model.prefill", "model.step", "block.forward", "block.step", "ssm_quant.scan",
            "ssm_quant.step", "conv1d.forward", "conv1d.step", "block.norm",
            "block.gated_norm", "block.act_quant", "model.embed", "model.head"} <= names
    # The quantized chunked scan, not the per-token fallback, served the prefill.
    scans = [s for s in tracer.spans if s[0] == "ssm_quant.scan"]
    assert len(scans) == len(traced.blocks)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [100.2, 99.8, 100.9, 100.1], "lower", 0.10) == "unchanged"
    assert compare.verdict(steady, [120.0, 121.0, 119.0, 122.0], "lower", 0.10) == "regressed"
    assert compare.verdict(steady, [95.0, 96.0, 94.0, 95.5], "higher", 0.10) == "unchanged"
    # A gain needs ten pairs: four better runs are not a claim, ten are.
    assert compare.verdict(steady, [90.0, 91.0, 89.0, 90.5], "lower", 0.10) == "unchanged"
    ten = [100.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(ten, [value - 10.0 for value in ten], "lower", 0.10) == "improved"
    noisy = [80.0, 120.0, 95.0, 110.0]
    assert compare.verdict(noisy, [85.0, 118.0, 99.0, 104.0], "lower", 0.10) == "unresolved"
    # Spread wider than the bound, yet every B run beats every A run: no regression.
    assert compare.verdict(noisy, [50.0, 60.0, 55.0, 58.0], "lower", 0.10) == "unchanged"


def test_quick_run_emits_every_declared_metric(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"), "--quick",
         "--workload", "engine_offline_b8", "--seed", "5", "--output", str(report)],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(lines) == 2   # untraced, then traced
    for line, section in zip(lines, ("end_to_end", "per_layer")):
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        wanted = {metric["name"]: metric["unit"] for metric in declared[section]}
        assert {name: m["unit"] for name, m in line["metrics"].items()} == wanted
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert json.loads(report.read_text())["quick"] is True
