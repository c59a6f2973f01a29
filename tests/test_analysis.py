"""Tests for the :mod:`repro.analysis` static-verification subsystem.

Every rule family is pinned by a paired firing / non-firing fixture under
``tests/fixtures/analysis/``; the overflow prover is pinned against the
*runtime* guard of :func:`repro.quant.qlinear.grouped_integer_matmul` (the
two must agree configuration-by-configuration); and the live repository must
analyze clean modulo the committed baseline -- the same gate CI applies.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    AnalysisReport,
    Baseline,
    ContractionSpec,
    NarrowCodeSpec,
    ShiftAccumulatorSpec,
    analyze_paths,
    analyze_repo,
    default_registry,
    prove,
    prove_default_registry,
    repo_root,
)
from repro.analysis.cli import main
from repro.analysis.dtypeflow import _ROUND_TRIP_NAMES
from repro.quant.dtypes import code_storage_dtype
from repro.quant.pot import (
    alignment_multiplier,
    requant_shift,
    shift_accumulator_dtype,
    shift_right_half_even,
)
from repro.quant.qlinear import grouped_integer_matmul

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"


# ----------------------------------------------------------------------
# Guarded-by lock discipline (GB1xx)
# ----------------------------------------------------------------------
def test_guarded_bad_fixture_fires_every_lock_rule():
    findings = analyze_paths([FIXTURES / "guarded_bad.py"])
    active = [f for f in findings if not f.suppressed]
    assert sorted(f.code for f in active) == ["GB101", "GB102", "GB103", "GB104"]

    gb101 = next(f for f in active if f.code == "GB101")
    assert gb101.symbol == "BadCounter.bump"
    assert "_count" in gb101.message and "_lock" in gb101.message

    gb102 = next(f for f in active if f.code == "GB102")
    assert gb102.symbol == "BadCounter.bad_wait"

    gb103 = next(f for f in active if f.code == "GB103")
    assert gb103.symbol == "BadCounter.bad_notify"

    gb104 = next(f for f in active if f.code == "GB104")
    assert "ghost" in gb104.message and "_missing_lock" in gb104.message


def test_guarded_bad_fixture_inline_suppression():
    findings = analyze_paths([FIXTURES / "guarded_bad.py"])
    suppressed = [f for f in findings if f.suppressed]
    assert [f.code for f in suppressed] == ["GB101"]
    assert suppressed[0].symbol == "BadCounter.bump_suppressed"


def test_guarded_ok_fixture_is_quiet():
    assert analyze_paths([FIXTURES / "guarded_ok.py"]) == []


def test_checker_rediscovers_unguarded_latency_pattern(tmp_path):
    """The original engine gap: `_latency` written under `_submit_lock` in
    submit() but read without it elsewhere must produce a GB101."""
    source = textwrap.dedent(
        """
        import threading

        class EngineLike:
            def __init__(self):
                self._submit_lock = threading.Lock()
                self._latency = {}  # guarded-by: _submit_lock

            def submit(self, rid, record):
                with self._submit_lock:
                    self._latency[rid] = record

            def latency(self, rid):
                return self._latency[rid]
        """
    )
    path = tmp_path / "engine_like.py"
    path.write_text(source, encoding="utf-8")
    findings = analyze_paths([path])
    assert [f.code for f in findings] == ["GB101"]
    assert findings[0].symbol == "EngineLike.latency"
    assert "_latency" in findings[0].message


# ----------------------------------------------------------------------
# Single-thread contract (GB105 / GB106)
# ----------------------------------------------------------------------
def test_threads_bad_fixture_fires_every_thread_rule():
    findings = analyze_paths([FIXTURES / "threads_bad.py"])
    active = [(f.code, f.symbol) for f in findings if not f.suppressed]
    assert active == [
        ("GB101", "BadSplit._engine_main"),  # thread-only is not a lock
        ("GB105", "BadSplit._engine_main"),  # loop state from the engine thread
        ("GB106", "BadSplit._engine_main"),  # direct cross-thread call
        ("GB105", "BadSplit._deliver"),  # engine-thread member from the loop
        ("GB105", "BadSplit.snapshot"),  # no declared thread
        ("GB105", "BadSplit._on_token"),  # an escaping lambda has no thread
    ]
    member = next(f for f in findings if f.symbol == "BadSplit._deliver")
    assert "self.engine.cancel" in member.message and "engine thread" in member.message
    suppressed = [f for f in findings if f.suppressed]
    assert [(f.code, f.symbol) for f in suppressed] == [
        ("GB105", "BadSplit.snapshot_suppressed")
    ]


def test_threads_ok_fixture_is_quiet():
    assert analyze_paths([FIXTURES / "threads_ok.py"]) == []


def test_server_split_is_declared_and_checked(tmp_path):
    """The live server carries the contract, and breaking it is caught: an
    engine call moved onto the loop, loop state touched from the engine
    thread, and the inbox read without its condition each produce a finding."""
    server = repo_root() / "src" / "repro" / "serving" / "server.py"
    source = server.read_text(encoding="utf-8")
    assert analyze_paths([server]) == []
    mutations = {
        "GB105": ('self._post("cancel", request_id)\n', "self.engine.cancel(request_id)\n"),
        "GB106": ("self._loop.call_soon_threadsafe(\n            self._deliver_token,",
                  "self._deliver_token(\n            "),
        "GB101": ("with self._cond:\n                    while stop is None",
                  "if True:\n                    while stop is None"),
    }
    for code, (old, new) in mutations.items():
        assert old in source, code
        path = tmp_path / f"server_{code}.py"
        path.write_text(source.replace(old, new, 1), encoding="utf-8")
        assert code in {f.code for f in analyze_paths([path])}, code


# ----------------------------------------------------------------------
# User-callback lock discipline (CB401)
# ----------------------------------------------------------------------
def test_callback_bad_fixture_fires_cb401_for_every_shape():
    findings = analyze_paths([FIXTURES / "callback_bad.py"])
    active = [f for f in findings if not f.suppressed]
    assert [f.code for f in active] == ["CB401", "CB401", "CB401"]
    assert {f.symbol for f in active} == {
        "BadStreamer.step",
        "BadStreamer.fire",
        "BadStreamer.step_held",
    }
    step = next(f for f in active if f.symbol == "BadStreamer.step")
    assert "on_token" in step.message and "_lock" in step.message

    suppressed = [f for f in findings if f.suppressed]
    assert [f.code for f in suppressed] == ["CB401"]
    assert suppressed[0].symbol == "BadStreamer.step_suppressed"


def test_callback_ok_fixture_is_quiet():
    assert analyze_paths([FIXTURES / "callback_ok.py"]) == []


def test_cb401_rediscovers_callback_under_submit_lock(tmp_path):
    """The shape the rule exists for: streaming a token to user code while
    the engine still holds its submit lock."""
    source = textwrap.dedent(
        """
        import threading

        class EngineLike:
            def __init__(self):
                self._submit_lock = threading.Lock()
                self._latency = {}  # guarded-by: _submit_lock

            # user-callback: on_token
            def step(self, on_token):
                with self._submit_lock:
                    self._latency[0] = 1
                    on_token(0)
        """
    )
    path = tmp_path / "engine_like.py"
    path.write_text(source, encoding="utf-8")
    findings = analyze_paths([path])
    assert [f.code for f in findings] == ["CB401"]
    assert findings[0].symbol == "EngineLike.step"


# ----------------------------------------------------------------------
# Integer-path dtype flow (DT2xx)
# ----------------------------------------------------------------------
def test_dtype_bad_fixture_fires_every_dtype_rule():
    findings = analyze_paths([FIXTURES / "dtype_bad.py"])
    active = [f for f in findings if not f.suppressed]
    assert sorted(f.code for f in active) == ["DT201", "DT201", "DT202", "DT203"]
    symbols = {f.symbol for f in active}
    assert symbols == {"leaky_kernel", "round_trip"}

    suppressed = [f for f in findings if f.suppressed]
    assert [f.code for f in suppressed] == ["DT201"]
    assert suppressed[0].symbol == "leaky_suppressed"


def test_dtype_ok_fixture_is_quiet():
    """Sanctioned quant-points and unregistered functions produce nothing."""
    assert analyze_paths([FIXTURES / "dtype_ok.py"]) == []


def test_round_trip_names_are_functions_in_src():
    """Every fake-quant round trip DT203 looks for is a function defined under
    ``src/``: a name left behind by a rename would watch nothing."""
    defined = {
        node.name
        for path in (repo_root() / "src").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert sorted(_ROUND_TRIP_NAMES - defined) == []


# ----------------------------------------------------------------------
# Baseline workflow
# ----------------------------------------------------------------------
def test_baseline_roundtrip_and_partition(tmp_path):
    findings = analyze_paths([FIXTURES / "guarded_bad.py"])
    active = [f for f in findings if not f.suppressed]
    baseline_path = tmp_path / "baseline.json"
    Baseline.write(baseline_path, active)

    baseline = Baseline.load(baseline_path)
    assert all(baseline.contains(f) for f in active)

    report = AnalysisReport(findings=findings)
    now_active, inline, baselined = report.partition(baseline)
    assert now_active == []
    assert len(baselined) == len(active)
    assert [f.code for f in inline] == ["GB101"]

    # The baseline is keyed by fingerprint, not line: unrelated findings of
    # another module never match it.
    other = analyze_paths([FIXTURES / "dtype_bad.py"])
    assert not any(baseline.contains(f) for f in other)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_json_report_and_exit_codes(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    rc = main(
        [
            str(FIXTURES / "guarded_bad.py"),
            "--format",
            "json",
            "--no-overflow",
            "--output",
            str(out_file),
        ]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"] == {
        "active": 4,
        "suppressed": 1,
        "baselined": 0,
        "sanction_count": 0,  # the fixture registers no integer-resident region
    }
    assert json.loads(out_file.read_text(encoding="utf-8")) == payload

    assert main([str(FIXTURES / "guarded_ok.py"), "--no-overflow"]) == 0
    capsys.readouterr()


def test_cli_write_baseline_accepts_findings(tmp_path, capsys):
    baseline = tmp_path / "bl.json"
    args = [str(FIXTURES / "dtype_bad.py"), "--no-overflow", "--baseline", str(baseline)]
    assert main(args + ["--write-baseline"]) == 0
    assert baseline.exists()
    assert main(args) == 0  # everything is baselined now
    capsys.readouterr()


def test_cli_list_codes(capsys):
    assert main(["--list-codes"]) == 0
    out = capsys.readouterr().out
    for code in ("GB101", "DT201", "OV301"):
        assert code in out


# ----------------------------------------------------------------------
# Static overflow prover (OV3xx)
# ----------------------------------------------------------------------
def test_prover_agrees_with_runtime_guard():
    """`ContractionSpec.overflows` must be true exactly for the
    configurations on which `grouped_integer_matmul` raises OverflowError."""
    rng = np.random.default_rng(0)
    cases = [(4, 128), (8, 32), (8, 128), (16, 32), (16, 128)]
    seen = {True: 0, False: 0}
    for bits, group in cases:
        spec = ContractionSpec(
            name=f"test INT{bits} g{group}",
            origin="test",
            x_bits=bits,
            w_bits=bits,
            group_len=group,
        )
        qmax = spec.x_qmax
        x_codes = rng.integers(-qmax, qmax + 1, size=(2, group))
        w_codes = rng.integers(-qmax, qmax + 1, size=(3, group))
        raised = False
        try:
            grouped_integer_matmul(
                x_codes,
                np.ones((2, 1)),
                w_codes,
                np.ones((3, 1)),
                group_size=group,
                x_qmax=qmax,
                w_qmax=qmax,
            )
        except OverflowError:
            raised = True
        assert raised == spec.overflows, (bits, group)
        seen[spec.overflows] += 1
    # Both verdicts must actually be exercised (INT16 overflows, INT8/4 fit).
    assert seen[True] >= 1 and seen[False] >= 1


def test_prove_emits_ov301_for_provable_overflow():
    unsafe = ContractionSpec(
        name="unsafe INT16 g128", origin="test", x_bits=16, w_bits=16, group_len=128
    )
    findings, margins = prove([unsafe])
    assert [f.code for f in findings] == ["OV301"]
    assert findings[0].symbol == unsafe.name
    assert margins[0]["overflows"] is True
    assert margins[0]["headroom_bits"] < 0

    safe = ContractionSpec(
        name="safe INT8 g32", origin="test", x_bits=8, w_bits=8, group_len=32
    )
    findings, margins = prove([safe])
    assert findings == []
    assert margins[0]["margin"] > 1


def test_default_registry_is_proven_safe_with_margin():
    specs = default_registry()
    # The chunk-parallel prefill contracts floats: it registers nothing.
    assert {s.origin for s in specs} == {"ssm-decode-step", "qlinear", "mmu"}
    findings, margins = prove_default_registry()
    assert findings == []
    assert len(margins) == len(specs)
    # Every accumulator has headroom; only a code store may fill its type
    # exactly (INT8 codes in an int8 array: qmax is the type's maximum).
    assert all(m["margin"] > 1 or "code store" in m["name"] for m in margins)
    assert all(m["margin"] >= 1 for m in margins)


def test_decode_step_accumulators_registered_and_agree_with_runtime():
    """The tiled decode step's pre-aligned products are in the registry for
    every committed code width, proven to fit INT32; the runtime picks its
    accumulator from the same bound, so it widens exactly where the INT32
    spec reports an overflow (INT16 codes), and the worst-case product really
    survives the fused shift in the selected dtype."""
    specs = [s for s in default_registry() if isinstance(s, ShiftAccumulatorSpec)]
    assert {s.origin for s in specs} == {"ssm-decode-step"}
    assert {(s.bits, s.acc_bits) for s in specs} == {(4, 32), (8, 32)}
    assert len(specs) == 4  # two fused requantizations x two code widths
    assert not any(s.overflows for s in specs)

    verdicts = {True: 0, False: 0}
    for bits in (4, 8, 16):
        narrow = ShiftAccumulatorSpec(name=f"INT{bits}", origin="test", bits=bits)
        dtype = shift_accumulator_dtype(bits)
        assert (dtype is not np.int32) == narrow.overflows, bits
        verdicts[narrow.overflows] += 1
        selected = ShiftAccumulatorSpec(
            name=f"INT{bits} selected",
            origin="test",
            bits=bits,
            acc_bits=8 * np.dtype(dtype).itemsize,
        )
        assert not selected.overflows
        # Worst case through the kernel: both codes at qmax, re-quantized
        # onto the grid its own absmax selects (|product| / 2**r <= qmax).
        qmax = 2 ** (bits - 1) - 1
        shift = bits - 1  # smallest r with qmax * qmax / 2**r <= qmax
        aligned = (qmax * alignment_multiplier(qmax * qmax, shift, bits)).astype(dtype)
        acc = (aligned * np.array([qmax, -qmax], dtype=dtype)).astype(dtype)
        assert int(np.abs(acc).max()) + 2 ** (requant_shift(bits) - 1) <= selected.worst_case
        shift_right_half_even(acc, requant_shift(bits), np.empty_like(acc))
        expected = int(np.round(qmax * qmax / 2.0**shift))
        np.testing.assert_array_equal(acc, [expected, -expected])
    assert verdicts == {True: 1, False: 2}
    # No integer accumulator is wide enough past INT21 codes: the step then
    # has no integer datapath and runs the oracle.
    assert shift_accumulator_dtype(21) is np.int64
    assert shift_accumulator_dtype(22) is None


# ----------------------------------------------------------------------
# Sanction-budget ratchet (DT204)
# ----------------------------------------------------------------------
def test_count_quant_points_counts_only_registered_regions(tmp_path):
    source = textwrap.dedent(
        """
        def unregistered():
            a = 1  # quant-point: outside any region, never counted

        def resident():  # integer-resident
            b = 2  # quant-point: one
            c = 3  # quant-point: two

            def nested():
                d = 4  # quant-point: three (nested shares the region)
        """
    )
    path = tmp_path / "mod.py"
    path.write_text(source, encoding="utf-8")
    from repro.analysis import SourceModule, count_quant_points

    assert count_quant_points(SourceModule.parse(path, root=tmp_path)) == 3


def test_decode_step_narrow_values_registered_and_agree_with_runtime():
    """The values the tiled step holds narrower than its accumulator -- the
    `h (.) C` product in the `2 * bits` type and the code store -- sit in the
    registry beside the aligned products, at the width the runtime picks, and
    one type narrower would provably overflow (INT8 codes need INT16 for the
    product; the INT4 product fits INT8, which is already the narrowest)."""
    specs = [s for s in default_registry() if isinstance(s, NarrowCodeSpec)]
    assert {s.origin for s in specs} == {"ssm-decode-step"}
    assert {(s.bits, s.factors, s.acc_bits) for s in specs} == {
        (4, 1, 8), (4, 2, 8), (8, 1, 8), (8, 2, 16),
    }
    assert not any(s.overflows for s in specs)
    for spec in specs:
        dtype = code_storage_dtype(spec.factors * spec.bits)
        assert spec.acc_bits == np.iinfo(dtype).bits
        worst = np.full(spec.factors, 2 ** (spec.bits - 1) - 1, dtype=dtype)
        assert int(np.prod(worst, dtype=dtype)) == spec.worst_case  # no wrap
        if spec.acc_bits > 8:
            halved = NarrowCodeSpec("narrower", "test", spec.bits, spec.factors, spec.acc_bits // 2)
            assert halved.overflows
    # From INT9 on the product no longer fits INT16.
    assert NarrowCodeSpec("INT9 product", "test", 9, 2, 16).overflows
    assert not NarrowCodeSpec("INT9 product", "test", 9, 2, 32).overflows
    findings, _ = prove([NarrowCodeSpec("INT8 product in INT8", "test", 8, 2, 8)])
    assert [f.code for f in findings] == ["OV301"]
    with pytest.raises(ValueError, match="no numpy integer type"):
        code_storage_dtype(65)


def test_sanction_budget_finding_is_a_one_way_ratchet():
    from repro.analysis import sanction_budget_finding

    # At or under budget (or with either side unknown): no finding.
    assert sanction_budget_finding(33, 33) is None
    assert sanction_budget_finding(20, 33) is None
    assert sanction_budget_finding(None, 33) is None
    assert sanction_budget_finding(33, None) is None
    finding = sanction_budget_finding(34, 33)
    assert finding is not None
    assert finding.code == "DT204"
    assert "34" in finding.message and "33" in finding.message


def test_live_sanction_count_matches_committed_budget():
    """The live `# quant-point:` count equals the committed budget exactly
    (so any new sanction trips DT204) and sits strictly below the
    pre-refactor surface of 39 -- the all-integer decode iteration must
    *shrink* the sanctioned float surface, not move it around."""
    report = analyze_repo()
    baseline = Baseline.load(repo_root() / "analysis-baseline.json")
    assert baseline.sanction_budget is not None
    assert report.sanction_count == baseline.sanction_budget
    assert baseline.sanction_budget < 39


def test_cli_gate_fires_dt204_when_budget_exceeded(tmp_path, capsys):
    """A baseline with a smaller budget than the live count must fail the
    CLI gate with a DT204 finding that cannot be baselined away."""
    shrunk = {"version": 1, "findings": [], "sanction_budget": 0}
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(shrunk), encoding="utf-8")
    exit_code = main(
        ["--no-overflow", "--baseline", str(baseline), "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert any(f["code"] == "DT204" for f in payload["findings"])


# ----------------------------------------------------------------------
# Live-repo self-check (the CI gate)
# ----------------------------------------------------------------------
def test_live_repo_is_clean_modulo_baseline():
    report = analyze_repo()
    baseline_path = repo_root() / "analysis-baseline.json"
    baseline = Baseline.load(baseline_path) if baseline_path.exists() else None
    active, _, _ = report.partition(baseline)
    assert active == [], "\n".join(f.format() for f in active)
