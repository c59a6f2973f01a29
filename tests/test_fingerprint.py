"""The numerics fingerprint of the quantized served path, against a committed record.

One sha256 per case over everything a served request's numerics leave
behind: the logits, every layer's conv window, the resident SSM codes and
their scales.  Arrays are hashed in logical C order (dtype, shape, bytes), so
how a container stores them cannot move a hash -- only a changed value can.

The matrix: every quantization method -- RTN, SmoothQuant, OS+, LightMamba
and lightmamba* -- at W4A4 and W8A8 on the ``benchmarks/e2e`` model dims
(SmoothQuant and OS+ calibrate on fixed-seed token sequences), each through
the same cases:

- ``prefill/solo/L``: one prompt of L = 1, 63, 64, 65, 512 tokens;
- ``prefill/batch3/L``: three prompts of L tokens prefilled as one batch;
- ``prefill/warm``: a 65-token segment, then 63 more on the warm cache;
- ``decode/b1``: a prompt, then 32 greedy steps on its cache;
- ``decode/b3``: three prompts of different lengths in a 4-slot pool, then 32
  greedy steps, each a gather -> step -> scatter of the live slots, as the
  serving engine runs them;
- ``prefill/sequential/solo/L`` (L = 1, 65) and ``prefill/sequential/batch3/9``: prompts
  prefilled with ``scan_impl="sequential"``, the per-token recurrence.

The record is computed twice, on the compiled library and under
``no_kernel`` (the fake-quant oracle and the numpy references), and each
must equal the committed record with ``==`` -- no tolerance.  The C is
built with ``-march=native`` and numpy's SIMD transcendentals and the BLAS
kernel are chosen by the CPU, so the record also names the machine it was
taken on: on another one a difference is reported with both names.  A PR
that changes bits on purpose re-records and lists the cases that moved;
re-recording prints the names it added, removed and changed::

    PYTHONPATH=src python tests/test_fingerprint.py

A lightmamba* case is named ``<bits>/<case>``, every other method's
``<method>/<bits>/<case>``.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.mamba import InitConfig, Mamba2Config, Mamba2Model
from repro.mamba.cache import InferenceCache, QuantizedSSMState
from repro.quant import (
    QuantConfig, QuantMethod, collect_activation_stats, native, quantize_model,
)

RECORD = Path(__file__).with_name("fixtures") / "fingerprint.json"
CONFIG = Mamba2Config(
    name="fingerprint", d_model=256, n_layer=2, vocab_size=512, d_state=128, headdim=64
)
PROMPT_LENGTHS = (1, 63, 64, 65, 512)
#: ``(rows, length)`` of the sequential-prefill cases.
SEQUENTIAL_PROMPTS = ((1, 1), (1, 65), (3, 9))
DECODE_STEPS = 32
#: ``(case-name prefix, method)``; lightmamba*'s cases keep their first names.
METHODS = (
    ("", QuantMethod.LIGHTMAMBA_STAR),
    ("rtn/", QuantMethod.RTN),
    ("smoothquant/", QuantMethod.SMOOTHQUANT),
    ("os+/", QuantMethod.OSPLUS),
    ("lightmamba/", QuantMethod.LIGHTMAMBA),
)


def _machine() -> str:
    """What the bytes may depend on besides the source: the CPU, numpy and its SIMD."""
    from numpy._core._multiarray_umath import __cpu_features__

    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    model = next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")),
                 platform.processor())
    simd = ",".join(sorted(k for k, v in __cpu_features__.items() if v))
    return f"{platform.machine()} {model}; numpy {np.__version__}; simd {simd}"


def _digest(logits, cache) -> str:
    h = hashlib.sha256()

    def put(array):
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())

    put(logits)
    for layer in cache.layers:
        put(layer.conv_state)
        state = layer.ssm_state
        if isinstance(state, QuantizedSSMState):
            put(state.codes)
            put(state.scales)
        else:
            put(state)
    return h.hexdigest()


def _prompts(rng, count, length):
    return rng.integers(0, CONFIG.vocab_size, size=(count, length))


def _greedy(logits):
    return np.argmax(logits, axis=-1)


def _cases(model):
    """``(name, sha256)`` of every case of one model, in a fixed order."""
    rng = np.random.default_rng(2025)
    for length in PROMPT_LENGTHS:
        yield f"prefill/solo/{length}", _digest(*model.prefill(_prompts(rng, 1, length)[0]))
        yield f"prefill/batch3/{length}", _digest(*model.prefill(_prompts(rng, 3, length)))
    first, second = _prompts(rng, 1, 65)[0], _prompts(rng, 1, 63)[0]
    _, cache = model.prefill(first)
    yield "prefill/warm", _digest(*model.prefill(second, cache=cache))

    logits, cache = model.prefill(_prompts(rng, 1, 9)[0])
    seen = []
    for _ in range(DECODE_STEPS):
        logits = model.step(int(_greedy(logits)), cache)
        seen.append(logits)
    yield "decode/b1", _digest(np.stack(seen), cache)

    solo = [model.prefill(_prompts(rng, 1, length)[0]) for length in (5, 17, 33)]
    pool, slots = model.new_cache(batch_size=4), [3, 0, 2]
    pool.scatter(slots, InferenceCache.stack([cache for _, cache in solo]))
    logits, seen = np.stack([logits for logits, _ in solo]), []
    for _ in range(DECODE_STEPS):
        live = pool.gather(slots)
        logits = model.step(_greedy(logits), live)
        pool.scatter(slots, live)
        seen.append(logits)
    yield "decode/b3", _digest(np.stack(seen), pool)

    rng = np.random.default_rng(2026)
    for rows, length in SEQUENTIAL_PROMPTS:
        prompts = _prompts(rng, rows, length)
        name = f"solo/{length}" if rows == 1 else f"batch{rows}/{length}"
        yield f"prefill/sequential/{name}", _digest(
            *model.prefill(prompts[0] if rows == 1 else prompts, scan_impl="sequential")
        )


def fingerprint() -> dict:
    """The record's cases, ``config/case -> sha256``, on whatever executors run now."""
    fp_model = Mamba2Model.from_config(CONFIG, InitConfig(seed=0))
    calibration = collect_activation_stats(
        fp_model, list(_prompts(np.random.default_rng(7), 4, 64))
    )
    cases = {}
    for prefix, method in METHODS:
        for bits, make in (("w4a4", QuantConfig.w4a4), ("w8a8", QuantConfig.w8a8)):
            model = quantize_model(fp_model, make(method), calibration=calibration)
            cases.update((f"{prefix}{bits}/{name}", digest) for name, digest in _cases(model))
    return cases


def _check(got: dict, leg: str) -> None:
    record = json.loads(RECORD.read_text())
    want = record["cases"]
    differing = [name for name in want if got.get(name) != want[name]]
    extra = sorted(set(got) - set(want))
    assert not differing and not extra, (
        f"{leg}: fingerprint differs from {RECORD.name} at {differing[0] if differing else extra[0]}"
        f" ({len(differing)} of {len(want)} cases differ: {differing}; not recorded: {extra});"
        f" recorded on: {record['machine']}; running on: {_machine()}"
    )


def test_fingerprint_compiled():
    if native.kernel() is None:
        pytest.skip(f"no compiled library ({native.status()}); the no_kernel leg covers numpy")
    _check(fingerprint(), "compiled")


def test_fingerprint_without_library(no_kernel):
    _check(fingerprint(), "no_kernel")


if __name__ == "__main__":
    if native.status() != "compiled":
        sys.exit(f"record on the compiled library: {native.status()}")
    old = json.loads(RECORD.read_text())["cases"] if RECORD.exists() else {}
    new = fingerprint()
    RECORD.write_text(json.dumps({"machine": _machine(), "cases": new}, indent=2) + "\n")
    print(f"wrote {RECORD}")
    for label, names in (
        ("added", [name for name in new if name not in old]),
        ("removed", [name for name in old if name not in new]),
        ("changed", [name for name in new if name in old and new[name] != old[name]]),
    ):
        print(f"{label} {len(names)}" + "".join(f"\n  {name}" for name in names))
