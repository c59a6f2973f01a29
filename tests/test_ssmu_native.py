"""Tests of the compiled SSM step and quantizer (``native.c`` behind ``repro.quant.native``).

The fake-quant oracle ``QuantizedSSMStep._step_oracle`` is the reference: the
compiled ``step`` must return its bytes (``y``, codes, scales) on the same
operands, and it is also what runs where no library loads -- the "numpy"
executor below, the one ``--no-kernel`` selects.  Beyond those direct
comparisons the file pins the two derivations whose numpy originals are easy
to get wrong in C (the destination exponent is ``ceil(log2(.))`` in float64,
not the binary exponent; the readout is numpy's pairwise sum), the step's
range (a grid past ``2**1023``, a non-finite operand or a scale that is not a
normal power of two hands the batch to the oracle), that a default model
really decodes through the compiled step, and the build / cache / fallback
machinery: no compiler, concurrent first builds, a cache directory somebody
else can write, code widths the kernel is not written for.  Everything except
the no-compiler fallback is skipped, with the reason, on a machine where no
kernel loads.  Section (h) holds the quantizer entry to the numpy quantizer
the same way: values, codes and scales, in place, and what it declines.
(The compiled FWHT, the library's third entry, is tested in
``test_hadamard.py``.)
"""

import ctypes
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mamba import InitConfig, Mamba2Config, Mamba2Model
from repro.mamba.generation import greedy_decode
from repro.mamba.ssm import SSMParams, ssm_decay
from repro.quant import (
    QuantConfig,
    QuantizedSSMStep,
    QuantMethod,
    SSMQuantConfig,
    native,
    quantize_model,
)
from repro.quant.dtypes import Granularity, IntSpec
from repro.quant.pot import absmax_requant_exponents
from repro.quant.quantizer import (
    QuantizerConfig,
    _fake_quant_into,
    quantize,
    quantize_dequantize,
)
from repro.quant.ssm_quant import _ORACLE

#: The library as loaded at collection, before any test patches the loader.
COMPILED = native.kernel()
needs_kernel = pytest.mark.skipif(COMPILED is None, reason=native.status())
REPO = Path(__file__).resolve().parents[1]

# (groups, group length, n): full power-of-two groups, the suite's clamped
# shape (group_size 32 over d_state 24 is one 24-long group), a state axis
# that pads (24 over groups of 16), a non-power-of-two group that pads, the
# benchmark's shape.
LAYOUTS = [(3, 8, 24), (1, 24, 24), (2, 16, 24), (3, 7, 20), (4, 32, 128)]


def _with_step(step):
    """The loaded entries with ``step`` in place of the compiled step (where
    no library loaded, a quantizer that declines every call: numpy's runs)."""
    entries = vars(COMPILED) if COMPILED is not None else {"quantize": lambda *args: None}
    return SimpleNamespace(**{**entries, "step": step})


def _library():
    """The cached shared object, for the two test entries beside the kernels:
    the head tile's exponent derivation and its per-lane readout sum."""
    lib = ctypes.CDLL(str(native._cache_dir() / native._library_name(native._find_compiler())))
    lib.ssmu_requant_exponents.restype = None
    lib.ssmu_requant_exponents.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32, ctypes.c_void_p]
    lib.ssmu_pairwise_sum.restype = ctypes.c_int
    lib.ssmu_pairwise_sum.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                                      ctypes.c_void_p]
    return lib


# ----------------------------------------------------------------------
# (a) The compiled step against the oracle, on the same operands
# ----------------------------------------------------------------------
def _on_numpy(call, *args):
    """``call(*args)`` under the ``no_kernel`` fixture's patch, scoped to the one call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_load", lambda: (None, "numpy: patched out by the test suite"))
        return call(*args)


def _step_case(rng, bits, lead, layout):
    """A step and in-range operands whose group grids lie far apart: values
    spread over 16 binary decades, a scale per operand, zero groups, and (in a
    batch) an all-zero row of x, B and state."""
    groups, glen, n = layout
    # Channels are the compiled tile's vector lanes: short heads, full vectors
    # and a remainder either side of the benchmark's 64.
    heads, dim = int(rng.integers(1, 4)), int(rng.choice([*range(1, 13), 16, 63, 64, 65]))
    step = QuantizedSSMStep(SSMQuantConfig(bits=bits, group_size=glen))
    params = SSMParams(
        A_log=rng.normal(size=heads),
        D=rng.normal(size=heads) * 10.0 ** rng.integers(-3, 4),
        dt_bias=rng.normal(size=heads),
    )

    def spread(shape):
        values = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        values *= rng.random(shape[:-1] + (1,)) > 0.1                 # zero rows of groups
        return values * 10.0 ** rng.integers(-20, 21)

    state = step.quantize_state_codes(spread(lead + (heads, dim, n)))
    x, B, C = spread(lead + (heads, dim)), spread(lead + (n,)), spread(lead + (n,))
    dt = rng.normal(size=lead + (heads,)) * 3.0
    if lead and rng.random() < 0.5:
        x[0], B[0], state.codes[0] = 0.0, 0.0, 0
    assert state.scales.shape[-2] == groups
    return step, (params, x, B, C, dt, state)


def _compiled_answer(step, args, **change):
    """The compiled step entry's answer on ``_step_integer``'s ``args``,
    passed on as ``_step_integer`` does unless ``change`` replaces one."""
    params, x, B, C, dt, state = args
    delta, a_bar = ssm_decay(params, dt)
    operands = dict(x=x, B=B, C=C, dt=dt, delta=delta, a_bar=a_bar, D=params.D, state=state,
                    group_size=step.config.group_size, bits=step.config.bits)
    operands.update(change)
    return COMPILED.step(*operands.values())


def _assert_compiled_equals_oracle(step, args):
    """The compiled entry runs the batch (no decline, no hand-off) and
    returns the oracle's ``y``, INT8 codes and scales, byte for byte."""
    answer = _compiled_answer(step, args)
    assert isinstance(answer, tuple), answer
    y, codes, scales = answer
    y_oracle, state_oracle = step._step_oracle(*args)
    assert y.tobytes() == y_oracle.tobytes()
    assert codes.dtype == state_oracle.codes.dtype == np.int8
    assert codes.tobytes() == state_oracle.codes.tobytes()
    assert scales.tobytes() == state_oracle.scales.tobytes()


@needs_kernel
@given(
    seed=st.integers(0, 2**32 - 1),
    bits=st.sampled_from([4, 8]),
    lead=st.sampled_from([(), (1,), (3,), (8,)]),
    layout=st.sampled_from(LAYOUTS),
)
@settings(max_examples=150, deadline=None)
def test_compiled_step_matches_numpy_step(seed, bits, lead, layout):
    """The compiled step against the numpy one -- the oracle, which is what
    runs without the library: ``y``, codes and scales, the same bytes, for
    full, ragged and padded groups and all-zero rows."""
    step, args = _step_case(np.random.default_rng(seed), bits, lead, layout)
    _assert_compiled_equals_oracle(step, args)


@needs_kernel
@pytest.mark.parametrize("layout", [(1, 24, 24), (4, 32, 128), (5, 32, 136), (10, 32, 300)])
def test_tile_readout_with_far_apart_group_grids(rng, layout):
    """The ``d_state`` readout of the state tile sums ``h (.) C`` decoded on
    group grids up to 90 binades apart, where the order of a float64 sum
    shows: numpy's pairwise order over the first ``n`` elements of a padded
    line, for ``n`` = 24, 128, 136 and 300.  Dense codes: a sum of a few
    nonzero terms is exact in any order."""
    _, glen, n = layout
    heads, dim = 2, 3
    step = QuantizedSSMStep(SSMQuantConfig(group_size=glen))
    params = SSMParams(A_log=rng.normal(size=heads), D=rng.normal(size=heads),
                       dt_bias=rng.normal(size=heads))
    for _ in range(5):
        state = step.quantize_state_codes(rng.normal(size=(2, heads, dim, n)))
        state.scales *= 2.0 ** rng.integers(-45, 46, size=state.scales.shape)
        x, B, C = rng.normal(size=(2, heads, dim)), rng.normal(size=(2, n)), rng.normal(size=(2, n))
        dt = rng.normal(size=(2, heads))
        _assert_compiled_equals_oracle(step, (params, x, B, C, dt, state))


@needs_kernel
def test_exponents_past_the_exact_multiply_range(rng):
    """Source grids more than 1000 binades from the destination, where the
    kernel leaves its ``2**e``-from-exponent-bits multiply for libm ``ldexp``.
    Destinations floor at ``2**-39``, so without overflowing float64 only the
    ends of its range get there.  Rows 0 and 1 hold a state scaled ``2**985``
    beside an all-zero group at the floor; row 0's x / B near ``1e-180`` quantize
    to zero codes at the floor, row 1's near ``1e-5`` give a ``B_bar (.) x``
    product near ``2**-40``, ~1020 binades below the state's grid.  Row 2 is
    an all-zero state (its grid at the floor) under x / B near ``1e146``, a
    product near ``2**970``."""
    heads, dim, n, group = 2, 3, 24, 16
    step = QuantizedSSMStep(SSMQuantConfig(group_size=group))
    for _ in range(4):
        params = SSMParams(A_log=rng.normal(size=heads), D=rng.normal(size=heads),
                           dt_bias=rng.normal(size=heads))
        values = rng.normal(size=(3, heads, dim, n))
        values[:2] *= 2.0**985
        values[:2, ..., group:] = 0.0
        values[2] = 0.0
        state = step.quantize_state_codes(values)
        magnitude = np.array([1e-180, 1e-5, 1e146])
        x = rng.normal(size=(3, heads, dim)) * magnitude[:, None, None]
        B = rng.normal(size=(3, n)) * magnitude[:, None]
        C, dt = rng.normal(size=(3, n)), rng.normal(size=(3, heads))
        with np.errstate(over="raise", invalid="raise"):
            _assert_compiled_equals_oracle(step, (params, x, B, C, dt, state))


@needs_kernel
def test_kernel_rejects_operands_out_of_contract(rng):
    """The step entry declines (``None``: the oracle runs the batch) what it
    is not written for, before any pointer is handed over."""
    step, args = _step_case(rng, 8, (2,), (2, 16, 24))
    params, x, B, _, _, state = args
    assert isinstance(_compiled_answer(step, args), tuple)
    wide = SimpleNamespace(codes=state.codes.astype(np.int16), scales=state.scales)
    for change in (
        {"bits": 9},                                # wider than INT8 codes
        {"state": wide},                            # codes stored wider than INT8
        {"B": B[..., :-1]},                         # a misshapen operand
        {"D": np.append(params.D, 1.0)},
        {"x": x[:1]},                               # a batch shape other than the state's
    ):
        assert _compiled_answer(step, args, **change) is None, change


# ----------------------------------------------------------------------
# (a') Whole-model decode through the compiled step
# ----------------------------------------------------------------------
def _decode_model(d_state, make=QuantConfig.w4a4):
    config = Mamba2Config(d_model=32, n_layer=2, vocab_size=64, d_state=d_state, headdim=8)
    return quantize_model(
        Mamba2Model.from_config(config, InitConfig(seed=3)), make(QuantMethod.LIGHTMAMBA_STAR))


def _cache_bytes(cache):
    return [(layer.conv_state.tobytes(), layer.ssm_state.codes.tobytes(),
             layer.ssm_state.scales.tobytes()) for layer in cache.layers]


def _decode_record(model=None):
    """Greedy tokens; batched logits and the resident state after 6 steps
    from a fresh cache; the last logits and the cache after a 150-token
    prefill (two chunks of 64 and a ragged 22) and after a 3-row batched one."""
    model = _decode_model(24) if model is None else model
    result = greedy_decode(model, [5, 9, 2, 40, 7], 12)
    cache = model.new_cache(3)
    logits = [model.step(np.array([1, 2, 3]) + i, cache) for i in range(6)]
    record = [list(result.tokens), np.stack(logits).tobytes(), _cache_bytes(cache)]
    vocab = model.config.vocab_size
    for prompt in (np.arange(150) * 7 % vocab, np.arange(120).reshape(3, 40) * 5 % vocab):
        last, cache = model.prefill(prompt)
        record += [last.tobytes(), _cache_bytes(cache)]
    return record


@needs_kernel
@pytest.mark.parametrize("d_state", [24, 64])
def test_greedy_decode_compiled_equals_numpy(d_state):
    """Whole-model decode and prefill (:func:`_decode_record`) with the
    library and without it, where the oracle steps the resident state and the
    numpy quantizer runs every round trip; W4A4 quantizes activations on
    per-group grids, W8A8 per token.  ``d_state`` 64 runs the default 32-long
    groups the kernels specialize for, 24 a single short one."""
    for make in (QuantConfig.w4a4, QuantConfig.w8a8):
        model = _decode_model(d_state, make)
        assert _decode_record(model) == _on_numpy(_decode_record, model)


@needs_kernel
def test_default_model_step_calls_the_compiled_step(monkeypatch):
    """A default lightmamba* ``model.step`` goes through the compiled step
    entry -- once per layer per step, and the entry does the step (it neither
    declines nor hands the batch to the oracle)."""
    answers = []

    def spy(*args):
        answers.append(COMPILED.step(*args))
        return answers[-1]

    monkeypatch.setattr(native, "_load", lambda: (_with_step(spy), "compiled"))
    model = _decode_model(64)
    cache = model.new_cache(2)
    for token in range(3):
        model.step(np.array([token, token + 1]), cache)
    assert len(answers) == 3 * model.config.n_layer
    assert all(isinstance(answer, tuple) for answer in answers)


# ----------------------------------------------------------------------
# (a'') The step's range: grids past 2**1023 and scales off the grid
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def e2e_layer():
    """Layer 0 of a model at the e2e benchmark's dims and its resident state
    two decode steps from a fresh cache (some groups still all-zero, their
    grids at the ``2**-39`` floor, far below a large product's)."""
    config = Mamba2Config(d_model=256, n_layer=1, vocab_size=64, d_state=128, headdim=64)
    model = quantize_model(
        Mamba2Model.from_config(config, InitConfig(seed=0)),
        QuantConfig.w4a4(QuantMethod.LIGHTMAMBA_STAR),
    )
    cache = model.new_cache(2)
    for tokens in ([3, 9], [5, 2]):
        model.step(np.array(tokens), cache)
    block = model.blocks[0]
    rng = np.random.default_rng(5)
    operands = (rng.normal(size=(2, config.nheads, config.headdim)), rng.normal(size=(2, 128)),
                rng.normal(size=(2, 128)), rng.normal(size=(2, config.nheads)))
    return block.ssm_impl, block.ssm, operands, cache.layers[0].ssm_state


@pytest.mark.parametrize("executor", ["compiled", "numpy"])
@pytest.mark.parametrize(
    "scale,to_oracle",
    [
        ({"dt": 1e298}, True),                        # Delta near 1e298: Delta (.) B past the range
        ({"x": 1e150, "B": 1e150}, True),             # B_bar (.) x past the range
        ({"x": 1e100, "B": 1e100}, False),            # still in range: the integer path
        ({"x": 1e100, "C": 1e100}, False),
        ({"B": 1e100, "C": 1e100}, False),
        # One group scale of row 0 of the resident state: a subnormal power
        # of two is the oracle's, a finite scale off the power-of-two grid is
        # no resident state, a non-finite one poisons its row only.
        ({"scale_to": 2.0**-1040}, True),
        ({"scale_times": 1.5}, ValueError),
        ({"scale_times": 0.0}, ValueError),
        ({"scale_times": -1.0}, ValueError),
        ({"scale_times": np.inf}, True),
    ],
)
def test_grids_past_the_normal_range_go_to_the_oracle(monkeypatch, e2e_layer, executor,
                                                      scale, to_oracle):
    """Large finite operands: once a destination exponent would pass the
    range in which ``2**e`` is a normal double, the compiled step hands the
    batch to the oracle (the integer step used to return ``inf`` scales and
    a ``y`` of its own); up to there it stays on the integer path, and
    either way it equals the oracle -- which is all the numpy executor
    runs.  A state scale the kernel cannot read as a normal power of two
    goes the same way, except a finite one that is no positive power of two
    at all: ``ValueError`` on both executors."""
    step, params, (x, B, C, dt), state = e2e_layer
    if executor == "compiled" and COMPILED is None:
        pytest.skip(native.status())
    operands = {"x": x, "B": B, "C": C, "dt": dt}
    for name in scale.keys() & operands.keys():  # dt is set, the others scaled
        value = scale[name]
        operands[name] = np.full_like(dt, value) if name == "dt" else operands[name] * value
    if scale.keys() & {"scale_to", "scale_times"}:
        state = state.copy()
        first = state.scales[0, 0, 0, 0]
        first[...] = scale.get("scale_to", first * scale.get("scale_times", 1.0))
    operands["state"] = state
    oracle_calls, entry_answers = [], []
    oracle = QuantizedSSMStep._step_oracle

    def counting_oracle(self, *args):
        oracle_calls.append(1)
        return oracle(self, *args)

    def counting_entry(*args):
        entry_answers.append(COMPILED.step(*args))
        return entry_answers[-1]

    monkeypatch.setattr(QuantizedSSMStep, "_step_oracle", counting_oracle)
    if executor == "numpy":
        loaded = (None, "numpy: patched out by the test suite")
    else:
        loaded = (_with_step(counting_entry), "compiled")
    monkeypatch.setattr(native, "_load", lambda: loaded)
    args = tuple(operands[name] for name in ("x", "B", "C", "dt", "state"))
    if to_oracle is ValueError:
        with pytest.raises(ValueError, match="positive powers of two"):
            step._step_integer(params, *args)
        assert entry_answers == ([None] if executor == "compiled" else []) and not oracle_calls
        return
    y, new_state = step._step_integer(params, *args)
    if executor == "compiled":
        assert len(entry_answers) == 1
        assert isinstance(entry_answers[0], tuple) != to_oracle
        # A subnormal scale is outside the kernel's contract, the rest its guard's.
        assert not to_oracle or entry_answers[0] is (None if "scale_to" in scale else _ORACLE)
    assert len(oracle_calls) == int(to_oracle or executor == "numpy")
    with np.errstate(all="ignore"):
        y_oracle, state_oracle = oracle(step, params, *args)
    assert y.tobytes() == y_oracle.tobytes()
    assert new_state.scales.tobytes() == state_oracle.scales.tobytes()
    finite = np.repeat(np.isfinite(new_state.scales[..., 0]), state.group_size, axis=-1)
    np.testing.assert_array_equal(new_state.codes[finite], state_oracle.codes[finite])
    assert to_oracle or np.isfinite(new_state.scales).all()
    if scale.get("scale_times") == np.inf:  # the poison stays in its row
        assert not np.isfinite(new_state.scales[0]).all() and not np.isfinite(y[0]).all()
        assert np.isfinite(new_state.scales[1]).all() and np.isfinite(y[1]).all()


# ----------------------------------------------------------------------
# (b) The exponent derivation is ceil(log2(.)), not the binary exponent
# ----------------------------------------------------------------------
def _band_values(qmax):
    """``2.0**k``, ``qmax * 2.0**k`` and their 40 ``nextafter`` neighbours each
    way, k in [-60, 60], plus the floor's neighbourhood and a huge value."""
    values = []
    for k in range(-60, 61):
        for centre in (2.0**k, qmax * 2.0**k):
            up = down = centre
            values.append(centre)
            for _ in range(40):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
                values += [up, down]
    return np.array(values + [0.0, 1e-12, 5e-13, 1e300])


def _requant_exponents(absmax, bits):
    got = np.empty(absmax.size, dtype=np.int32)
    _library().ssmu_requant_exponents(absmax.ctypes.data, absmax.size, bits, got.ctypes.data)
    return got


@needs_kernel
@pytest.mark.parametrize("bits", [4, 8])
def test_requant_exponent_equals_numpy_derivation(bits):
    """float64 ``log2`` rounds to ``k`` for values a few ulps above ``2**k``,
    so the exact binary exponent is the wrong answer on part of the band
    set -- which the first assertion makes sure it contains.  The tile
    derives exponents a lane per channel, asking libm only where a lane sits
    in that band: each band value also runs alone among ordinary values at
    every lane position of a 67-lane row (eight full 8-lane vectors and a
    remainder)."""
    qmax = 2 ** (bits - 1) - 1
    absmax = _band_values(qmax)
    want = absmax_requant_exponents(absmax, bits)
    scales = np.maximum(np.maximum(absmax, 1e-12) / qmax, 1e-12)
    mantissa, binary = np.frexp(scales)
    assert np.any(np.where(mantissa == 0.5, binary - 1, binary) != want)
    np.testing.assert_array_equal(_requant_exponents(absmax, bits), want)
    ordinary = np.linspace(0.3, 900.0, 67)
    band = absmax[want != np.where(mantissa == 0.5, binary - 1, binary)]
    for position in range(67):
        row = ordinary.copy()
        row[position] = band[position % band.size]
        np.testing.assert_array_equal(_requant_exponents(row, bits),
                                      absmax_requant_exponents(row, bits))


# ----------------------------------------------------------------------
# (c) The readout is numpy's pairwise sum, within each lane
# ----------------------------------------------------------------------
@needs_kernel
@pytest.mark.parametrize("n", [1, 7, 8, 24, 128, 129, 136, 300, 1000])
def test_readout_sum_equals_numpy_sum(rng, n):
    """Decoded codes on group grids > 40 binades apart, where the order of a
    float64 sum shows, summed per lane as the tile sums a head's channels: n
    rows of 67 lanes (a remainder past eight full vectors), each lane against
    ``np.sum`` of its values as one contiguous run."""
    padded = -(-n // 32) * 32
    codes = rng.integers(-127, 128, size=(67, padded))
    exponents = np.repeat(rng.integers(-50, 51, size=(67, padded // 8)), 8, axis=-1)
    values = np.ldexp(codes.astype(np.float64), exponents)
    want = np.sum(values[:, :n], axis=-1)
    if n > 8:  # the set is one where the order matters: a running sum differs
        assert np.any(want != np.array([sum(row[:n]) for row in values]))
    rows = np.ascontiguousarray(values[:, :n].T)
    got = np.empty(67)
    assert _library().ssmu_pairwise_sum(rows.ctypes.data, n, 67, got.ctypes.data) == 0
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# (d) No compiler: the oracle, the same bytes, a status that says why
# ----------------------------------------------------------------------
def test_no_compiler_falls_back_to_the_oracle(monkeypatch, fresh_loader):
    selected = _decode_record()
    native._load.cache_clear()
    monkeypatch.setattr(native, "_find_compiler", lambda: None)
    assert native.kernel() is None
    assert native.status() == "numpy: no C compiler"
    assert _decode_record() == selected


def test_failed_build_reports_the_first_stderr_line(monkeypatch, fresh_loader, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_find_compiler", lambda: sys.executable)  # not a C compiler
    assert native.kernel() is None
    assert native.status().startswith("numpy: build failed: ")
    assert list((tmp_path / "repro-lightmamba").iterdir()) == []


# ----------------------------------------------------------------------
# (e) Concurrent first builds, (f) a cache somebody else can write
# ----------------------------------------------------------------------
@needs_kernel
def test_four_processes_build_one_library(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(REPO / "src"))
    script = "from repro.quant import native; print(native.status())"
    workers = [
        subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(4)
    ]
    for worker in workers:
        out, _ = worker.communicate(timeout=120)
        assert worker.returncode == 0 and out.strip() == "compiled"
    left = sorted(path.name for path in (tmp_path / "repro-lightmamba").iterdir())
    assert len(left) == 1 and left[0].endswith(".so")


@needs_kernel
def test_cache_directory_writable_by_others_is_refused(monkeypatch, fresh_loader, tmp_path):
    shared, fallback = tmp_path / "shared", tmp_path / "tmp"
    planted = shared / "repro-lightmamba" / native._library_name(native._find_compiler())
    planted.parent.mkdir(parents=True)
    planted.parent.chmod(0o770)
    planted.write_bytes(b"not the kernel")
    fallback.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(shared))
    monkeypatch.setattr(tempfile, "tempdir", str(fallback))
    chosen = native._cache_dir()
    assert chosen.parent == fallback and chosen.stat().st_mode & 0o777 == 0o700
    assert native.status() == "compiled"            # built and loaded from the private one
    assert planted.read_bytes() == b"not the kernel"
    assert [path.suffix for path in chosen.iterdir()] == [".so"]
    # With nowhere private left the step falls back rather than trust a shared directory.
    chosen.chmod(0o777)
    native._load.cache_clear()
    assert native.status().startswith("numpy: no private cache directory")


# ----------------------------------------------------------------------
# (g) INT16 codes never reach the kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bits,reaches", [(4, True), (8, True), (9, False), (16, False)])
def test_only_int8_codes_reach_the_kernel(monkeypatch, rng, bits, reaches):
    calls = []

    def spy(*operands):
        calls.append(operands[7].codes.dtype)                      # the resident state
        return COMPILED.step(*operands) if COMPILED is not None else None

    monkeypatch.setattr(native, "_load", lambda: (_with_step(spy), "compiled"))
    heads, dim, n = 2, 4, 24
    step = QuantizedSSMStep(SSMQuantConfig(bits=bits, group_size=8))
    params = SSMParams(
        A_log=np.log(rng.uniform(1, 8, size=heads)),
        D=rng.normal(1.0, 0.1, size=heads),
        dt_bias=rng.normal(size=heads),
    )
    state = step.quantize_state_codes(rng.normal(size=(2, heads, dim, n)))
    x, B, C = rng.normal(size=(2, heads, dim)), rng.normal(size=(2, n)), rng.normal(size=(2, n))
    dt = rng.normal(size=(2, heads))
    y, new_state = step(params, x, B, C, dt, state)
    y_oracle, state_oracle = step._step_oracle(params, x, B, C, dt, state)
    np.testing.assert_array_equal(y, y_oracle)
    assert new_state.exact_equal(state_oracle)
    assert calls == ([np.dtype(np.int8)] if reaches else [])


# ----------------------------------------------------------------------
# (h) The quantizer entry against the numpy quantizer
# ----------------------------------------------------------------------
def _quant_operand(rng, shape):
    """Values over 1e-300 .. 1e300 (a magnitude per row and per element),
    all-zero runs and signed zeros."""
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-292, 292, size=shape[:-1] + (1,))
    x *= 10.0 ** rng.uniform(-8, 8, size=shape)
    flat = x.reshape(-1)
    start = int(rng.integers(0, flat.size))
    flat[start:start + int(rng.integers(0, 40))] = 0.0
    flat[rng.random(flat.size) < 0.1] = -0.0
    return x


def _assert_quantizer_equals_numpy(x, config):
    """Fake-quant values out of place, (up to 8 bits) codes and scales, and
    last the values in place on ``x`` itself: the compiled entry takes every
    call it can write and returns numpy's bytes; an ``x`` that is not
    C-contiguous it declines in place, untouched, and the dispatch runs numpy."""
    want = _on_numpy(quantize_dequantize, x, config)
    out = np.empty(x.shape)
    assert COMPILED.quantize(x, config, out) is out
    assert out.tobytes() == want.tobytes()
    if config.spec.bits <= 8:
        reference = _on_numpy(quantize, x, config)
        codes, scales = COMPILED.quantize(x, config)
        assert codes.dtype == np.int8 and codes.shape == reference.codes.shape
        assert np.array_equal(codes, reference.codes)
        assert scales.shape == reference.scales.shape
        assert scales.tobytes() == reference.scales.tobytes()
    else:
        assert COMPILED.quantize(x, config) is None
    untouched = x.copy()
    if x.flags.c_contiguous:
        assert COMPILED.quantize(x, config, x) is x
    else:
        assert COMPILED.quantize(x, config, x) is None
        assert x.tobytes() == untouched.tobytes()
        assert _fake_quant_into(x, config, x) is x
    assert x.tobytes() == want.tobytes()


@needs_kernel
@given(
    seed=st.integers(0, 2**32 - 1),
    granularity=st.sampled_from(list(Granularity)),
    shape=st.sampled_from([(1,), (40,), (1, 40), (3, 40), (2, 3, 24), (5, 7), (4, 128),
                           (40, 128)]),
    group_size=st.sampled_from([1, 2, 3, 7, 16, 24, 32, 128]),
    bits=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 16]),
    clip_ratio=st.sampled_from([1.0, 0.9, 0.5]),
    pot_scale=st.booleans(),
    strided=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_compiled_quantizer_matches_numpy(seed, granularity, shape, group_size, bits, clip_ratio,
                                          pot_scale, strided):
    """Every granularity (per group with a ragged last group where the group
    length does not divide the row, per token / channel on 1-D and 2-D
    operands), 2- to 16-bit codes, clipping and ceil power-of-two scales, on
    contiguous and strided operands below and past 4 096 elements: the
    compiled quantizer's bytes are the numpy quantizer's -- the values, the
    codes, the scales and their shape -- and in place on a strided view the
    values between its elements stay as they were."""
    rng = np.random.default_rng(seed)
    config = QuantizerConfig(IntSpec(bits), granularity, group_size, clip_ratio, pot_scale)
    if not strided:
        _assert_quantizer_equals_numpy(_quant_operand(rng, shape), config)
        return
    wide = _quant_operand(rng, shape[:-1] + (2 * shape[-1],))
    between = wide[..., 1::2].copy()
    _assert_quantizer_equals_numpy(wide[..., ::2], config)
    assert wide[..., 1::2].tobytes() == between.tobytes()


@needs_kernel
def test_quantizer_declines_a_float32_x_as_its_own_out():
    """A float32 ``x`` that is also the ``out``: the entry declines before
    reading or writing it, and the dispatch gives numpy's bytes."""
    x = (np.random.default_rng(11).normal(size=(4, 64)) * 100).astype(np.float32)
    config = QuantizerConfig(IntSpec(4), Granularity.PER_GROUP, 32)
    untouched = x.copy()
    assert COMPILED.quantize(x, config, x) is None
    assert x.tobytes() == untouched.tobytes()
    want = untouched.copy()
    _on_numpy(_fake_quant_into, want, config, want)
    assert _fake_quant_into(x, config, x) is x
    assert x.tobytes() == want.tobytes()


@needs_kernel
def test_quantizer_all_zero_groups_sit_at_the_scale_floor():
    """An all-zero group (of +0.0 and -0.0) takes the ``1e-12`` floor and
    quantizes to +0.0, beside a live group whose small values round to +0.0,
    on both quantizers."""
    x = np.array([[0.0, -0.0, 0.0, -0.0, 3.0, -1e-5, 2e-9, -7.0]])
    for pot_scale in (False, True):
        config = QuantizerConfig(IntSpec(4), Granularity.PER_GROUP, 4, pot_scale=pot_scale)
        _assert_quantizer_equals_numpy(x.copy(), config)
        codes, scales = COMPILED.quantize(x, config)
        assert scales[0, 0, 0] == (2.0**-39 if pot_scale else 1e-12 / 7)
        got = quantize_dequantize(x, config)
        assert not np.signbit(got[got == 0.0]).any()


@needs_kernel
@pytest.mark.parametrize("case", ["nan", "inf", "pot_past_1023"])
def test_quantizer_declines_give_numpy_bytes(case):
    """What the entry declines -- a NaN or infinite group, a power-of-two
    scale past ``2**1023`` (2-bit codes: ``qmax`` 1) -- it hands back
    untouched, and the dispatch then gives numpy's bytes, in place too."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 48))  # whole groups: the fallback runs on x itself, no padded copy
    config = QuantizerConfig(IntSpec(2), Granularity.PER_GROUP, 16, pot_scale=True)
    x[1, 20] = {"nan": np.nan, "inf": -np.inf, "pot_past_1023": 1.5e308}[case]
    untouched = x.copy()
    assert COMPILED.quantize(x, config, x) is None and x.tobytes() == untouched.tobytes()
    assert COMPILED.quantize(x, config) is None
    with np.errstate(all="ignore"):
        want = _on_numpy(quantize_dequantize, x, config)
        assert quantize_dequantize(x, config).tobytes() == want.tobytes()
        _fake_quant_into(x, config, x)
        assert x.tobytes() == want.tobytes()
        reference, got = _on_numpy(quantize, untouched, config), quantize(untouched, config)
    assert got.codes.tobytes() == reference.codes.tobytes()
    assert got.scales.tobytes() == reference.scales.tobytes()
