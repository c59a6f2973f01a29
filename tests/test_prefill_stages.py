"""The compiled prefill stages against their numpy references, byte for byte.

``native.c``'s ``conv`` (the causal conv of prefill and of the decode step),
the quantizer's rows-where-they-lie and per-row-scalar pass (the chunk scan's
operand staging and its ``D (.) x`` / ``Delta (.) B`` products) and the chunk
scan's element-wise stages (``scan_decay`` / ``scan_gate`` / ``scan_out`` /
``scan_handoff``) each have one numpy reference with their signature; here
hypothesis draws shapes, lengths, layouts and non-finite operands and
compares bytes -- NaN payloads and signs included.  The library is the one
loaded at collection, so the comparisons run under ``--no-kernel`` too; they
are skipped, with the reason, where no library loads.  The end of the file
pins the zero resident state and the decode tap order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mamba import CausalConv1d, Mamba2Config
from repro.mamba.conv1d import _conv_reference
from repro.mamba.ops import TILE_ELEMS
from repro.mamba.ssm import SSMParams
from repro.quant import QuantizedSSMStep, SSMQuantConfig, native
from repro.quant.dtypes import Granularity, IntSpec
from repro.quant.native import _same_bytes
from repro.quant.quantizer import QuantizerConfig, _quantize_numpy
from repro.quant.ssm_quant import _SCAN_STAGES

#: The library as loaded at collection, before any test patches the loader.
COMPILED = native.kernel()
needs_kernel = pytest.mark.skipif(COMPILED is None,
                                  reason=f"no compiled library: {native.status()}")


def _poison(rng, a: np.ndarray, kind: str, count: int = 3) -> None:
    """Write ``count`` values of ``kind`` at random places of ``a``."""
    if kind == "none" or not a.size:
        return
    for _ in range(count):
        index = tuple(int(rng.integers(n)) for n in a.shape)
        if kind == "nan":  # a random payload and sign
            bits = np.uint64(0x7FF8000000000000 | int(rng.integers(1 << 51)))
            bits |= np.uint64(1 << 63) * np.uint64(rng.integers(2))
            value = float(np.array(bits).view(np.float64))
        elif kind == "inf":
            value = float(rng.choice([np.inf, -np.inf]))
        else:  # subnormals and signed zeros
            value = float(rng.choice([5e-324, -5e-324, 2.2e-310, -0.0, 0.0]))
        a[index] = value


_KINDS = st.sampled_from(["none", "nan", "inf", "subnormal"])


# ----------------------------------------------------------------------
# conv: prefill and decode
# ----------------------------------------------------------------------
@needs_kernel
@settings(max_examples=150, deadline=None)
@given(
    k=st.sampled_from([1, 3, 4]),
    lead=st.sampled_from([(), (1,), (3,)]),
    channels=st.sampled_from([5, 24, 768]),
    seq_len=st.integers(1, 100),
    warm=st.booleans(),
    activation=st.booleans(),
    strided=st.booleans(),
    kind=_KINDS,
    where=st.sampled_from(["x", "window", "weight", "bias"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=4, lead=(3,), channels=768, seq_len=TILE_ELEMS // 768 + 3, warm=True,
         activation=True, strided=True, kind="nan", where="x", seed=0)  # past one tile
@example(k=4, lead=(), channels=24, seq_len=2, warm=True, activation=True, strided=False,
         kind="inf", where="window", seed=1)  # shorter than the kernel's reach
def test_conv_entry_is_its_reference(k, lead, channels, seq_len, warm, activation, strided, kind,
                                     where, seed):
    rng = np.random.default_rng(seed)
    weight, bias = rng.normal(size=(channels, k)), rng.normal(size=channels)
    wide = rng.normal(size=lead + (seq_len, channels + 9))
    x = wide[..., 4 : 4 + channels] if strided else np.ascontiguousarray(wide[..., :channels])
    window = rng.normal(size=lead + (channels, k))
    x_t = np.ascontiguousarray(x[..., 0, :])
    target = {"x": x, "window": window, "weight": weight, "bias": bias}[where]
    _poison(rng, target, kind)
    _poison(rng, x_t, kind if where == "x" else "none")
    for values, held, step in ((x, window if warm else None, False), (x_t, window, True)):
        got = COMPILED.conv(values, held, weight, bias, activation, step)
        want = _conv_reference(values, held, weight, bias, activation, step)
        assert _same_bytes(got if step else (got,), want if step else (want,))


def test_conv_step_sums_the_taps_lane_paired(rng):
    """The decode order, written in code: ``(w0 s0 + w2 s2) + (w1 s1 + w3 s3)``, then the bias."""
    weight, bias = rng.normal(size=(6, 4)), rng.normal(size=6)
    conv = CausalConv1d(weight, bias, activation=False)
    window = rng.normal(size=(6, 4)) * 10.0 ** rng.integers(-8, 9, size=(6, 4))
    x_t = rng.normal(size=6)
    out, new = conv.step(x_t, window)
    assert np.array_equal(new, np.concatenate([window[:, 1:], x_t[:, None]], axis=1))
    for c in range(6):
        s, w = new[c].tolist(), weight[c].tolist()
        assert out[c] == ((w[0] * s[0] + w[2] * s[2]) + (w[1] * s[1] + w[3] * s[3])) + bias[c]


# ----------------------------------------------------------------------
# The quantizer: rows where they lie, a per-row scalar
# ----------------------------------------------------------------------
@needs_kernel
@settings(max_examples=150, deadline=None)
@given(
    q_len=st.integers(1, 64),
    lead=st.sampled_from([(), (3,)]),
    heads=st.integers(1, 4),
    width=st.sampled_from([16, 40, 64, 128]),
    group=st.sampled_from([8, 12, 32]),
    bits=st.sampled_from([4, 8]),
    pot=st.booleans(),
    case=st.sampled_from(["staged", "skip", "delta_b"]),
    kind=_KINDS,
    seed=st.integers(0, 2**32 - 1),
)
def test_quantize_rows_and_scalars_are_the_reference(q_len, lead, heads, width, group, bits, pot,
                                                      case, kind, seed):
    rng = np.random.default_rng(seed)
    config = QuantizerConfig(IntSpec(bits), Granularity.PER_GROUP, group, 1.0, pot)
    tokens = rng.normal(size=lead + (q_len + 5, heads, width + 3)) * 10.0 ** rng.integers(-4, 5)
    _poison(rng, tokens, kind, count=1)
    scalar = None
    if case == "staged":  # the chunk window of the token-major projection output, head-major
        values = np.moveaxis(tokens[..., 2 : 2 + q_len, :, :width], -3, -2)
        shape = values.shape
    elif case == "skip":  # D (.) x: a scalar per head
        values = np.ascontiguousarray(np.moveaxis(tokens[..., :q_len, :, :width], -3, -2))
        scalar, shape = rng.normal(size=(heads, 1)), values.shape
    else:  # Delta (.) B: B broadcast over the heads, a scalar per head and token
        values = tokens[..., None, :q_len, 0, :width]
        scalar = np.abs(rng.normal(size=lead + (heads, q_len + 4)))[..., 3 : 3 + q_len]
        shape = lead + (heads, q_len, width)
    got, want = np.empty(shape), np.empty(shape)
    if COMPILED.quantize(values, config, got, scalar) is None:  # declined: numpy runs it
        assert not np.isfinite(tokens).all()
        return
    _quantize_numpy(values, config, want, scalar)
    assert _same_bytes((got,), (want,))


# ----------------------------------------------------------------------
# The chunk scan's element-wise stages
# ----------------------------------------------------------------------
@needs_kernel
@settings(max_examples=100, deadline=None)
@given(
    q_len=st.integers(1, 64),
    lead=st.sampled_from([(), (3,)]),
    heads=st.integers(1, 3),
    dim=st.sampled_from([1, 4, 16]),
    n=st.sampled_from([2, 8]),
    poisoned=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_stages_are_their_references(q_len, lead, heads, dim, n, poisoned, seed):
    rng = np.random.default_rng(seed)
    per_head = lead + (heads, q_len)
    lc = np.cumsum(-np.abs(rng.normal(size=per_head)) * rng.integers(0, 2, size=per_head), axis=-1)
    outputs = []
    for stages in (COMPILED.scan, _SCAN_STAGES):
        decay = np.empty(per_head + (q_len,))
        stages.decay(lc, decay)
        gate = np.random.default_rng(seed + 1).normal(size=per_head + (q_len,))
        stages.gate(gate, np.exp(decay))
        r = np.random.default_rng(seed + 2)
        skip, out, xq = (r.normal(size=per_head + (dim,)) for _ in range(3))
        state = r.normal(size=lead + (heads, dim, n))
        if poisoned:  # a poisoned state, and the readout it gives
            state[(0,) * len(lead) + (heads - 1, dim - 1, n - 1)] = np.nan
        readout = state @ r.normal(size=lead + (1, n, q_len))
        exp_l, carry = np.exp(r.normal(size=per_head)), np.exp(r.normal(size=per_head))
        y = np.full(lead + (q_len + 2, heads, dim), -1.0)
        work = np.empty(per_head + (dim,))
        stages.out(skip, out, exp_l, readout, carry, xq, y[..., 1 : 1 + q_len, :, :], work)
        handoff = r.normal(size=state.shape)
        stages.handoff(state, np.exp(r.normal(size=lead + (heads,))), handoff)
        outputs.append((decay, gate, y, work, handoff))
    assert _same_bytes(*outputs)


@needs_kernel
@settings(max_examples=40, deadline=None)
@given(
    seq_len=st.integers(1, 140),
    chunk=st.sampled_from([7, 64]),
    batch=st.sampled_from([(), (3,)]),
    resident=st.booleans(),
    poisoned=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefill_scan_compiled_is_the_numpy_scan(seq_len, chunk, batch, resident, poisoned, seed):
    """The whole chunked scan, compiled stages against the references, from a
    poisoned float state too (it poisons its groups, and the rows' output)."""
    rng = np.random.default_rng(seed)
    h, p, n = 3, 16, 32
    scan = QuantizedSSMStep(SSMQuantConfig(group_size=16))
    params = SSMParams(A_log=np.log(rng.uniform(1, 8, size=h)), D=rng.normal(1.0, 0.1, size=h),
                       dt_bias=rng.normal(size=h))
    wide = rng.normal(size=batch + (seq_len, h * p + 2 * n + h))
    x = wide[..., : h * p].reshape(batch + (seq_len, h, p))
    B, C, dt = wide[..., h * p : h * p + n], wide[..., h * p + n : h * p + 2 * n], wide[..., -h:]
    state = rng.normal(size=batch + (h, p, n))
    if poisoned:
        state[(0,) * len(batch) + (1, 2, 3)] = np.nan
    runs = []
    for load in (lambda: (COMPILED, "compiled"), lambda: (None, "numpy: references")):
        with pytest.MonkeyPatch.context() as patch, np.errstate(invalid="ignore"):
            patch.setattr(native, "_load", load)
            entry = scan.quantize_state_codes(state) if resident else state
            y, final = scan.prefill_scan(params, x, B, C, dt, entry, chunk)
        runs.append((y, *(final.storage if resident else (final,))))
    assert _same_bytes(*runs)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
@pytest.mark.parametrize("resident", [False, True], ids=["float", "resident"])
def test_a_nan_token_poisons_only_itself_and_later_tokens(compiled, resident):
    """One NaN in token 7's ``B`` gives NaN output rows 7-9 of a 10-token
    prompt, on the chunked scan as on the sequential one: the causal gate
    keeps it out of the earlier tokens of its chunk."""
    if compiled and COMPILED is None:
        pytest.skip(f"no compiled library: {native.status()}")
    rng = np.random.default_rng(0)
    h, p, n, seq_len = 3, 16, 32, 10
    scan = QuantizedSSMStep(SSMQuantConfig(group_size=16))
    params = SSMParams(A_log=np.log(rng.uniform(1, 8, size=h)), D=rng.normal(1.0, 0.1, size=h),
                       dt_bias=rng.normal(size=h))
    x = rng.normal(size=(seq_len, h, p))
    B, C = rng.normal(size=(2, seq_len, n))
    dt = rng.normal(size=(seq_len, h))
    B[7, 0] = np.nan
    load = (lambda: (COMPILED, "compiled")) if compiled else (lambda: (None, "numpy: references"))
    with pytest.MonkeyPatch.context() as patch, np.errstate(invalid="ignore"):
        patch.setattr(native, "_load", load)
        for chunk in (64, 1):
            state = np.zeros((h, p, n))
            entry = scan.quantize_state_codes(state) if resident else state
            y, _ = scan.prefill_scan(params, x, B, C, dt, entry, chunk)
            assert np.flatnonzero(np.isnan(y).any(axis=(1, 2))).tolist() == [7, 8, 9], chunk


# ----------------------------------------------------------------------
# The zero resident state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("group", [16, 32])
@pytest.mark.parametrize("batch", [None, 1, 8])
def test_zeros_cache_is_the_quantized_zero_state(bits, group, batch):
    config = Mamba2Config(name="zeros", d_model=64, n_layer=1, vocab_size=32, d_state=40,
                          headdim=16)
    step = QuantizedSSMStep(SSMQuantConfig(bits=bits, group_size=group))
    cache = step.zeros_cache(config, batch)
    lead = () if batch is None else (batch,)
    want = step.quantize_state_codes(np.zeros(lead + (config.nheads, config.headdim, 40)))
    got = cache.ssm_state
    assert [(a.dtype, a.shape, a.flags.c_contiguous) for a in got.storage] == [
        (a.dtype, a.shape, True) for a in want.storage]
    assert _same_bytes(got.storage, want.storage)
    assert got.layout == want.layout
    assert np.array_equal(cache.conv_state, np.zeros(lead + (config.conv_dim, config.d_conv)))
