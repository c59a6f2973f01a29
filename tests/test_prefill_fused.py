"""Tests of the tiled, fused quantized prefill datapath.

Every kernel of the prefill path was rebuilt to run as one fused pass over a
cache-resident token tile; all of them are required to be **bit-identical**
to the bodies they replaced.  This file keeps those replaced bodies as
oracles -- the two-line ``dequantize(quantize(x))`` composition, the
row-major FWHT butterfly, the sliding-window einsum convolution and a
verbatim copy of the whole-sequence ``prefill_scan`` -- and compares bytes.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mamba import CausalConv1d, GatedRMSNorm, InitConfig, Mamba2Config, Mamba2Model, RMSNorm
from repro.mamba.cache import QuantizedSSMState
from repro.mamba.ops import TILE_ELEMS, rms_normalize, silu, softplus
from repro.mamba.ssm import SSMParams, ssm_scan
from repro.quant import (
    INT4,
    INT8,
    Granularity,
    QuantConfig,
    QuantMethod,
    QuantizedChunkedScan,
    QuantizerConfig,
    SSMQuantConfig,
    dequantize,
    fast_hadamard_transform,
    quantize,
    quantize_dequantize,
    quantize_model,
)
from repro.quant.hadamard import sylvester


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _composed(config, x):
    """The oracle: the round trip as the composition it is defined as."""
    return dequantize(quantize(x, config))


# ----------------------------------------------------------------------
# Fused fake-quant == dequantize(quantize(x)), bit for bit
# ----------------------------------------------------------------------
_configs = st.builds(
    QuantizerConfig,
    spec=st.sampled_from([INT4, INT8]),
    granularity=st.sampled_from(list(Granularity)),
    group_size=st.sampled_from([8, 32, 128]),
    clip_ratio=st.sampled_from([1.0, 0.9, 0.5]),
    pot_scale=st.booleans(),
    pot_rounding=st.sampled_from(["ceil", "nearest"]),
)
_shapes = st.one_of(
    st.tuples(st.integers(1, 300)),
    st.tuples(st.integers(1, 40), st.sampled_from([1, 7, 8, 24, 32, 100, 128, 160, 256])),
    st.tuples(st.integers(1, 6), st.integers(1, 9), st.sampled_from([5, 32, 64, 129])),
)


def _draw_tensor(seed: int, shape, magnitude: float, zero_front: bool) -> np.ndarray:
    x = np.random.default_rng(seed).standard_normal(shape) * magnitude
    if zero_front:
        x[..., : max(1, shape[-1] // 2)] = 0.0  # whole groups of zeros (the _EPS floor)
    return x


@settings(max_examples=300, deadline=None)
@given(
    config=_configs,
    shape=_shapes,
    seed=st.integers(0, 2**31 - 1),
    magnitude=st.sampled_from([1e-9, 1e-3, 1.0, 37.5, 1e6]),
    zero_front=st.booleans(),
)
def test_fused_fake_quant_is_the_composition(config, shape, seed, magnitude, zero_front):
    x = _draw_tensor(seed, shape, magnitude, zero_front)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fused = quantize_dequantize(x, config)
    assert _same_bytes(fused, _composed(config, x))


@settings(max_examples=150, deadline=None)
@given(
    config=_configs,
    shape=_shapes,
    seed=st.integers(0, 2**31 - 1),
    poison=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_fused_fake_quant_non_finite_inputs(config, shape, seed, poison):
    """A non-finite value poisons its quantization group, like the composition, silently.

    NaN reproduces the composition's NaN pattern exactly.  An infinity makes
    the composition cast NaN to an integer (undefined; it also warns), so
    there only the finite part and the poisoned positions are compared.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    x.flat[rng.integers(x.size)] = poison
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fused = quantize_dequantize(x, config)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore")
        composed = _composed(config, x)
    finite = np.isfinite(composed)
    assert np.array_equal(np.isfinite(fused), finite)
    assert _same_bytes(fused[finite], composed[finite])
    if np.isnan(poison):
        assert np.array_equal(np.isnan(fused), np.isnan(composed))


def test_fused_fake_quant_tiles_do_not_change_values(rng):
    """A prompt-sized input walks several tiles; a strided view is read in place."""
    config = SSMQuantConfig().config()
    rows = 3 * TILE_ELEMS // 256 + 5
    wide = rng.standard_normal((rows, 300))
    view = wide[:, 17:273]  # row-strided, like the block's xBC split
    assert _same_bytes(quantize_dequantize(view, config), _composed(config, view))
    heads = rng.standard_normal((600, 8, 128))
    assert _same_bytes(quantize_dequantize(heads, config), _composed(config, heads))


@pytest.mark.parametrize("granularity", list(Granularity))
@pytest.mark.parametrize("shape", [(0, 128), (4, 0), (0,), (2, 0, 8), (0, 0)])
def test_degenerate_inputs_give_empty_results(granularity, shape):
    config = QuantizerConfig(spec=INT4, granularity=granularity, group_size=128, pot_scale=True)
    x = np.zeros(shape)
    qt = quantize(x, config)
    assert qt.codes.shape == shape and qt.codes.dtype == np.int32
    assert dequantize(qt).shape == shape
    assert quantize_dequantize(x, config).shape == shape


# ----------------------------------------------------------------------
# Delta (.) B: the separable grid is the product's own grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("group,d_state", [(8, 16), (32, 128), (32, 40), (128, 64)])
@pytest.mark.parametrize("pot", [True, False])
def test_delta_b_separable_grid_matches_requantized_product(rng, bits, group, d_state, pot):
    scan = QuantizedChunkedScan(SSMQuantConfig(bits=bits, group_size=group, pot_scale=pot))
    config = scan.config.config()
    lead, heads, q_len = (2,), 3, 11
    delta = softplus(rng.normal(size=lead + (heads, q_len)) * 4.0)
    delta[0, 0, 0] = 0.0  # softplus underflows to exactly zero for very negative dt
    b = rng.normal(size=lead + (q_len, d_state))
    b[0, 3] = 0.0  # all-zero groups
    bq = quantize_dequantize(b, config)
    out = np.empty(lead + (heads, q_len, d_state))
    scan._stage_delta_b(delta, bq, out)
    product = delta[..., None] * bq[..., None, :, :]
    assert _same_bytes(out, _composed(config, product))


# ----------------------------------------------------------------------
# FWHT: same butterflies, same bits
# ----------------------------------------------------------------------
def _row_major_fwht(x: np.ndarray, normalized: bool = True) -> np.ndarray:
    """The replaced implementation: in-place butterflies along the last axis."""
    x = np.array(x, dtype=np.float64, copy=True)
    n = x.shape[-1]
    span = 1
    while span < n:
        shaped = x.reshape(*x.shape[:-1], n // (2 * span), 2, span)
        upper = shaped[..., 0, :] + shaped[..., 1, :]
        lower = shaped[..., 0, :] - shaped[..., 1, :]
        shaped[..., 0, :] = upper
        shaped[..., 1, :] = lower
        x = shaped.reshape(*x.shape[:-1], n)
        span *= 2
    if normalized:
        x /= np.sqrt(n)
    return x


@pytest.mark.parametrize("n", [1, 2, 64, 512])
@pytest.mark.parametrize("rows", [(1,), (8,), (513,), (3, 5)])
@pytest.mark.parametrize("normalized", [True, False])
def test_fwht_matches_the_row_major_butterfly_and_the_matrix(rng, n, rows, normalized):
    x = rng.standard_normal(rows + (n,))
    out = fast_hadamard_transform(x, normalized=normalized)
    assert _same_bytes(out, _row_major_fwht(x, normalized))
    dense = x @ sylvester(n)
    if normalized:
        dense = dense / np.sqrt(n)
    np.testing.assert_allclose(out, dense, rtol=0, atol=1e-12 * max(1.0, np.abs(dense).max()))


def test_fwht_reads_strided_input_and_leaves_it_untouched(rng):
    x = np.swapaxes(rng.standard_normal((2, 128, 40)), -1, -2)  # apply_hadamard's layout
    before = x.copy()
    assert _same_bytes(fast_hadamard_transform(x), _row_major_fwht(x))
    assert np.array_equal(x, before)
    assert fast_hadamard_transform(np.zeros((0, 8))).shape == (0, 8)


# ----------------------------------------------------------------------
# Conv: tap passes over token tiles == the sliding-window einsum
# ----------------------------------------------------------------------
def _einsum_conv(conv: CausalConv1d, x: np.ndarray, initial_state=None) -> np.ndarray:
    """The replaced implementation: padded copy, window view, one einsum."""
    k = conv.kernel_size
    if initial_state is None:
        pad = np.zeros(x.shape[:-2] + (k - 1, conv.channels))
    else:
        pad = np.swapaxes(initial_state[..., 1:], -1, -2)
    # ascontiguousarray: with a single row the concatenation of a transposed
    # window comes out Fortran-ordered and einsum then sums the taps lane-paired.
    padded = np.ascontiguousarray(np.concatenate([pad, x], axis=-2))
    windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=-2)
    out = np.einsum("...tck,ck->...tc", windows, conv.weight) + conv.bias
    return silu(out) if conv.activation else out


@pytest.mark.parametrize("channels,k", [(768, 4), (24, 4), (7, 1), (16, 3)])
@pytest.mark.parametrize("activation", [True, False])
def test_conv_tiles_match_the_window_einsum(rng, channels, k, activation):
    weight, bias = rng.standard_normal((channels, k)), rng.standard_normal(channels)
    conv = CausalConv1d(weight, bias, activation)
    tile_rows = max(1, TILE_ELEMS // channels)
    lengths = (1, 2, 3, tile_rows, tile_rows + 1, 2 * tile_rows + 7)
    # A wide batch shrinks the tile below the kernel's reach (one or two tokens).
    wide = TILE_ELEMS // channels // 2 + 1
    cases = [((), n) for n in lengths] + [((3,), n) for n in lengths]
    cases += [((wide,), n) for n in (1, 2, 3, 9)]
    for lead, seq_len in cases:
        padded = rng.standard_normal(lead + (seq_len, channels + 9))
        x = padded[..., 4 : 4 + channels]  # strided, like the block's xBC split
        state = rng.standard_normal(lead + (channels, k))
        assert _same_bytes(conv.forward(x), _einsum_conv(conv, x))
        assert _same_bytes(conv.forward(x, state), _einsum_conv(conv, x, state))


def test_conv_any_segmentation_is_exact(rng):
    """Tap order does not depend on where a segment starts, so every split is bit-exact."""
    conv = CausalConv1d(rng.standard_normal((12, 4)), rng.standard_normal(12))
    x = rng.standard_normal((2, 50, 12))
    state = rng.standard_normal((2, 12, 4))
    whole = conv.forward(x, state)
    for cut in (1, 2, 3, 4, 25, 49):
        head = conv.forward(x[:, :cut], state)
        joined = np.concatenate([np.swapaxes(state, -1, -2), x[:, :cut]], axis=-2)[:, -4:]
        tail = conv.forward(x[:, cut:], np.swapaxes(joined, -1, -2))
        assert _same_bytes(np.concatenate([head, tail], axis=-2), whole)


# ----------------------------------------------------------------------
# Norms with out=: same bits, in place or not
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rows", [(), (1,), (8,), (2 * TILE_ELEMS // 512 + 3,), (3, 70)])
def test_norms_tile_and_write_in_place_bit_identically(rng, rows):
    dim = 512
    weight = rng.standard_normal(dim)
    x = rng.standard_normal(rows + (dim,))
    z = rng.standard_normal(rows + (dim + 30,))[..., 11 : 11 + dim]
    gated_ref = rms_normalize(x * silu(z)) * weight
    plain_ref = rms_normalize(x) * weight
    assert _same_bytes(GatedRMSNorm(weight)(x, z), gated_ref)
    assert _same_bytes(RMSNorm(weight)(x), plain_ref)
    buf = x.copy()
    assert GatedRMSNorm(weight)(buf, z, out=buf) is buf and _same_bytes(buf, gated_ref)
    with pytest.raises(ValueError):
        GatedRMSNorm(weight)(x, z, out=np.empty(rows + (dim + 1,)))


# ----------------------------------------------------------------------
# The conv window roll reads the tail of the segment directly
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def star_model():
    config = Mamba2Config(
        name="fused-test", d_model=64, n_layer=2, vocab_size=96, d_state=32, headdim=16
    )
    fp = Mamba2Model.from_config(config, InitConfig(seed=3))
    return quantize_model(fp, QuantConfig.w4a4(QuantMethod.LIGHTMAMBA_STAR))


@pytest.mark.parametrize("seq_len", [1, 2, 3, 4, 9])
def test_short_segments_roll_the_conv_window(star_model, rng, seq_len):
    """``T < k`` keeps the surviving part of the old window."""
    block = star_model.blocks[0]
    k = block.config.d_conv
    warm = star_model.new_cache(batch_size=3).layers[0]
    warm.conv_state = rng.standard_normal(warm.conv_state.shape)
    u = rng.standard_normal((3, seq_len, block.config.d_model))
    collected = {}
    block.forward(u, collect=collected)  # the block's own in-projection split
    zxbcdt = block.in_proj(block.norm(u))
    xbc = zxbcdt[..., block.config.d_inner : block.config.d_inner + block.config.conv_dim]
    cache = warm.copy()
    block.forward(u, cache=cache)
    joined = np.concatenate([np.swapaxes(warm.conv_state, -1, -2), xbc], axis=-2)
    for row in range(3):
        assert np.array_equal(cache.conv_state[row], joined[row, seq_len:].T)
    assert cache.conv_state.flags.c_contiguous


# ----------------------------------------------------------------------
# prefill_scan == the replaced whole-sequence body
# ----------------------------------------------------------------------
def _composed_operand(scan, x):
    return _composed(scan._qcfg, x)


def _composed_product(scan, x):
    return _composed(scan._qcfg, x) if scan.config.quantize_products else x


def _reference_prefill_scan(
    scan, params, x, B, C, dt, initial_state=None, chunk_size=64
):
    """The replaced ``QuantizedChunkedScan.prefill_scan`` body, verbatim.

    Whole-sequence operand staging, token-major chunk body with ``moveaxis``
    views, codes materialized at every quantization point.  Only the
    bindings changed: ``self`` is ``scan`` and the ``_q`` / ``_qp`` helpers
    are the ``dequantize(quantize(x))`` composition they used to be.  (The
    INT32 MMU branches and the padded-ragged-batch snapshots the body once
    carried went with the modes they served.)
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    resident = isinstance(initial_state, QuantizedSSMState)
    x = np.asarray(x, dtype=np.float64)  # quant-point: float entry staging
    B = np.asarray(B, dtype=np.float64)  # quant-point: float entry staging
    C = np.asarray(C, dtype=np.float64)  # quant-point: float entry staging
    dt = np.asarray(dt, dtype=np.float64)  # quant-point: float entry staging
    if x.ndim not in (3, 4):
        raise ValueError(
            "x must have shape (seq_len, nheads, headdim) or "
            "(batch, seq_len, nheads, headdim)"
        )
    batched = x.ndim == 4
    seq_len, nheads, headdim = x.shape[-3:]
    d_state = B.shape[-1]
    if nheads != params.nheads:
        raise ValueError("head count mismatch between x and params")
    lead = x.shape[:1] if batched else ()
    state_shape = lead + (nheads, headdim, d_state)
    if initial_state is None:
        state = np.zeros(state_shape, dtype=np.float64)  # quant-point: zero state
    else:
        if resident:
            state = initial_state.dequantize()  # quant-point: resident entry
        else:
            # quant-point: float entry copy
            state = np.array(initial_state, dtype=np.float64, copy=True)
        if state.shape != state_shape:
            raise ValueError(
                f"initial_state must have shape {state_shape}, got {state.shape}"
            )

    if chunk_size == 1:
        # The per-token loop: ssm_scan driving this object's own step, so
        # the chunk_size=1 reduction to the sequential quantized oracle
        # is bit-identical by construction (shared step code, shared
        # token loop).  The token loop runs on the float view; a resident
        # caller gets the final state re-quantized back into codes (exact
        # -- the state is on-grid).
        y, final = ssm_scan(params, x, B, C, dt, initial_state=state, step_fn=scan)
        if resident:
            final = scan.quantize_state_codes(final)
        return y, final

    A, d_col = params.A, params.D[:, None]
    quantize_state = scan.config.quantize_state

    # Operand quantization at the SSMU interfaces.  Per-group grids are
    # computed along the trailing axis only, so quantizing the whole
    # sequence at once is bit-identical to the step's per-token _q.
    qx = _composed_operand(scan, x)  # quant-point: x chunk quantization
    qB = _composed_operand(scan, B)  # quant-point: B chunk quantization
    qC = _composed_operand(scan, C)  # quant-point: C chunk quantization
    delta = softplus(dt + params.dt_bias)               # (..., T, h)
    log_decay = delta * A                               # (..., T, h), negative
    # Delta (.) B, re-quantized exactly as the step's delta_mul_b.
    # quant-point: Delta (.) B requant (..., T, h, n)
    qdB = _composed_product(scan, delta[..., None] * qB[..., None, :])
    # D (.) x skip path, re-quantized exactly as the step's x_mul_d.
    y = _composed_product(scan, d_col * qx)  # quant-point: x (.) D skip

    state_qt = None
    if quantize_state and not resident:
        # (Resident codes are the chunk-entry quantization already.)
        state_qt = quantize(state, scan._qcfg)  # quant-point: chunk-entry quantization
        state = dequantize(state_qt)  # quant-point: chunk-entry float view

    # The loop below deliberately mirrors (rather than shares) the chunk
    # body of ssd_chunked_scan: the FP scan contracts one head-independent
    # C B^T matrix per chunk, a factorization that quantization breaks --
    # folding Delta and the requant into qdB gives B a head axis, so every
    # contraction here is per-head.  Keep the two bodies in sync when
    # touching either.
    chunk = min(chunk_size, seq_len)
    # quant-point: the causal mask is a float constant, not a tensor operand
    causal_full = np.tril(np.ones((chunk, chunk), dtype=np.float64))
    for start in range(0, seq_len, chunk):
        stop = min(start + chunk, seq_len)
        q_len = stop - start
        xc = qx[..., start:stop, :, :]                  # (..., Q, h, p)
        bc = qdB[..., start:stop, :, :]                 # (..., Q, h, n)
        cc = qC[..., start:stop, :]                     # (..., Q, n)
        lc = np.cumsum(log_decay[..., start:stop, :], axis=-2)  # (..., Q, h)

        # Dense decay-weighted interaction on the quantized operands:
        #   G[t, s, head] = exp(L_t - L_s) * (qC_t . qdB_s[head]), s <= t.
        # The d_state contraction runs on the MMU-style wide accumulator
        # (the float64 matmul below).  L is decreasing so causal entries
        # have diff <= 0, and clamping keeps the masked upper triangle finite.
        bh = np.moveaxis(bc, -2, -3)                    # (..., h, Q, n)
        cb = np.moveaxis(
            cc[..., None, :, :] @ np.swapaxes(bh, -1, -2), -3, -1
        )                                               # (..., Q, Q, h)
        causal = causal_full if q_len == chunk else causal_full[:q_len, :q_len]
        diff = lc[..., :, None, :] - lc[..., None, :, :]
        gate = cb * np.exp(np.minimum(diff, 0.0)) * causal[..., :, :, None]
        yc = np.moveaxis(
            np.moveaxis(gate, -1, -3) @ np.moveaxis(xc, -2, -3), -3, -2
        )                                               # (..., Q, h, p)
        # Carried-in state readout (h_in . C per head, decayed to t).
        readout = state @ np.swapaxes(cc, -1, -2)[..., None, :, :]  # (..., h, p, Q)
        yc += np.exp(lc)[..., None] * np.moveaxis(readout, -1, -3)
        y[..., start:stop, :, :] += yc

        # Chunk hand-off, then the chunk-boundary state quantization (kept
        # as codes when the next chunk's readout or the caller needs them).
        last = lc[..., -1, :]                           # (..., h)
        carry = np.exp(last[..., None, :] - lc)         # (..., Q, h)
        wx = np.moveaxis(carry[..., None] * xc, -3, -1)  # (..., h, p, Q)
        state = np.exp(last)[..., :, None, None] * state + wx @ bh
        if quantize_state:
            state_qt = quantize(state, scan._qcfg)  # quant-point: chunk boundary
            state = dequantize(state_qt)  # quant-point: boundary float view

    if resident:
        if not quantize_state:
            # Degenerate configuration (resident container handed to a
            # scan that does not quantize hand-offs): quantize once here.
            return y, scan.quantize_state_codes(state)
        return y, QuantizedSSMState(
            codes=state_qt.codes,
            scales=state_qt.scales,
            group_size=scan.config.group_size,
            bits=scan.config.bits,
        )
    return y, state


def _scan_inputs(rng, seq_len, lead=(), h=4, p=16, n=32):
    params = SSMParams(
        A_log=np.log(rng.uniform(1, 8, size=h)),
        D=rng.normal(1.0, 0.1, size=h),
        dt_bias=rng.normal(size=h),
    )
    wide = rng.normal(size=lead + (seq_len, h * p + 2 * n + h))
    x = wide[..., : h * p].reshape(lead + (seq_len, h, p))  # strided views of one
    B = wide[..., h * p : h * p + n]                        # projection output,
    C = wide[..., h * p + n : h * p + 2 * n]                # as the block passes them
    dt = wide[..., h * p + 2 * n :]
    return params, x, B, C, dt


def _assert_same_scan(scan, *args, **kwargs):
    y, state = scan.prefill_scan(*args, **kwargs)
    y_ref, state_ref = _reference_prefill_scan(scan, *args, **kwargs)
    assert _same_bytes(y, y_ref)
    if isinstance(state_ref, QuantizedSSMState):
        assert isinstance(state, QuantizedSSMState) and state.exact_equal(state_ref)
    else:
        assert _same_bytes(state, state_ref)
    return y, state


_SCAN_CONFIGS = {
    "float-body": SSMQuantConfig(),
    "float-body-int4-g8": SSMQuantConfig(bits=4, group_size=8),
    "ragged-groups": SSMQuantConfig(group_size=12),
    "non-pot": SSMQuantConfig(pot_scale=False),
    "no-product-requant": SSMQuantConfig(quantize_products=False),
    "no-state-quant": SSMQuantConfig(quantize_state=False),
    "resident": SSMQuantConfig(),  # the same scan, handed codes instead of floats
}


@pytest.mark.parametrize("name", list(_SCAN_CONFIGS))
@pytest.mark.parametrize("chunk_size", [1, 7, 64, 200])
def test_prefill_scan_matches_the_replaced_body(rng, name, chunk_size):
    scan = QuantizedChunkedScan(_SCAN_CONFIGS[name])
    resident = name == "resident"
    # Solo, from the zero state.
    params, x, B, C, dt = _scan_inputs(rng, 131)
    zero = scan.quantize_state_codes(np.zeros((4, 16, 32))) if resident else None
    _, state = _assert_same_scan(scan, params, x, B, C, dt, zero, chunk_size)
    # Warm continuation from the state the first segment handed back
    # (resident codes for a resident scan), and from an off-grid float state.
    _, x2, B2, C2, dt2 = _scan_inputs(rng, 77)
    _assert_same_scan(scan, params, x2, B2, C2, dt2, state, chunk_size)
    _assert_same_scan(scan, params, x2, B2, C2, dt2, rng.normal(size=(4, 16, 32)), chunk_size)
    # Batched, warm.
    params, x, B, C, dt = _scan_inputs(rng, 90, lead=(4,))
    warm = rng.normal(size=(4, 4, 16, 32))
    warm = scan.quantize_state_codes(warm) if resident else warm
    _assert_same_scan(scan, params, x, B, C, dt, warm, chunk_size)


def test_prefill_scan_at_the_serving_shape(rng):
    """The e2e benchmark's dims: 8 heads of 64, d_state 128, 64-token chunks, resident state."""
    scan = QuantizedChunkedScan(SSMQuantConfig())
    for seq_len in (1, 63, 64, 65, 389):
        params, x, B, C, dt = _scan_inputs(rng, seq_len, h=8, p=64, n=128)
        zero = scan.quantize_state_codes(np.zeros((8, 64, 128)))
        _assert_same_scan(scan, params, x, B, C, dt, zero, 64)
