"""Tests of the tiled INT32 SSMU decode step and its fused shift kernel.

Pins the contracts the tiled ``QuantizedSSMStep._step_integer`` adds on top
of the bit-identity suite in ``test_int_decode_iter.py``.  The step cases run
on whichever executor this machine selects (``repro.quant.native``: the
compiled ``native.c``'s ``ssmu_step``, or the oracle when there is no
compiler; ``pytest --no-kernel`` selects the oracle where a compiler exists,
and ``tests/test_ssmu_native.py`` compares the two directly).  Some cases
also run with the ``no_kernel`` fixture in every run, so the oracle that steps
the resident state where no library loads is pinned here too:

- the *fused* re-quantization -- small operand pre-aligned by
  ``2**(R - r)``, one uniform half-even right shift by ``R`` -- equals both
  ``np.round`` on the real-valued ratio and the INT64 per-group
  ``shift_requantize(..., "half_even")`` over the full exponent range,
  without ever leaving the accumulator dtype the overflow bound selects;
- the quantizer's group maximum, read back from the scales of a per-group
  ``quantize`` (the compiled entry where it loads), is ``abs().max(-1)`` for
  every group length (powers of two or not, ragged or not), the values of
  every storage type, and tiles below and past 4 096 elements;
- tiling is invisible: row *i* of a batched step is bit-identical (output,
  codes, scales) to the solo step on row *i*, for batch 1..8 and for
  clamped / padded / multi-group state shapes;
- every width follows the code width: the resident codes are stored in the
  narrowest integer type that holds them (by every producer), the accumulator
  bound picks INT32 for the INT4/INT8 SSM (the compiled step's width) and
  INT64 for INT16 codes (resident, stepped by the oracle), and past what INT64
  holds no state is handed out as codes -- each still bit-identical to the
  fake-quant oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mamba import Mamba2Config
from repro.mamba.cache import LayerCache, QuantizedLayerCache
from repro.mamba.ssm import SSMParams
from repro.quant import QuantizedSSMStep, SSMQuantConfig
from repro.quant.dtypes import Granularity, IntSpec, code_storage_dtype
from repro.quant.pot import (
    absmax_requant_exponents,
    alignment_multiplier,
    requant_shift,
    shift_accumulator_dtype,
    shift_requantize,
    shift_right_half_even,
)
from repro.quant.quantizer import QuantizerConfig, quantize


# ----------------------------------------------------------------------
# The fused uniform-shift kernel
# ----------------------------------------------------------------------
@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fused_uniform_shift_matches_round_and_int64_shift(data):
    """``(b * (a * 2**(R - r))) >> R`` with half-even rounding is the
    re-quantization of the outer product ``a * b`` -- over all-zero groups
    (destination at the ``2**-39`` floor, so arbitrarily large left or right
    shift counts, past the INT64 kernel's saturation caps), destinations
    coarser than the absmax grid (right shifts up to and past ``R``), and
    both committed code widths."""
    bits = data.draw(st.sampled_from([4, 8]), label="bits")
    qmax = 2 ** (bits - 1) - 1
    full = requant_shift(bits)
    groups = data.draw(st.integers(1, 6), label="groups")
    length = data.draw(st.integers(1, 32), label="group length")
    codes = st.integers(-qmax, qmax)
    # One small-operand code and one source exponent per group; an all-zero
    # group arises from a zero small operand or an all-zero vector.
    small = data.draw(hnp.arrays(np.int64, (groups,), elements=codes), label="a")
    vector = data.draw(hnp.arrays(np.int64, (groups, length), elements=codes), label="b")
    src = data.draw(
        hnp.arrays(np.int64, (groups,), elements=st.integers(-70, 70)), label="src"
    )
    coarsen = data.draw(
        hnp.arrays(
            np.int64,
            (groups,),
            elements=st.sampled_from([0, 0, 0, 1, 3, full - 1, full, full + 1, 40]),
        ),
        label="extra right shift",
    )
    product = small[:, None] * vector
    absmax = np.abs(product).max(axis=-1)
    dst = absmax_requant_exponents(np.ldexp(absmax, src), bits) + coarsen

    dtype = shift_accumulator_dtype(bits)
    assert dtype is np.int32
    aligned = (small * alignment_multiplier(absmax, dst - src, bits)).astype(dtype)
    acc = aligned[:, None] * vector.astype(dtype)
    assert acc.dtype == dtype
    # The invariant that makes INT32 enough: |aligned product| <= qmax * 2**R.
    assert np.abs(acc.astype(np.int64)).max() <= qmax * 2**full
    shift_right_half_even(acc, full, np.empty_like(acc))

    real = np.round(np.ldexp(product.astype(np.float64), (src - dst)[:, None]))
    np.testing.assert_array_equal(acc, np.clip(real, -qmax, qmax))
    np.testing.assert_array_equal(
        acc, shift_requantize(product, src[:, None], dst[:, None], bits, "half_even")
    )
    # No clip was applied and none was needed.
    assert np.abs(acc).max() <= qmax


@given(
    hnp.arrays(np.int64, (5, 7), elements=st.integers(-(2**40), 2**40)),
    hnp.arrays(np.int64, (5, 1), elements=st.integers(0, 45)),
)
@settings(max_examples=100, deadline=None)
def test_shift_right_half_even_array_shifts(values, shifts):
    """Per-group shift counts (the ``shift_requantize`` mode), zero included."""
    expected = np.round(np.ldexp(values.astype(np.float64), -shifts)).astype(np.int64)
    acc = values.copy()
    out = shift_right_half_even(acc, shifts, np.empty_like(acc))
    assert out is acc
    np.testing.assert_array_equal(acc, expected)


def _assert_group_scales_are_absmax(x, grouped_magnitudes, group):
    """The INT8 per-group scales of ``x`` are ``max(absmax, 1e-12) / 127`` of
    the groups' plain ``max(-1)``, byte for byte."""
    got = quantize(x, QuantizerConfig(IntSpec(8), Granularity.PER_GROUP, group)).scales
    want = np.maximum(grouped_magnitudes.max(axis=-1, keepdims=True), 1e-12) / 127
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
@pytest.mark.parametrize("group", [1, 2, 3, 7, 8, 24, 32])
def test_group_absmax_matches_reduction(rng, dtype, group):
    """Tiles below and past 4 096 elements (the compiled quantizer
    specializes 32-long groups)."""
    for lead in (3, -(-4096 // (10 * group))):
        tile = (rng.normal(size=(lead, 5, 2, group)) * 1000).astype(dtype).astype(np.float64)
        _assert_group_scales_are_absmax(tile.reshape(lead, 5, 2 * group), np.abs(tile), group)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_group_absmax_every_width_and_group(data):
    """The values of every storage type the quantized SSM uses, extreme codes
    included, power-of-two and odd group lengths, and ragged rows whose last
    group the quantizer zero-pads."""
    dtype = data.draw(st.sampled_from([np.int8, np.int16, np.int32, np.float64]), label="dtype")
    group = data.draw(st.sampled_from([1, 2, 4, 8, 16, 32, 3, 6, 7, 24]), label="group")
    shape = data.draw(
        st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3)), label="lead"
    )
    pad = data.draw(st.integers(0, group - 1), label="zero padding of the last group")
    if dtype is np.float64:
        elements = st.floats(-1e6, 1e6, allow_nan=False)
    else:
        # Symmetric codes: the most negative value is never a code.
        elements = st.integers(-np.iinfo(dtype).max, np.iinfo(dtype).max)
    tile = data.draw(hnp.arrays(dtype, shape + (group,), elements=elements), label="tile")
    if data.draw(st.booleans(), label="past 4096 elements"):
        tile = np.tile(tile, (-(-4096 // tile.size), 1, 1, 1))
    tile = tile.astype(np.float64)
    tile[..., -1, group - pad :] = 0.0
    row = tile.reshape(tile.shape[:2] + (-1,))
    _assert_group_scales_are_absmax(row[..., : row.shape[-1] - pad], np.abs(tile), group)


# ----------------------------------------------------------------------
# Tiling: a batched step is its rows, stepped alone
# ----------------------------------------------------------------------
def _params(rng, h):
    return SSMParams(
        A_log=np.log(rng.uniform(1, 8, size=h)),
        D=rng.normal(1.0, 0.1, size=h),
        dt_bias=rng.normal(size=h),
    )


def _inputs(rng, lead, h, p, n):
    # Per-row magnitudes spread over decades so rows land on different grids.
    gain = 10.0 ** rng.integers(-3, 4, size=lead + (1,))
    return (
        rng.normal(size=lead + (h, p)) * gain[..., None],
        rng.normal(size=lead + (n,)) * gain,
        rng.normal(size=lead + (n,)),
        rng.normal(size=lead + (h,)),
    )


@pytest.mark.parametrize(
    "n,group",
    [
        (24, 32),  # clamped: one 24-long group (the suite's padded-config shape)
        (24, 16),  # padded: two groups, the second half zero padding
        (24, 8),   # three full groups
    ],
)
@pytest.mark.parametrize("batch", range(1, 9))
def test_batched_step_rows_equal_solo_steps(rng, batch, n, group):
    _check_rows_equal_solo_steps(rng, batch, n, group)


@pytest.mark.parametrize("n,group", [(24, 32), (24, 16), (24, 8)])
@pytest.mark.parametrize("batch", [1, 3, 8])
def test_batched_step_rows_equal_solo_steps_on_the_numpy_tile(rng, no_kernel, batch, n, group):
    """The same rows, on the numpy executor (the oracle) that steps the
    resident state where no compiled library loads."""
    _check_rows_equal_solo_steps(rng, batch, n, group)


def _check_rows_equal_solo_steps(rng, batch, n, group):
    h, p = 4, 8
    step = QuantizedSSMStep(SSMQuantConfig(group_size=group))
    params = _params(rng, h)
    state = step.quantize_state_codes(rng.normal(size=(batch, h, p, n)))
    state.codes[0] = 0  # an all-zero row rides along
    for _ in range(3):
        x, B, C, dt = _inputs(rng, (batch,), h, p, n)
        y, new_state = step._step_integer(params, x, B, C, dt, state)
        assert new_state.codes.dtype == state.codes.dtype == np.int8
        assert new_state.codes.shape == state.codes.shape and new_state.storage[0].flags.c_contiguous
        assert new_state.scales.shape == state.scales.shape
        for row in range(batch):
            y_row, state_row = step._step_integer(
                params, x[row], B[row], C[row], dt[row], state[row].copy()
            )
            np.testing.assert_array_equal(y[row], y_row)
            np.testing.assert_array_equal(new_state.codes[row], state_row.codes)
            np.testing.assert_array_equal(new_state.scales[row], state_row.scales)
        state = new_state


# ----------------------------------------------------------------------
# Accumulator width follows the code width
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bits,acc_dtype",
    [(4, np.int32), (8, np.int32), (9, np.int32), (16, np.int64), (22, None)],
)
def test_accumulator_width_follows_bits(rng, bits, acc_dtype):
    _check_accumulator_width_follows_bits(rng, bits, acc_dtype)


@pytest.mark.parametrize("bits,acc_dtype", [(4, np.int32), (8, np.int32)])
def test_accumulator_width_follows_bits_on_the_numpy_tile(rng, no_kernel, bits, acc_dtype):
    """The widths the compiled step takes, on the numpy executor (the oracle)."""
    _check_accumulator_width_follows_bits(rng, bits, acc_dtype)


def _check_accumulator_width_follows_bits(rng, bits, acc_dtype):
    """INT16 codes select the wide accumulator bound (and step on the oracle:
    the kernel takes INT8 codes only); past INT64's reach no state is handed
    out as codes, so the step never leaves the oracle.  Every width stays
    bit-identical."""
    step = QuantizedSSMStep(SSMQuantConfig(bits=bits, group_size=8))
    assert shift_accumulator_dtype(bits) is acc_dtype
    h, p, n = 4, 8, 24
    config = Mamba2Config(d_model=16, n_layer=1, vocab_size=8, d_state=n, headdim=p)
    if acc_dtype is None:
        assert type(step.zeros_cache(config)) is LayerCache
        return
    assert type(step.zeros_cache(config)) is QuantizedLayerCache
    params = _params(rng, h)
    state_int = step.quantize_state_codes(rng.normal(size=(2, h, p, n)))
    assert state_int.codes.dtype == code_storage_dtype(bits)
    state_orc = state_int.copy()
    for _ in range(4):
        x, B, C, dt = _inputs(rng, (2,), h, p, n)
        y_int, state_int = step(params, x, B, C, dt, state_int)
        y_orc, state_orc = step._step_oracle(params, x, B, C, dt, state_orc)
        np.testing.assert_array_equal(y_int, y_orc)
        assert state_int.exact_equal(state_orc)


# ----------------------------------------------------------------------
# The resident codes are stored at their true width, by every producer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bits,storage", [(4, np.int8), (8, np.int8), (16, np.int16)])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_every_producer_emits_the_storage_dtype(rng, bits, storage, lead):
    h, p, n = 4, 8, 24
    step = QuantizedSSMStep(SSMQuantConfig(bits=bits, group_size=8))
    assert code_storage_dtype(bits) is storage
    params = _params(rng, h)
    config = Mamba2Config(d_model=16, n_layer=1, vocab_size=8, d_state=n, headdim=p)

    produced = {
        "quantize_state_codes": step.quantize_state_codes(rng.normal(size=lead + (h, p, n))),
        "zeros_cache": step.zeros_cache(config, *lead).ssm_state,
    }
    x, B, C, dt = _inputs(rng, lead, h, p, n)
    state = produced["quantize_state_codes"]
    _, produced["_step_integer"] = step(params, x, B, C, dt, state)
    _, produced["_step_oracle"] = step._step_oracle(params, x, B, C, dt, state)
    seq = 5
    xs, Bs, Cs, dts = (
        np.stack([v] * seq, axis=len(lead)) for v in _inputs(rng, lead, h, p, n)
    )
    _, produced["prefill_scan"] = step.prefill_scan(
        params, xs, Bs, Cs, dts, initial_state=state, chunk_size=4
    )
    _, produced["prefill_scan chunk_size=1"] = step.prefill_scan(
        params, xs, Bs, Cs, dts, initial_state=state, chunk_size=1
    )
    for name, out in produced.items():
        assert out.codes.dtype == storage, name
        assert out.bits == bits and np.abs(out.codes).max() <= 2 ** (bits - 1) - 1, name
