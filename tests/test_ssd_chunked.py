"""Tests for the chunked SSD prefill scan (state space duality form)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mamba.ssm import SSMParams, ssd_chunked_scan, ssm_scan


def _inputs(seq_len=33, nheads=3, headdim=8, d_state=16, seed=0, with_state=True):
    rng = np.random.default_rng(seed)
    params = SSMParams(
        A_log=np.log(rng.uniform(1, 8, size=nheads)),
        D=rng.normal(1.0, 0.1, size=nheads),
        dt_bias=rng.normal(size=nheads),
    )
    x = rng.normal(size=(seq_len, nheads, headdim))
    B = rng.normal(size=(seq_len, d_state))
    C = rng.normal(size=(seq_len, d_state))
    dt = rng.normal(size=(seq_len, nheads))
    state = rng.normal(size=(nheads, headdim, d_state)) * 0.3 if with_state else None
    return params, x, B, C, dt, state


def _batched_inputs(batch=3, seq_len=33, nheads=3, headdim=8, d_state=16, seed=0, with_state=True):
    rng = np.random.default_rng(seed)
    params = SSMParams(
        A_log=np.log(rng.uniform(1, 8, size=nheads)),
        D=rng.normal(1.0, 0.1, size=nheads),
        dt_bias=rng.normal(size=nheads),
    )
    x = rng.normal(size=(batch, seq_len, nheads, headdim))
    B = rng.normal(size=(batch, seq_len, d_state))
    C = rng.normal(size=(batch, seq_len, d_state))
    dt = rng.normal(size=(batch, seq_len, nheads))
    state = rng.normal(size=(batch, nheads, headdim, d_state)) * 0.3 if with_state else None
    return params, x, B, C, dt, state


class TestChunkedScanEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 4, 7, 16, 64, 128])
    def test_matches_sequential_scan(self, chunk_size):
        """The SSD chunked form is exactly the sequential recurrence."""
        params, x, B, C, dt, state = _inputs()
        y_ref, final_ref = ssm_scan(params, x, B, C, dt, state)
        y, final = ssd_chunked_scan(params, x, B, C, dt, state, chunk_size=chunk_size)
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(final, final_ref, rtol=1e-9, atol=1e-10)

    def test_zero_initial_state_default(self):
        params, x, B, C, dt, _ = _inputs(with_state=False)
        y_ref, final_ref = ssm_scan(params, x, B, C, dt)
        y, final = ssd_chunked_scan(params, x, B, C, dt, chunk_size=8)
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(final, final_ref, rtol=1e-9, atol=1e-10)

    def test_sequence_shorter_than_chunk(self):
        params, x, B, C, dt, state = _inputs(seq_len=5)
        y_ref, _ = ssm_scan(params, x, B, C, dt, state)
        y, _ = ssd_chunked_scan(params, x, B, C, dt, state, chunk_size=64)
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-10)

    def test_state_handoff_composes(self):
        """Running two half-sequences with a state hand-off equals one run."""
        params, x, B, C, dt, state = _inputs(seq_len=24)
        y_full, final_full = ssd_chunked_scan(params, x, B, C, dt, state, chunk_size=8)
        y_a, mid = ssd_chunked_scan(params, x[:12], B[:12], C[:12], dt[:12], state, chunk_size=8)
        y_b, final_b = ssd_chunked_scan(params, x[12:], B[12:], C[12:], dt[12:], mid, chunk_size=8)
        np.testing.assert_allclose(np.concatenate([y_a, y_b]), y_full, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(final_b, final_full, rtol=1e-9, atol=1e-10)

    def test_validation(self):
        params, x, B, C, dt, state = _inputs()
        with pytest.raises(ValueError):
            ssd_chunked_scan(params, x, B, C, dt, state, chunk_size=0)
        with pytest.raises(ValueError):
            ssd_chunked_scan(params, x[:, :2], B, C, dt, state)  # head mismatch

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_equivalence(self, seq_len, chunk_size, seed):
        params, x, B, C, dt, state = _inputs(seq_len=seq_len, seed=seed)
        y_ref, final_ref = ssm_scan(params, x, B, C, dt, state)
        y, final = ssd_chunked_scan(params, x, B, C, dt, state, chunk_size=chunk_size)
        np.testing.assert_allclose(y, y_ref, rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose(final, final_ref, rtol=1e-8, atol=1e-9)


class TestBatchedChunkedScan:
    """The batch axis of the chunked SSD scan (the serving prefill path)."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 16, 64])
    def test_matches_batched_sequential_scan(self, chunk_size):
        """Batched chunked == batched sequential, nonzero initial state."""
        params, x, B, C, dt, state = _batched_inputs()
        y_ref, final_ref = ssm_scan(params, x, B, C, dt, state)
        y, final = ssd_chunked_scan(params, x, B, C, dt, state, chunk_size=chunk_size)
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(final, final_ref, rtol=1e-9, atol=1e-10)

    def test_matches_per_row_scan(self):
        """Every batch row must reproduce its own single-sequence scan.

        seq_len 33 with chunk 8 leaves an uneven final chunk.
        """
        params, x, B, C, dt, state = _batched_inputs(seed=7)
        y, final = ssd_chunked_scan(params, x, B, C, dt, state, chunk_size=8)
        for i in range(x.shape[0]):
            y_i, final_i = ssm_scan(params, x[i], B[i], C[i], dt[i], state[i])
            np.testing.assert_allclose(y[i], y_i, rtol=1e-9, atol=1e-10)
            np.testing.assert_allclose(final[i], final_i, rtol=1e-9, atol=1e-10)

    def test_chunk_larger_than_sequence_batched(self):
        params, x, B, C, dt, state = _batched_inputs(seq_len=5)
        y_ref, final_ref = ssm_scan(params, x, B, C, dt, state)
        y, final = ssd_chunked_scan(params, x, B, C, dt, state, chunk_size=512)
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(final, final_ref, rtol=1e-9, atol=1e-10)

    def test_no_inf_mask_and_no_warnings(self):
        """The causal gating must not build -inf masks or overflow the exp.

        Long sequences with strong decay make the anti-causal exponent large
        and positive; errstate(all="raise") turns any overflow or invalid
        into a hard failure.
        """
        params, x, B, C, dt, state = _inputs(seq_len=257, seed=11)
        dt = dt + 3.0  # strong decay -> large positive anti-causal exponents
        with np.errstate(over="raise", invalid="raise"):
            y, final = ssd_chunked_scan(params, x, B, C, dt, state, chunk_size=64)
        y_ref, final_ref = ssm_scan(params, x, B, C, dt, state)
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(final, final_ref, rtol=1e-9, atol=1e-10)
