"""Batched-vs-sequential equivalence of the core model decode path.

The batched inference path must be numerically indistinguishable from running
each request through the single-sequence API: same conv outputs, SSM states,
logits, and cache contents (to 1e-10 or better).
"""

import numpy as np
import pytest

from repro.mamba import (
    CausalConv1d,
    InferenceCache,
    SSMParams,
    ssm_scan,
    ssm_step,
)
from repro.mamba.cache import LayerCache
from repro.mamba.ssm import ssm_step_trace


class TestBatchedConv:
    def _conv(self, channels=6, k=4, seed=0):
        rng = np.random.default_rng(seed)
        return CausalConv1d(
            weight=rng.normal(size=(channels, k)),
            bias=rng.normal(size=channels),
        )

    def test_batched_forward_matches_per_row(self):
        conv = self._conv()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 12, 6))
        batched = conv.forward(x)
        for i in range(5):
            np.testing.assert_allclose(batched[i], conv.forward(x[i]), atol=1e-12)

    def test_batched_step_matches_per_row(self):
        conv = self._conv()
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6))
        state = rng.normal(size=(4, 6, 4))
        out, new_state = conv.step(x, state)
        for i in range(4):
            out_i, state_i = conv.step(x[i], state[i])
            np.testing.assert_allclose(out[i], out_i, atol=1e-12)
            np.testing.assert_allclose(new_state[i], state_i, atol=1e-12)

    def test_batched_initial_state(self):
        conv = self._conv()
        assert conv.initial_state().shape == (6, 4)
        assert conv.initial_state(batch_size=3).shape == (3, 6, 4)

    def test_batched_state_shape_mismatch_rejected(self):
        conv = self._conv()
        with pytest.raises(ValueError):
            conv.step(np.zeros((4, 6)), np.zeros((3, 6, 4)))


class TestBatchedSSM:
    def _params(self, nheads=4, seed=0):
        rng = np.random.default_rng(seed)
        return SSMParams(
            A_log=np.log(rng.uniform(1, 8, size=nheads)),
            D=rng.normal(1.0, 0.1, size=nheads),
            dt_bias=rng.normal(size=nheads),
        )

    def test_step_matches_trace(self):
        """The direct step must reproduce the instrumented trace step."""
        params = self._params()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 8))
        B, C = rng.normal(size=16), rng.normal(size=16)
        dt = rng.normal(size=4)
        state = rng.normal(size=(4, 8, 16))
        y, new_state = ssm_step(params, x, B, C, dt, state)
        y_t, state_t, _ = ssm_step_trace(params, x, B, C, dt, state)
        np.testing.assert_allclose(y, y_t, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(new_state, state_t, rtol=1e-12, atol=1e-12)

    def test_batched_step_matches_per_row(self):
        params = self._params()
        rng = np.random.default_rng(4)
        bsz = 5
        x = rng.normal(size=(bsz, 4, 8))
        B = rng.normal(size=(bsz, 16))
        C = rng.normal(size=(bsz, 16))
        dt = rng.normal(size=(bsz, 4))
        state = rng.normal(size=(bsz, 4, 8, 16))
        y, new_state = ssm_step(params, x, B, C, dt, state)
        for i in range(bsz):
            y_i, state_i = ssm_step(params, x[i], B[i], C[i], dt[i], state[i])
            np.testing.assert_allclose(y[i], y_i, atol=1e-10)
            np.testing.assert_allclose(new_state[i], state_i, atol=1e-10)

    def test_batched_scan_matches_per_row(self):
        params = self._params()
        rng = np.random.default_rng(5)
        bsz, T = 3, 9
        x = rng.normal(size=(bsz, T, 4, 8))
        B = rng.normal(size=(bsz, T, 16))
        C = rng.normal(size=(bsz, T, 16))
        dt = rng.normal(size=(bsz, T, 4))
        init = rng.normal(size=(bsz, 4, 8, 16)) * 0.3
        y, final = ssm_scan(params, x, B, C, dt, init)
        for i in range(bsz):
            y_i, final_i = ssm_scan(params, x[i], B[i], C[i], dt[i], init[i])
            np.testing.assert_allclose(y[i], y_i, atol=1e-10)
            np.testing.assert_allclose(final[i], final_i, atol=1e-10)

    def test_chunked_scan_nonzero_initial_state_many_heads(self):
        """Einsum-vectorized SSD chunks must carry a nonzero state correctly.

        Exercises the head-parallel form with a head count larger than the
        chunk count, a nonzero carried-in state, and a ragged final chunk.
        """
        from repro.mamba.ssm import ssd_chunked_scan

        params = self._params(nheads=12, seed=10)
        rng = np.random.default_rng(11)
        T, H, P, N = 21, 12, 4, 16
        x = rng.normal(size=(T, H, P))
        B = rng.normal(size=(T, N))
        C = rng.normal(size=(T, N))
        dt = rng.normal(size=(T, H))
        init = rng.normal(size=(H, P, N)) * 0.5
        y_ref, final_ref = ssm_scan(params, x, B, C, dt, init)
        y, final = ssd_chunked_scan(params, x, B, C, dt, init, chunk_size=8)
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(final, final_ref, rtol=1e-9, atol=1e-10)

    def test_trace_rejects_batched_input(self):
        params = self._params()
        with pytest.raises(ValueError):
            ssm_step_trace(
                params,
                np.zeros((2, 4, 8)),
                np.zeros((2, 16)),
                np.zeros((2, 16)),
                np.zeros((2, 4)),
                np.zeros((2, 4, 8, 16)),
            )

    def test_batch_mismatch_rejected(self):
        params = self._params()
        with pytest.raises(ValueError):
            ssm_step(
                params,
                np.zeros((2, 4, 8)),
                np.zeros((3, 16)),  # wrong batch size
                np.zeros((2, 16)),
                np.zeros((2, 4)),
                np.zeros((2, 4, 8, 16)),
            )


class TestBatchedModel:
    def test_batched_prefill_matches_per_request(self, tiny_model):
        rng = np.random.default_rng(6)
        prompts = rng.integers(0, tiny_model.config.vocab_size, size=(4, 7))
        logits, cache = tiny_model.prefill(prompts)
        assert cache.batch_size == 4
        for i in range(4):
            logits_i, cache_i = tiny_model.prefill(prompts[i])
            np.testing.assert_allclose(logits[i], logits_i, atol=1e-10)
            for layer, layer_i in zip(cache.layers, cache_i.layers):
                np.testing.assert_allclose(layer.conv_state[i], layer_i.conv_state, atol=1e-10)
                np.testing.assert_allclose(layer.ssm_state[i], layer_i.ssm_state, atol=1e-10)

    def test_batched_step_matches_per_request(self, tiny_model):
        rng = np.random.default_rng(7)
        vocab = tiny_model.config.vocab_size
        prompts = rng.integers(0, vocab, size=(4, 5))
        tokens = rng.integers(0, vocab, size=4)
        logits, cache = tiny_model.prefill(prompts)
        step_logits = tiny_model.step(tokens, cache)
        for i in range(4):
            _, cache_i = tiny_model.prefill(prompts[i])
            logits_i = tiny_model.step(int(tokens[i]), cache_i)
            np.testing.assert_allclose(step_logits[i], logits_i, atol=1e-10)

    def test_quantized_model_batched_step(self, tiny_model):
        """The batched path must run quantized models (custom ssm_impl)."""
        from repro.quant import QuantConfig, QuantMethod, quantize_model

        quantized = quantize_model(
            tiny_model, QuantConfig.w8a8(QuantMethod.LIGHTMAMBA_STAR)
        )
        rng = np.random.default_rng(8)
        vocab = quantized.config.vocab_size
        prompts = rng.integers(0, vocab, size=(3, 6))
        tokens = rng.integers(0, vocab, size=3)
        logits, cache = quantized.prefill(prompts)
        step_logits = quantized.step(tokens, cache)
        for i in range(3):
            logits_i, cache_i = quantized.prefill(prompts[i])
            np.testing.assert_allclose(logits[i], logits_i, atol=1e-10)
            step_i = quantized.step(int(tokens[i]), cache_i)
            np.testing.assert_allclose(step_logits[i], step_i, atol=1e-10)


@pytest.fixture(scope="module", params=["float", "resident"])
def form_model(request, tiny_model):
    """A model whose caches hold the named SSM state form: the FP model's
    float arrays, or a lightmamba* model's integer-resident codes."""
    if request.param == "float":
        return tiny_model
    from repro.quant import QuantConfig, QuantMethod, quantize_model

    return quantize_model(tiny_model, QuantConfig.w8a8(QuantMethod.LIGHTMAMBA_STAR))


class TestBatchedCache:
    def test_zeros_shapes(self, tiny_config):
        cache = InferenceCache.zeros(tiny_config, batch_size=3)
        assert cache.batch_size == 3
        layer = cache.layers[0]
        assert layer.conv_state.shape == (3, tiny_config.conv_dim, tiny_config.d_conv)
        assert layer.ssm_state.shape == (
            3, tiny_config.nheads, tiny_config.headdim, tiny_config.d_state
        )
        assert InferenceCache.zeros(tiny_config).batch_size is None

    def test_gather_scatter_row_stack_roundtrip(self, form_model, cache_arrays):
        """One contract for both state forms: rows move exactly, every
        returned cache owns its memory and keeps the source's layer class."""
        rng = np.random.default_rng(9)
        prompts = rng.integers(0, form_model.config.vocab_size, size=(4, 6))
        _, cache = form_model.prefill(prompts)
        layer_class = type(cache.layers[0])

        picked = cache.gather([3, 1])
        rows = [cache.row(i) for i in range(4)]
        assert rows[0].batch_size is None
        restacked = InferenceCache.stack(rows)
        for result in (picked, restacked, cache.copy(), *rows):
            assert all(type(layer) is layer_class for layer in result.layers)
            assert not any(
                np.shares_memory(a, b) for a in cache_arrays(result) for b in cache_arrays(cache)
            )
        for got, want in zip(cache_arrays(picked), cache_arrays(cache)):
            np.testing.assert_array_equal(got, want[[3, 1]])
        for got, want in zip(cache_arrays(restacked), cache_arrays(cache)):
            np.testing.assert_array_equal(got, want)

        target = form_model.new_cache(batch_size=4)
        empty = target.copy()
        target.scatter([2, 0], picked)
        for got, want, zero in zip(
            cache_arrays(target), cache_arrays(cache), cache_arrays(empty)
        ):
            np.testing.assert_array_equal(got[2], want[3])
            np.testing.assert_array_equal(got[0], want[1])
            np.testing.assert_array_equal(got[[1, 3]], zero[[1, 3]])

    def test_gather_requires_batched(self, form_model):
        cache = form_model.new_cache()
        with pytest.raises(ValueError):
            cache.gather([0])

    def test_stack_rejects_batched_input(self, form_model):
        batched = form_model.new_cache(batch_size=2).layers[0]
        with pytest.raises(ValueError):
            LayerCache.stack([batched])
