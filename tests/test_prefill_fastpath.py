"""Tests of the chunked prefill fast path through model, eval and serving.

The chunked SSD scan is the default prefill engine, at ``config.chunk_size``;
the sequential recurrence stays available per call (``scan_impl="sequential"``)
as the numerical oracle.  These tests pin the agreement between the two across
every layer that inherits the fast path: ``forward``, ``prefill`` (logits *and* cache,
including the conv window), segmented prefill continuation and the engine's
chunked-prefill admission mode.
"""

import numpy as np
import pytest

from repro.mamba import get_preset, greedy_decode
from repro.mamba.cache import InferenceCache, QuantizedSSMState
from repro.serving import FIFOScheduler, InferenceEngine, Request


def _state_values(layer):
    """The layer's SSM state as floats, whichever representation holds it."""
    state = layer.ssm_state
    return state.dequantize() if isinstance(state, QuantizedSSMState) else state


def _caches_allclose(a: InferenceCache, b: InferenceCache, atol=1e-10):
    for layer_a, layer_b in zip(a.layers, b.layers):
        np.testing.assert_allclose(layer_a.conv_state, layer_b.conv_state, atol=atol)
        np.testing.assert_allclose(_state_values(layer_a), _state_values(layer_b), atol=atol)


class TestScanImplSwitch:
    def test_default_is_chunked(self, tiny_model):
        assert tiny_model.config.chunk_size >= 1
        tokens = np.random.default_rng(2).integers(0, tiny_model.config.vocab_size, size=9)
        default = tiny_model.forward(tokens)
        np.testing.assert_array_equal(default, tiny_model.forward(tokens, scan_impl="chunked"))

    @pytest.mark.parametrize("chunk_size", [1, 4, 64, 1000])
    def test_prefill_chunked_matches_sequential(self, tiny_model, with_chunk_size, chunk_size):
        """Logits and full cache state (conv window included) agree to 1e-10."""
        rng = np.random.default_rng(0)
        prompt = rng.integers(0, tiny_model.config.vocab_size, size=19)
        logits_seq, cache_seq = tiny_model.prefill(prompt, scan_impl="sequential")
        logits_chunk, cache_chunk = with_chunk_size(tiny_model, chunk_size).prefill(
            prompt, scan_impl="chunked"
        )
        np.testing.assert_allclose(logits_chunk, logits_seq, atol=1e-10)
        _caches_allclose(cache_chunk, cache_seq)

    def test_forward_chunked_matches_sequential(self, tiny_model, with_chunk_size):
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, tiny_model.config.vocab_size, size=33)
        logits_seq = tiny_model.forward(tokens, scan_impl="sequential")
        logits_chunk = with_chunk_size(tiny_model, 8).forward(tokens, scan_impl="chunked")
        np.testing.assert_allclose(logits_chunk, logits_seq, atol=1e-10)

    def test_invalid_scan_impl_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward(np.arange(4), scan_impl="nope")
        with pytest.raises(ValueError):
            get_preset("mamba2-tiny").with_overrides(chunk_size=0)
        with pytest.raises(TypeError):  # the scan engine is chosen per call only
            get_preset("mamba2-tiny").with_overrides(scan_impl="sequential")


class TestPrefillContinuation:
    @pytest.mark.parametrize("split", [1, 3, 11])
    def test_segmented_prefill_equals_one_shot(self, tiny_model, split):
        """prefill(a) then prefill(b, cache=...) == prefill(a + b).

        Exercises the conv-window carry across the segment boundary (splits
        smaller than d_conv included).
        """
        rng = np.random.default_rng(6)
        prompt = rng.integers(0, tiny_model.config.vocab_size, size=17)
        ref_logits, ref_cache = tiny_model.prefill(prompt)
        cache = InferenceCache.zeros(tiny_model.config)
        logits = None
        for start in range(0, len(prompt), split):
            logits, _ = tiny_model.prefill(prompt[start : start + split], cache=cache)
        np.testing.assert_allclose(logits, ref_logits, atol=1e-10)
        _caches_allclose(cache, ref_cache)

    def test_cache_batch_mismatch_rejected(self, tiny_model):
        cache = InferenceCache.zeros(tiny_model.config, batch_size=2)
        with pytest.raises(ValueError):
            tiny_model.prefill(np.arange(4), cache=cache)


class TestServingFastPath:
    def test_quantized_ragged_generate_matches_solo(self, tiny_model):
        """A ragged batch must stay exact for quantized models.

        Per-group / per-token quantization grids are row-independent, so
        decoding in one batch reproduces each request bit-for-bit.
        """
        from repro.quant import QuantConfig, QuantMethod, quantize_model

        quantized = quantize_model(tiny_model, QuantConfig.w8a8(QuantMethod.LIGHTMAMBA_STAR))
        rng = np.random.default_rng(8)
        prompts = [rng.integers(0, quantized.config.vocab_size, size=n) for n in (4, 7, 2)]
        done = InferenceEngine(quantized, max_batch_size=3).run(
            [Request(prompt=tuple(p), max_new_tokens=4) for p in prompts]
        )
        for prompt, completion in zip(prompts, done):
            ref = greedy_decode(quantized, prompt, 4)
            assert completion.result.tokens == ref.tokens
            np.testing.assert_allclose(completion.result.logprobs, ref.logprobs, atol=1e-10)

    @pytest.mark.parametrize("prefill_chunk_tokens", [1, 3, 7, None])
    def test_engine_chunked_admission_matches_solo(self, tiny_model, prefill_chunk_tokens):
        rng = np.random.default_rng(9)
        vocab = tiny_model.config.vocab_size
        requests = [
            Request(prompt=tuple(rng.integers(0, vocab, size=s)), max_new_tokens=b)
            for s, b in zip((23, 5, 40, 9), (4, 6, 3, 5))
        ]
        engine = InferenceEngine(
            tiny_model,
            max_batch_size=2,
            scheduler=FIFOScheduler(prefill_chunk_tokens=prefill_chunk_tokens),
        )
        completions = engine.run(requests)
        assert [c.request_id for c in completions] == list(range(len(requests)))
        for request, completion in zip(requests, completions):
            ref = greedy_decode(tiny_model, request.prompt, request.max_new_tokens)
            assert completion.result.tokens == ref.tokens
            np.testing.assert_allclose(completion.result.logprobs, ref.logprobs, atol=1e-10)

    def test_engine_bounds_prompt_tokens_per_step(self, tiny_model):
        """A long prompt must spread across iterations, not stall decodes."""
        rng = np.random.default_rng(10)
        vocab = tiny_model.config.vocab_size
        engine = InferenceEngine(
            tiny_model, max_batch_size=2, scheduler=FIFOScheduler(prefill_chunk_tokens=4)
        )
        short = Request(prompt=tuple(rng.integers(0, vocab, size=3)), max_new_tokens=8)
        long = Request(prompt=tuple(rng.integers(0, vocab, size=30)), max_new_tokens=2)
        engine.submit(short)
        engine.step()
        assert engine.num_active == 1  # short admitted (3 <= 4 budget tokens)
        engine.submit(long)
        decoded_before = engine.stats.decoded_tokens
        engine.step()
        # The long prompt is mid-prefill, yet the short request kept decoding.
        assert engine.num_prefilling == 1
        assert engine.stats.decoded_tokens > decoded_before
        completions = []
        while engine.has_work:
            completions.extend(engine.step())
        assert engine.stats.prefilled_tokens == 33
        # ceil(30 / 4) chunks for the long prompt + 1 for the short one.
        assert engine.stats.prefill_calls == 9
        for request, completion in zip(
            (short, long), sorted(completions, key=lambda c: c.request_id)
        ):
            ref = greedy_decode(tiny_model, request.prompt, request.max_new_tokens)
            assert completion.result.tokens == ref.tokens

    def test_engine_validation(self, tiny_model):
        with pytest.raises(ValueError):
            FIFOScheduler(prefill_chunk_tokens=0)


class TestQuantizedBatchedStepping:
    def test_batched_prefill_matches_per_row(self, tiny_model, monkeypatch):
        """The batch-vectorized quantized token loop must be exact per row,
        and really is vectorized: one integer step call per token for the
        whole batch, on the resident state -- on the compiled library the
        fake-quant oracle is never entered."""
        from repro.quant import QuantConfig, QuantizedSSMStep, QuantMethod, native, quantize_model

        quantized = quantize_model(tiny_model, QuantConfig.w8a8(QuantMethod.LIGHTMAMBA_STAR))
        steps, oracle = [], []
        step_integer, step_oracle = QuantizedSSMStep._step_integer, QuantizedSSMStep._step_oracle
        monkeypatch.setattr(
            QuantizedSSMStep,
            "_step_integer",
            lambda self, *a: steps.append(a[-1].shape[0]) or step_integer(self, *a),
        )
        monkeypatch.setattr(
            QuantizedSSMStep,
            "_step_oracle",
            lambda self, *a: oracle.append(1) or step_oracle(self, *a),
        )
        rng = np.random.default_rng(11)
        prompts = rng.integers(0, quantized.config.vocab_size, size=(3, 8))
        for scan_impl in ("chunked", "sequential"):
            del steps[:], oracle[:]
            logits, cache = quantized.prefill(prompts, scan_impl=scan_impl)
            # 8 tokens: one 3-row step each under "sequential", none under "chunked".
            assert steps == ([3] * 8 * len(quantized.blocks) if scan_impl == "sequential" else [])
            if native.kernel() is not None:
                assert not oracle
            for i in range(3):
                logits_i, cache_i = quantized.prefill(prompts[i], scan_impl=scan_impl)
                np.testing.assert_allclose(logits[i], logits_i, atol=1e-10)
                _caches_allclose(cache.row(i), cache_i)
