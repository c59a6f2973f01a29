"""Tests of the integer-resident decode state and the one dispatch rule.

Pins the contracts:

- the state's type selects the arithmetic, and nothing else does: a default
  lightmamba* model decodes on resident codes (``QuantizedSSMState`` inside
  a ``QuantizedLayerCache``), the Fig. 3 ablation configurations on floats,
  and one model run on both kinds of cache is *bit-identical* under PoT;
- the integer-resident cache survives the full serving lifecycle --
  gather / scatter / stack / row under admission, eviction and
  preempted-then-resumed prefills -- bit-identically to solo decode;
- the shared INT32 kernel (``grouped_integer_matmul``) matches the dense
  matmul and trips its overflow guard on unsafe widths;
- all-zero quantization groups are well-defined everywhere (no warnings,
  exact-zero reconstruction);
- the quantized-state memory model sizes the URAM/BRAM residency;
- the serving edge cases (empty prompts, cancel racing the final decode
  iteration) behave.
"""

import copy
import dataclasses
import warnings

import numpy as np
import pytest

from repro.mamba import InitConfig, Mamba2Model, greedy_decode
from repro.mamba.cache import (
    InferenceCache,
    LayerCache,
    QuantizedLayerCache,
    QuantizedSSMState,
)
from repro.mamba.ssm import SSMParams
from repro.quant import (
    QuantConfig,
    QuantMethod,
    QuantizedSSMStep,
    QuantizedLinear,
    SSMQuantConfig,
    grouped_integer_matmul,
    quantize_model,
)
from repro.quant.quantizer import quantize
from repro.serving import InferenceEngine, Request
from repro.serving.scheduler import PriorityScheduler
from test_lifecycle import replay


def _star(model, w_bits=8, a_bits=8, **ssm_kwargs):
    config = QuantConfig(
        method=QuantMethod.LIGHTMAMBA_STAR,
        w_bits=w_bits,
        a_bits=a_bits,
        ssm=SSMQuantConfig(**ssm_kwargs),
    )
    return quantize_model(model, config)


def _state_values(layer):
    state = layer.ssm_state
    return state.dequantize() if isinstance(state, QuantizedSSMState) else state


def _assert_states_equal(a: InferenceCache, b: InferenceCache):
    for layer_a, layer_b in zip(a.layers, b.layers):
        np.testing.assert_array_equal(layer_a.conv_state, layer_b.conv_state)
        np.testing.assert_array_equal(_state_values(layer_a), _state_values(layer_b))


def _on_float_caches(model):
    """The same model (blocks shared), handed float caches by every entry point.

    Its quantized SSM then runs the fake-quant oracle: this is how the
    reference numerics are reached now that no flag selects them.
    """
    twin = copy.copy(model)
    twin.new_cache = lambda batch_size=None: InferenceCache.zeros(model.config, batch_size)
    return twin


#: The fixture whose caches hold each SSM state form, and that form's layer class.
_FORM_FIXTURES = {"float": "fake_quant", "resident": "persistent"}
_FORM_CLASSES = {"float": LayerCache, "resident": QuantizedLayerCache}


@pytest.fixture(scope="module")
def persistent(tiny_model):
    """The default lightmamba* model: decodes on integer-resident caches."""
    return _star(tiny_model)


@pytest.fixture(scope="module")
def fake_quant(persistent):
    return _on_float_caches(persistent)


class TestOneDispatchRule:
    def test_config_is_the_five_numeric_fields(self):
        assert {f.name for f in dataclasses.fields(SSMQuantConfig)} == {
            "bits", "group_size", "pot_scale", "quantize_state", "quantize_products"
        }

    @pytest.mark.parametrize(
        "ssm_kwargs",
        [
            {"pot_scale": False},
            {"quantize_state": False},
            {"quantize_products": False},
            {"bits": 24},  # no integer accumulator holds the aligned products
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_ablation_configs_decode_on_floats(self, tiny_model, monkeypatch, ssm_kwargs):
        model = _star(tiny_model, **ssm_kwargs)
        assert all(type(layer) is LayerCache for layer in model.new_cache(2).layers)

        def forbidden(self, *args, **kwargs):
            raise AssertionError("_step_integer entered on a float-state configuration")

        monkeypatch.setattr(QuantizedSSMStep, "_step_integer", forbidden)
        prompt = np.random.default_rng(3).integers(0, tiny_model.config.vocab_size, size=9)
        for scan_impl in ("chunked", "sequential"):
            logits, cache = model.prefill(prompt, scan_impl=scan_impl)
            logits = model.step(int(np.argmax(logits)), cache)
            assert np.isfinite(logits).all()
            assert all(type(layer) is LayerCache for layer in cache.layers)


class TestPersistentDecodeBitIdentity:
    def test_new_cache_is_integer_resident(self, tiny_model):
        for w_bits, a_bits in ((8, 8), (4, 4)):  # every default lightmamba* model
            cache = _star(tiny_model, w_bits, a_bits).new_cache(batch_size=3)
            assert all(isinstance(layer, QuantizedLayerCache) for layer in cache.layers)
            state = cache.layers[0].ssm_state
            assert isinstance(state, QuantizedSSMState)
            assert np.issubdtype(state.codes.dtype, np.integer)
            np.testing.assert_array_equal(state.codes, 0)
            np.testing.assert_array_equal(state.dequantize(), 0.0)
        # FP models keep the float cache.
        assert all(
            type(layer) is LayerCache for layer in tiny_model.new_cache().layers
        )

    @pytest.mark.parametrize("w_bits,a_bits", [(8, 8), (4, 4)])
    def test_decode_bit_identical_to_fake_quant(self, tiny_model, w_bits, a_bits):
        """One model, two caches: floats in run the oracle, codes in the
        integer iteration, and every byte agrees."""
        model = _star(tiny_model, w_bits, a_bits)
        rng = np.random.default_rng(3)
        prompt = rng.integers(0, tiny_model.config.vocab_size, size=17)

        logits_f, cache_f = model.prefill(prompt, cache=InferenceCache.zeros(model.config))
        logits_p, cache_p = model.prefill(prompt)
        assert logits_f.tobytes() == logits_p.tobytes()
        _assert_states_equal(cache_f, cache_p)

        token = int(np.argmax(logits_f))
        for _ in range(16):
            step_f = model.step(token, cache_f)
            step_p = model.step(token, cache_p)
            assert step_f.tobytes() == step_p.tobytes()
            token = int(np.argmax(step_f))
        # Each cache kept its representation the whole way, and they agree.
        for layer_f, layer_p in zip(cache_f.layers, cache_p.layers):
            assert type(layer_f) is LayerCache and type(layer_p) is QuantizedLayerCache
            assert layer_f.ssm_state.tobytes() == layer_p.ssm_state.dequantize().tobytes()
            assert layer_f.conv_state.tobytes() == layer_p.conv_state.tobytes()

    def test_greedy_decode_end_to_end(self, fake_quant, persistent):
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, fake_quant.config.vocab_size, size=9)
        ref = greedy_decode(fake_quant, prompt, 10)
        out = greedy_decode(persistent, prompt, 10)
        assert out.tokens == ref.tokens
        np.testing.assert_array_equal(out.logprobs, ref.logprobs)

    def test_sequential_oracle_prefill_stays_resident(self, fake_quant, persistent):
        rng = np.random.default_rng(7)
        prompt = rng.integers(0, fake_quant.config.vocab_size, size=11)
        logits_f, cache_f = fake_quant.prefill(prompt, scan_impl="sequential")
        logits_p, cache_p = persistent.prefill(prompt, scan_impl="sequential")
        np.testing.assert_array_equal(logits_f, logits_p)
        _assert_states_equal(cache_f, cache_p)
        assert type(cache_f.layers[0]) is LayerCache
        assert isinstance(cache_p.layers[0].ssm_state, QuantizedSSMState)


class TestQuantizedCacheLifecycle:
    def _batched_cache(self, persistent, batch=4, seed=2):
        rng = np.random.default_rng(seed)
        prompts = np.stack(
            [rng.integers(0, persistent.config.vocab_size, size=7) for _ in range(batch)]
        )
        _, cache = persistent.prefill(prompts)
        return cache

    @pytest.mark.parametrize("form", ["float", "resident"])
    def test_row_stack_roundtrip(self, request, form, cache_arrays):
        model = request.getfixturevalue(_FORM_FIXTURES[form])
        cache = self._batched_cache(model)
        rows = [cache.row(i) for i in range(4)]
        stacked = InferenceCache.stack(rows)
        assert type(stacked.layers[0]) is _FORM_CLASSES[form]
        for result in (stacked, *rows):
            assert not any(
                np.shares_memory(a, b) for a in cache_arrays(result) for b in cache_arrays(cache)
            )
        for orig, back in zip(cache_arrays(cache), cache_arrays(stacked)):
            assert orig.dtype == back.dtype
            np.testing.assert_array_equal(orig, back)

    @pytest.mark.parametrize("form", ["float", "resident"])
    def test_gather_scatter_roundtrip(self, request, form, cache_arrays):
        model = request.getfixturevalue(_FORM_FIXTURES[form])
        cache = self._batched_cache(model)
        reference = cache.copy()
        swapped = cache.gather([1, 0, 3, 2])
        assert type(swapped.layers[0]) is _FORM_CLASSES[form]
        assert not any(
            np.shares_memory(a, b) for a in cache_arrays(swapped) for b in cache_arrays(cache)
        )
        cache.scatter([1, 0, 3, 2], swapped)  # swap back into place
        for orig, now in zip(cache_arrays(reference), cache_arrays(cache)):
            np.testing.assert_array_equal(orig, now)

    def test_scatter_rejects_float_source(self, persistent, fake_quant, tiny_model):
        """Mixing the state forms raises a TypeError naming both forms, before
        anything is written -- into either pool, and in either stack order."""
        # Other prompts for the float rows, so a written conv window would show.
        resident, floats = self._batched_cache(persistent), self._batched_cache(fake_quant, seed=3)
        with pytest.raises(TypeError, match="integer-resident"):
            resident.layers[0].scatter([0], LayerCache.zeros(tiny_model.config, batch_size=1))
        for pool, src in ((resident, floats), (floats, resident)):
            before = pool.copy()
            with pytest.raises(TypeError, match=r"integer-resident.*float|float.*integer-resident"):
                pool.layers[0].scatter([0, 1], src.gather([0, 1]).layers[0])
            assert pool.state_equal(before)  # the conv window too
            with pytest.raises(TypeError, match=r"integer-resident.*float|float.*integer-resident"):
                InferenceCache.stack([pool.row(0), src.row(0)])

    @pytest.mark.parametrize(
        "field,value",
        [("codes", None), ("bits", 4), ("group_size", 16), ("rows", 1)],
    )
    def test_scatter_and_stack_reject_a_layout_mismatch(self, persistent, field, value):
        """A source whose codes are held wider than the pool's (or whose grid
        differs) must raise: numpy would otherwise narrow it silently on
        assignment and wrap whatever does not fit.  So must a resident state
        handed fewer source rows than indices, which numpy would broadcast."""
        cache = self._batched_cache(persistent)
        pool, src = cache.layers[0], cache.gather([0, 1]).layers[0]
        assert pool.ssm_state.codes.dtype == np.int8
        if field == "rows":
            before = pool.ssm_state.copy()
            with pytest.raises(ValueError, match="one src row per index"):
                pool.ssm_state[[2, 3]] = cache.gather([0]).layers[0].ssm_state
            assert pool.ssm_state.exact_equal(before)
            return
        if field == "codes":
            src.ssm_state.codes = src.ssm_state.codes.astype(np.int32) + 1000
        else:
            setattr(src.ssm_state, field, value)
        before = pool.copy()
        with pytest.raises(ValueError, match="one layout"):
            pool.scatter([2, 3], src)
        with pytest.raises(ValueError, match="one layout"):
            cache.scatter([2, 3], InferenceCache([src] + cache.gather([0, 1]).layers[1:]))
        assert pool.state_equal(before)  # nothing was written, conv window included
        rows = [pool.row(0), src.row(0)]
        with pytest.raises(ValueError, match="one layout"):
            QuantizedLayerCache.stack(rows)
        with pytest.raises(ValueError, match="one layout"):
            InferenceCache.stack([InferenceCache([row]) for row in rows])

    def test_engine_admission_eviction_matches_solo(self, persistent):
        rng = np.random.default_rng(23)
        vocab = persistent.config.vocab_size
        requests = [
            Request(prompt=tuple(rng.integers(0, vocab, size=size)), max_new_tokens=budget)
            for size, budget in ((9, 4), (3, 6), (14, 3), (5, 5), (2, 7))
        ]
        engine = InferenceEngine(persistent, max_batch_size=2)
        completions = engine.run(requests)
        assert len(completions) == len(requests)
        by_id = {c.request_id: c for c in completions}
        for rid, request in enumerate(requests):
            ref = greedy_decode(persistent, request.prompt, request.max_new_tokens)
            assert by_id[rid].result.tokens == ref.tokens
            # Batched BLAS kernels may round the last bits differently than
            # solo decode (the documented 1e-10 equivalence); the *bitwise*
            # claim of this PR is persistent-vs-fake at equal batching, pinned
            # in TestPersistentDecodeBitIdentity.
            np.testing.assert_allclose(by_id[rid].result.logprobs, ref.logprobs, atol=1e-10)

    def test_fixed_batch_matches_float_cache_twin(self, persistent, fake_quant):
        """One ragged batch on integer state == the same model on float caches."""
        rng = np.random.default_rng(29)
        vocab = persistent.config.vocab_size
        requests = [
            Request(prompt=tuple(rng.integers(0, vocab, size=n)), max_new_tokens=6)
            for n in (5, 11, 8)
        ]
        results = InferenceEngine(persistent, max_batch_size=3).run(requests)
        reference = InferenceEngine(fake_quant, max_batch_size=3).run(requests)
        for got, ref in zip(results, reference):
            assert got.result.tokens == ref.result.tokens
            np.testing.assert_array_equal(got.result.logprobs, ref.result.logprobs)

    def test_preempted_prefill_resumes_bit_identical(self, tiny_config):
        # chunk_size=4 so the 4-token admission budget segments the prompt on
        # chunk boundaries: segmented quantized prefill is then bit-exact with
        # the solo one-shot prefill (PoT state re-quantization is idempotent
        # on chunk-aligned hand-offs).
        from dataclasses import replace

        config = replace(tiny_config, name="tiny-chunk4", chunk_size=4)
        model = Mamba2Model.from_config(config, InitConfig(seed=0))
        pers = _star(model)
        rng = np.random.default_rng(13)
        vocab = config.vocab_size
        engine = InferenceEngine(
            pers,
            max_batch_size=1,
            scheduler=PriorityScheduler(prefill_chunk_tokens=4, preempt=True),
        )
        long_req = Request(prompt=tuple(rng.integers(0, vocab, size=20)), max_new_tokens=2)
        short_req = Request(prompt=tuple(rng.integers(0, vocab, size=3)), max_new_tokens=2)
        long_id = engine.submit(long_req, priority=0)
        engine.step()
        assert engine.num_prefilling == 1
        short_id = engine.submit(short_req, priority=5)
        completions = []
        while engine.has_work:
            completions.extend(engine.step())
        assert engine.stats.preempted == 1
        by_id = {c.request_id: c for c in completions}
        for rid, request in ((long_id, long_req), (short_id, short_req)):
            ref = greedy_decode(pers, request.prompt, request.max_new_tokens)
            assert by_id[rid].result.tokens == ref.tokens
            np.testing.assert_allclose(by_id[rid].result.logprobs, ref.logprobs, atol=1e-10)


class TestChannelMinorStorage:
    """The resident state is stored channel-minor -- codes ``(..., heads,
    d_state, headdim)``, scales ``(..., heads, groups, headdim)``, both
    C-contiguous: the order the compiled step's head tile reads and writes in
    place -- and every producer and row operation keeps it, while ``codes`` /
    ``scales`` keep the logical shapes and the logical bytes of the
    head-major layout they replace."""

    @staticmethod
    def _assert_channel_minor(state):
        codes, scales = state.storage
        *lead, heads, headdim, d_state = state.codes.shape
        groups = state.scales.shape[-2]
        assert codes.shape == (*lead, heads, d_state, headdim) and codes.flags.c_contiguous
        assert scales.shape == (*lead, heads, groups, headdim) and scales.flags.c_contiguous
        assert np.shares_memory(codes, state.codes) and np.shares_memory(scales, state.scales)

    @staticmethod
    def _logical_bytes(state):
        return (np.ascontiguousarray(state.codes).tobytes(),
                np.ascontiguousarray(state.scales).tobytes())

    def _assert_holds(self, state, codes, scales):
        self._assert_channel_minor(state)
        assert self._logical_bytes(state) == (codes.tobytes(), scales.tobytes())

    def test_row_operations_keep_the_storage_order_and_the_bytes(self, rng):
        step = QuantizedSSMStep(SSMQuantConfig(group_size=16))
        values = rng.normal(size=(4, 3, 5, 40)) * 10.0 ** rng.integers(-3, 4, size=(4, 3, 5, 1))
        state = step.quantize_state_codes(values)
        # The head-major arrays the quantizer returns: what the container held before.
        qt = quantize(values, step._qcfg)
        codes, scales = qt.codes.astype(np.int8), qt.scales
        self._assert_holds(state, codes, scales)

        grouped = np.pad(codes.astype(np.float64), [(0, 0)] * 3 + [(0, 8)])
        grouped = grouped.reshape(4, 3, 5, 3, 16) * scales
        want = grouped.reshape(4, 3, 5, 48)[..., :40]
        assert np.ascontiguousarray(state.dequantize()).tobytes() == want.tobytes()

        cache = QuantizedLayerCache(rng.normal(size=(4, 6, 4)), state)
        gathered = cache.gather([2, 0])
        self._assert_holds(gathered.ssm_state, codes[[2, 0]], scales[[2, 0]])
        cache.scatter([1, 3], gathered)
        codes[[1, 3]], scales[[1, 3]] = codes[[2, 0]], scales[[2, 0]]
        self._assert_holds(cache.ssm_state, codes, scales)
        row = cache.row(1)
        self._assert_holds(row.ssm_state, codes[1], scales[1])
        stacked = LayerCache.stack([cache.row(3), row])
        self._assert_holds(stacked.ssm_state, codes[[3, 1]], scales[[3, 1]])
        self._assert_holds(state.copy(), codes, scales)
        self._assert_holds(state[2], codes[2], scales[2])

    def test_the_step_returns_the_storage_order(self, rng):
        step = QuantizedSSMStep(SSMQuantConfig(group_size=32))
        state = step.quantize_state_codes(rng.normal(size=(2, 3, 16, 64)))
        params = SSMParams(A_log=rng.normal(size=3), D=rng.normal(size=3),
                           dt_bias=rng.normal(size=3))
        args = (rng.normal(size=(2, 3, 16)), rng.normal(size=(2, 64)),
                rng.normal(size=(2, 64)), rng.normal(size=(2, 3)))
        _, stepped = step._step_integer(params, *args, state)
        _, oracle = step._step_oracle(params, *args, state)
        self._assert_holds(stepped, np.ascontiguousarray(oracle.codes),
                           np.ascontiguousarray(oracle.scales))
        # Prefill takes the float view over as the state its chunk hand-offs
        # are quantized into, in place: the compiled quantizer needs it
        # C-contiguous (a strided one sends every hand-off to numpy).
        assert stepped.dequantize().flags.c_contiguous


class TestZeroGroups:
    """All-zero quantization groups are well-defined end to end."""

    @pytest.mark.parametrize("pot_scale", [True, False])
    @pytest.mark.parametrize("quantize_state", [True, False])
    @pytest.mark.parametrize("quantize_products", [True, False])
    def test_all_zero_step_decodes_to_zero(
        self, pot_scale, quantize_state, quantize_products
    ):
        cfg = SSMQuantConfig(
            group_size=8,
            pot_scale=pot_scale,
            quantize_state=quantize_state,
            quantize_products=quantize_products,
        )
        step = QuantizedSSMStep(cfg)
        params = SSMParams(A_log=np.zeros(2), D=np.ones(2), dt_bias=np.zeros(2))
        zeros = np.zeros((2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, state = step(
                params, zeros, np.zeros(16), np.zeros(16), np.zeros(2), np.zeros((2, 3, 16))
            )
            ys, states = step.prefill_scan(
                params,
                np.zeros((5, 2, 3)),
                np.zeros((5, 16)),
                np.zeros((5, 16)),
                np.zeros((5, 2)),
                chunk_size=2,
            )
        np.testing.assert_array_equal(y, 0.0)
        np.testing.assert_array_equal(np.asarray(state, dtype=np.float64), 0.0)
        np.testing.assert_array_equal(ys, 0.0)
        np.testing.assert_array_equal(states, 0.0)

    @pytest.mark.parametrize("w_bits,a_bits,group", [(4, 4, 8), (8, 8, 4), (3, 5, 16)])
    def test_qlinear_zero_rows_and_groups(self, w_bits, a_bits, group):
        weight = np.zeros((6, 32))
        weight[0, :16] = np.linspace(-1, 1, 16)  # one half-zero row
        layer = QuantizedLinear.from_weight(weight, w_bits, a_bits, group_size=group)
        x = np.zeros(32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out_fake = layer.forward(x)
            out_int = layer.forward_integer(x)
            mixed = np.zeros((3, 32))
            mixed[1, 20:] = 2.5
            out_mixed = layer.forward_integer(mixed)
        np.testing.assert_array_equal(out_fake, 0.0)
        np.testing.assert_array_equal(out_int, 0.0)
        assert np.all(np.isfinite(out_mixed))
        np.testing.assert_array_equal(out_mixed[0], 0.0)

    def test_zeros_cache_is_exact_zero(self, persistent):
        cache = persistent.new_cache(batch_size=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = cache.layers[0].ssm_state.dequantize()
        np.testing.assert_array_equal(values, 0.0)


class TestGroupedIntegerMatmul:
    def test_shared_helper_matches_dense_matmul(self, rng):
        """grouped_integer_matmul == plain matmul once the scales are folded."""
        codes_a = rng.integers(-127, 128, size=(5, 32))
        codes_b = rng.integers(-127, 128, size=(7, 32))
        scales_a = 2.0 ** rng.integers(-8, 0, size=(5, 4))
        scales_b = 2.0 ** rng.integers(-8, 0, size=(7, 4))
        out = grouped_integer_matmul(
            codes_a, scales_a, codes_b, scales_b, group_size=8, x_qmax=127, w_qmax=127
        )
        dense_a = codes_a.reshape(5, 4, 8) * scales_a[:, :, None]
        dense_b = codes_b.reshape(7, 4, 8) * scales_b[:, :, None]
        expected = dense_a.reshape(5, 32) @ dense_b.reshape(7, 32).T
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_helper_validation(self):
        codes = np.zeros((2, 8), dtype=np.int32)
        scales = np.ones((2, 1))
        with pytest.raises(OverflowError):
            grouped_integer_matmul(
                codes, scales, codes, scales, group_size=8, x_qmax=2**15, w_qmax=2**15
            )
        with pytest.raises(ValueError, match="groups"):
            grouped_integer_matmul(
                codes, np.ones((2, 3)), codes, scales, group_size=8, x_qmax=127, w_qmax=127
            )


class TestQuantizedStateMemoryModel:
    def test_quantized_vs_fp16_footprint(self, tiny_config):
        from repro.hardware import QuantizedStateMemoryModel

        model = QuantizedStateMemoryModel(state_bits=8, group_size=32)
        quantized = model.quantized_footprint(tiny_config, batch_size=4)
        fp16 = model.fp16_footprint(tiny_config, batch_size=4)
        cfg = tiny_config
        state_elems = 4 * cfg.nheads * cfg.headdim * cfg.d_state * cfg.n_layer
        assert quantized.ssm_state_bytes == state_elems  # INT8: one byte each
        assert fp16.ssm_state_bytes == 2 * state_elems
        assert quantized.ssm_scale_bytes > 0
        assert fp16.ssm_scale_bytes == 0
        assert quantized.total_bytes < fp16.total_bytes
        ratio = model.compression_ratio(cfg, batch_size=4)
        assert 1.5 < ratio < 2.0  # codes halve, scales give a little back

    def test_matches_live_cache_accounting(self, persistent, tiny_config):
        """The model's byte count equals the serving cache's own accounting."""
        from repro.hardware import QuantizedStateMemoryModel

        model = QuantizedStateMemoryModel(state_bits=8, group_size=32)
        footprint = model.quantized_footprint(tiny_config, batch_size=3)
        cache = persistent.new_cache(batch_size=3)
        live_state_bytes = sum(
            layer.ssm_state.resident_bytes() for layer in cache.layers
        )
        assert footprint.ssm_state_bytes + footprint.ssm_scale_bytes == live_state_bytes

    @pytest.mark.parametrize("w_bits,a_bits", [(4, 4), (8, 8)])
    def test_numpy_holds_the_bytes_the_model_counts(self, tiny_model, w_bits, a_bits):
        """Counted work reconciles with the accelerator, first assertion: the
        bytes numpy holds for a lightmamba* cache's state codes are the code
        term of the cache's own accounting and of the on-chip buffer model --
        one byte per INT8 code, in the slot pool and after real decode."""
        from repro.hardware import QuantizedStateMemoryModel

        model = _star(tiny_model, w_bits, a_bits)
        config = model.config
        ssm = model.blocks[0].ssm_impl.config
        memory = QuantizedStateMemoryModel(state_bits=ssm.bits, group_size=ssm.group_size)
        prompts = np.random.default_rng(3).integers(0, config.vocab_size, size=(3, 6))
        _, decoded = model.prefill(prompts)
        model.step(prompts[:, 0], decoded)
        for cache in (model.new_cache(batch_size=3), decoded):
            held = sum(layer.ssm_state.codes.nbytes for layer in cache.layers)
            footprint = memory.quantized_footprint(config, batch_size=3)
            assert held == footprint.ssm_state_bytes
            conv = sum(layer.conv_state.size for layer in cache.layers) * 2.0
            scales = sum(layer.ssm_state.scales.size for layer in cache.layers) * 1.0
            assert held == cache.resident_state_bytes() - conv - scales
            assert cache.resident_state_bytes() == footprint.total_bytes

    def test_allocations_and_max_batch(self, tiny_config):
        from repro.hardware import QuantizedStateMemoryModel, VCK190

        model = QuantizedStateMemoryModel()
        footprint = model.quantized_footprint(tiny_config, batch_size=64)
        assert footprint.uram + footprint.bram > 0
        assert len(footprint.allocations) == 2 * tiny_config.n_layer
        max_batch = model.max_resident_batch(tiny_config, VCK190)
        assert max_batch >= 1
        over = model.quantized_footprint(tiny_config, batch_size=max_batch + 1)
        budget = VCK190.uram * 0.7
        assert model.quantized_footprint(tiny_config, max_batch).uram <= budget
        assert over.uram > budget

    def test_validation(self, tiny_config):
        from repro.hardware import QuantizedStateMemoryModel

        with pytest.raises(ValueError):
            QuantizedStateMemoryModel(state_bits=0)
        with pytest.raises(ValueError):
            QuantizedStateMemoryModel().quantized_footprint(tiny_config, batch_size=0)


class TestCancelRace:
    """A cancel from ``on_token`` races the request's own final iteration:
    the lifecycle machine (``tests/test_lifecycle.py``) checks that it
    returns ``False`` iff the streamed token was terminal, and that the
    request then keeps its true finish reason, retired once."""

    def test_cancel_loses_race_against_stop_token(self):
        with replay("fifo", slots=2) as state:
            rid = state.submit(6, 8, stop=0)  # stops on its first token
            state.arm(rid)  # cancel on the terminal token
            state.drain()
            state.cancel(rid)  # long gone: not found
        assert not state.arms and state.outcomes[rid].reason == "stop"

    def test_cancel_loses_race_against_length_budget(self):
        with replay("fifo", slots=1) as state:
            state.arm(state.submit(5, 3))
        assert not state.arms and state.outcomes[0].reason == "length"

    def test_cancel_mid_decode_still_wins(self):
        """A cancel before the terminal token keeps its normal semantics."""
        with replay("fifo", slots=1) as state:
            state.arm(state.submit(5, 10), at=2)
        assert len(state.outcomes[0].tokens) == 2


class TestEmptyPrompts:
    def test_request_rejects_empty_prompt(self):
        with pytest.raises(ValueError, match="BOS"):
            Request(prompt=(), max_new_tokens=2)

    def test_prefill_rejects_zero_length_with_clear_error(self, tiny_model):
        with pytest.raises(ValueError, match="BOS"):
            tiny_model.prefill(np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="BOS"):
            tiny_model.prefill(np.zeros((2, 0), dtype=np.int64))

    def test_bos_only_prompt_flows_through_serving(self, tiny_model):
        """A whitespace-only input encoded as BOS-only decodes normally."""
        from repro.mamba.tokenizer import ByteTokenizer

        tokenizer = ByteTokenizer()
        prompt = tokenizer.encode("")  # add_bos=True -> [bos]
        assert prompt == [tokenizer.bos_id]
        engine = InferenceEngine(tiny_model, max_batch_size=1)
        engine.submit(Request(prompt=tuple(prompt), max_new_tokens=3))
        completions = engine.run()
        assert len(completions[0].result.tokens) == 3
        ref = greedy_decode(tiny_model, prompt, 3)
        assert completions[0].result.tokens == ref.tokens
