"""Integration tests for whole-model quantization (calibration + qmodel)."""

import numpy as np
import pytest

from repro.hardware.mmu import MatrixMultiplyUnit, MMUConfig
from repro.mamba import InitConfig, Mamba2Config, Mamba2Model, get_preset, greedy_decode
from repro.quant import (
    QuantConfig,
    QuantizedLinear,
    QuantMethod,
    collect_activation_stats,
    quantize_dequantize,
    quantize_model,
)
from repro.quant.rotation import OnlineHadamard
from repro.quant.ssm_quant import QuantizedSSMStep


@pytest.fixture(scope="module")
def model():
    return Mamba2Model.from_config(get_preset("mamba2-tiny"), InitConfig(seed=11))


@pytest.fixture(scope="module")
def calib_sequences(model):
    rng = np.random.default_rng(21)
    return [rng.integers(0, model.config.vocab_size, size=32) for _ in range(4)]


@pytest.fixture(scope="module")
def calibration(model, calib_sequences):
    return collect_activation_stats(model, calib_sequences, store_samples=True)


@pytest.fixture(scope="module")
def eval_tokens(model):
    rng = np.random.default_rng(99)
    return rng.integers(0, model.config.vocab_size, size=48)


ALL_METHODS = [
    QuantMethod.RTN,
    QuantMethod.SMOOTHQUANT,
    QuantMethod.OSPLUS,
    QuantMethod.LIGHTMAMBA,
    QuantMethod.LIGHTMAMBA_STAR,
]


class TestCalibration:
    def test_result_shapes(self, model, calibration):
        cfg = model.config
        assert calibration.num_layers == cfg.n_layer
        assert calibration.in_proj_absmax(0).shape == (cfg.d_model,)
        assert calibration.out_proj_absmax(0).shape == (cfg.d_inner,)
        lo, hi = calibration.out_proj_minmax(1)
        assert np.all(hi >= lo)

    def test_token_count(self, calibration, calib_sequences):
        assert calibration.num_tokens == sum(len(s) for s in calib_sequences)

    def test_samples_stored(self, model, calibration):
        sample = calibration.sample("out_proj_input", 0)
        assert sample.shape[1] == model.config.d_inner
        assert sample.shape[0] == calibration.num_tokens

    def test_requires_sequences(self, model):
        with pytest.raises(ValueError):
            collect_activation_stats(model, [])


class TestQuantizeModel:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_w8a8_close_to_fp(self, model, calibration, eval_tokens, method):
        """All methods keep W8A8 logits close to FP (Table III, top half)."""
        config = QuantConfig.w8a8(method, group_size=32)
        qmodel = quantize_model(model, config, calibration=calibration)
        fp = model.forward(eval_tokens)
        q = qmodel.forward(eval_tokens)
        # Compare next-token prediction agreement rather than raw logits.
        agreement = np.mean(np.argmax(fp, axis=1) == np.argmax(q, axis=1))
        assert agreement > 0.85

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_w4a4_produces_finite_output(self, model, calibration, eval_tokens, method):
        config = QuantConfig.w4a4(method, group_size=32)
        qmodel = quantize_model(model, config, calibration=calibration)
        out = qmodel.forward(eval_tokens)
        assert np.all(np.isfinite(out))

    def test_lightmamba_w4a4_beats_rtn(self, model, calibration, eval_tokens):
        """Rotation-assisted W4A4 tracks the FP model better than RTN W4A4.

        Fidelity is the mean KL divergence between the FP and the quantized
        next-token distributions (lower is better); the rotated model must be
        strictly closer to the FP reference.
        """
        from repro.mamba.ops import softmax

        fp_probs = softmax(model.forward(eval_tokens), axis=-1)

        def kl_to_fp(method):
            qmodel = quantize_model(
                model, QuantConfig.w4a4(method, group_size=32), calibration=calibration
            )
            q_probs = softmax(qmodel.forward(eval_tokens), axis=-1)
            kl = np.sum(fp_probs * (np.log(fp_probs + 1e-12) - np.log(q_probs + 1e-12)), axis=1)
            return float(np.mean(kl))

        assert kl_to_fp(QuantMethod.LIGHTMAMBA) < kl_to_fp(QuantMethod.RTN)

    def test_fp16_method_is_identity(self, model, eval_tokens):
        q = quantize_model(model, QuantConfig(method=QuantMethod.FP16))
        np.testing.assert_allclose(q.forward(eval_tokens), model.forward(eval_tokens))

    def test_original_model_not_modified(self, model, calibration, eval_tokens):
        before = model.forward(eval_tokens)
        quantize_model(model, QuantConfig.w4a4(QuantMethod.LIGHTMAMBA_STAR, group_size=32))
        quantize_model(
            model,
            QuantConfig.w4a4(QuantMethod.OSPLUS, group_size=32),
            calibration=calibration,
        )
        np.testing.assert_array_equal(model.forward(eval_tokens), before)

    def test_calibration_required_for_sq(self, model):
        with pytest.raises(ValueError):
            quantize_model(model, QuantConfig.w8a8(QuantMethod.SMOOTHQUANT))

    def test_calibration_from_sequences(self, model, calib_sequences, eval_tokens):
        q = quantize_model(
            model,
            QuantConfig.w8a8(QuantMethod.SMOOTHQUANT, group_size=32),
            calib_sequences=calib_sequences,
        )
        assert np.all(np.isfinite(q.forward(eval_tokens)))

    def test_lightmamba_installs_hadamard_hook(self, model):
        q = quantize_model(model, QuantConfig.w4a4(QuantMethod.LIGHTMAMBA, group_size=32))
        out_proj = q.blocks[0].out_proj
        assert isinstance(out_proj, QuantizedLinear)
        assert [type(t) for t in out_proj.transforms] == [OnlineHadamard]
        # The online Hadamard first, then activation quantization.
        d_inner = model.config.d_inner
        x = np.random.default_rng(0).normal(size=(3, d_inner))
        rotated = OnlineHadamard(d_inner)(x)
        expected = quantize_dequantize(rotated, out_proj.act_config)
        assert not np.array_equal(expected, rotated)
        np.testing.assert_array_equal(out_proj.pre(x), expected)
        np.testing.assert_array_equal(out_proj(x), expected @ out_proj.weight.T)

    def test_star_quantizes_ssm(self, model):
        star = quantize_model(model, QuantConfig.w4a4(QuantMethod.LIGHTMAMBA_STAR, group_size=32))
        plain = quantize_model(model, QuantConfig.w4a4(QuantMethod.LIGHTMAMBA, group_size=32))
        assert all(isinstance(b.ssm_impl, QuantizedSSMStep) for b in star.blocks)
        assert all(b.ssm_impl is None for b in plain.blocks)

    def test_osplus_installs_bias_compensation(self, model, calibration):
        q = quantize_model(
            model, QuantConfig.w8a8(QuantMethod.OSPLUS, group_size=32), calibration=calibration
        )
        assert q.blocks[0].in_proj.bias is not None
        assert q.blocks[0].out_proj.bias is not None

    def test_quantized_weights_are_on_grid(self, model):
        """Weights of the quantized model must take at most 2^bits distinct levels per group."""
        q = quantize_model(model, QuantConfig.w4a4(QuantMethod.RTN, group_size=32))
        w = q.blocks[0].out_proj.weight
        group = w[0, :32]
        scale = np.max(np.abs(group)) / 7.0
        codes = group / max(scale, 1e-12)
        np.testing.assert_allclose(codes, np.round(codes), atol=1e-6)

    @pytest.mark.parametrize("bits", [4, 8])
    def test_weight_bytes_match_the_mmu_model(self, bits):
        """The projections' stored codes and scales are the bytes the MMU model streams."""
        config = Mamba2Config(
            name="e2e", d_model=256, n_layer=2, vocab_size=512, d_state=128, headdim=64
        )
        fp = Mamba2Model.from_config(config, InitConfig(seed=0))
        q = quantize_model(fp, QuantConfig(QuantMethod.LIGHTMAMBA_STAR, w_bits=bits, a_bits=bits))
        mmu = MatrixMultiplyUnit(MMUConfig(weight_bits=bits, act_bits=bits))
        total = 0.0
        for block in q.blocks:
            for proj in (block.in_proj, block.out_proj):
                assert isinstance(proj, QuantizedLinear)
                assert proj.weight_qt.codes.dtype == np.int8
                total += proj.memory_bytes()
        per_block = mmu.weight_bytes(config.d_model, config.d_in_proj, 128) + mmu.weight_bytes(
            config.d_inner, config.d_model, 128
        )
        assert total == config.n_layer * per_block
        if bits == 4:
            assert q.blocks[0].in_proj.memory_bytes() == 170_016

    def test_quantized_model_decodes(self, model):
        q = quantize_model(model, QuantConfig.w4a4(QuantMethod.LIGHTMAMBA_STAR, group_size=32))
        result = greedy_decode(q, [1, 2, 3], max_new_tokens=4)
        assert len(result) == 4

    def test_label(self):
        assert QuantConfig.w4a4(QuantMethod.LIGHTMAMBA).label == "lightmamba W4A4"
