"""Tests for the rotation-assisted quantization transformation (Fig. 4a)."""

import numpy as np
import pytest

from repro.mamba import InitConfig, Linear, Mamba2Model, get_preset
from repro.quant import (
    OnlineHadamard,
    RotationConfig,
    rotate_model,
    rtn_quantize_weight,
)
from repro.quant.error import relative_error
from repro.quant.rtn import rtn_quantize_activation


@pytest.fixture(scope="module")
def model():
    return Mamba2Model.from_config(get_preset("mamba2-tiny"), InitConfig(seed=3))


@pytest.fixture(scope="module")
def tokens(model):
    rng = np.random.default_rng(0)
    return rng.integers(0, model.config.vocab_size, size=24)


class TestEquivalence:
    def test_rotated_model_matches_original_logits(self, model, tokens):
        """The fused-and-rotated FP model must be numerically equivalent."""
        rotated = rotate_model(model, RotationConfig(seed=1))
        base_logits = model.forward(tokens)
        rot_logits = rotated.model.forward(tokens)
        np.testing.assert_allclose(rot_logits, base_logits, rtol=1e-6, atol=1e-6)

    def test_equivalence_with_fused_gated_norm(self, model, tokens):
        """The 'fuse and rotate' variant of Fig. 4b is also exact in FP."""
        rotated = rotate_model(model, RotationConfig(seed=1, fuse_gated_norm=True))
        np.testing.assert_allclose(
            rotated.model.forward(tokens), model.forward(tokens), rtol=1e-6, atol=1e-6
        )

    def test_equivalence_without_online_hadamard(self, model, tokens):
        rotated = rotate_model(model, RotationConfig(seed=2, online_hadamard=False))
        np.testing.assert_allclose(
            rotated.model.forward(tokens), model.forward(tokens), rtol=1e-6, atol=1e-6
        )

    def test_equivalence_in_decode(self, model):
        """Equivalence must also hold on the single-token decode path."""
        rotated = rotate_model(model, RotationConfig(seed=4)).model
        prompt = np.array([3, 7, 11, 2])
        logits_a, cache_a = model.prefill(prompt)
        logits_b, cache_b = rotated.prefill(prompt)
        np.testing.assert_allclose(logits_b, logits_a, rtol=1e-6, atol=1e-6)
        step_a = model.step(5, cache_a)
        step_b = rotated.step(5, cache_b)
        np.testing.assert_allclose(step_b, step_a, rtol=1e-6, atol=1e-6)

    def test_projection_biases_are_rotated(self, model, tokens):
        """A bias on either projection survives the rotation: the out-projection's
        output, bias included, lands in the rotated residual basis."""
        biased = model.copy()
        rng = np.random.default_rng(13)
        for block in biased.blocks:
            for name in ("in_proj", "out_proj"):
                proj = getattr(block, name)
                bias = rng.normal(size=proj.weight.shape[0])
                setattr(block, name, Linear(proj.weight, bias, proj.transforms))
        rotated = rotate_model(biased, RotationConfig(seed=13)).model
        np.testing.assert_allclose(
            rotated.forward(tokens), biased.forward(tokens), rtol=1e-9, atol=1e-9
        )

    def test_original_model_untouched(self, model, tokens):
        before = model.blocks[0].in_proj.weight.copy()
        rotate_model(model, RotationConfig(seed=5))
        np.testing.assert_array_equal(model.blocks[0].in_proj.weight, before)

    def test_rotation_matrix_is_orthogonal(self, model):
        rotated = rotate_model(model, RotationConfig(seed=6))
        q = rotated.residual_rotation
        np.testing.assert_allclose(q @ q.T, np.eye(q.shape[0]), atol=1e-9)

    def test_norm_scales_are_split_off(self, model):
        rotated = rotate_model(model, RotationConfig(seed=7)).model
        for block in rotated.blocks:
            np.testing.assert_allclose(block.norm.weight, 1.0)
        np.testing.assert_allclose(rotated.norm_f.weight, 1.0)
        assert rotated.lm_head_weight is not None  # rotated model is untied

    def test_online_hook_installed(self, model):
        rotated = rotate_model(model, RotationConfig(seed=8))
        for block, dim in zip(rotated.model.blocks, rotated.online_dims):
            assert [type(t) for t in block.out_proj.transforms] == [OnlineHadamard]
            assert dim == model.config.d_inner


class TestOutlierRemoval:
    def _out_proj_inputs(self, m, tokens):
        collect = []
        m.forward(tokens, collect=collect)
        # The activation actually seen by the out-proj matmul includes the
        # online rotation when present.
        acts = []
        for block, layer_acts in zip(m.blocks, collect):
            acts.append(block.out_proj.pre(layer_acts["out_proj_input"]))
        return acts

    def test_rotation_reduces_activation_outliers(self, model, tokens):
        """Rotation amortises the scattered out-proj outliers (Fig. 2)."""
        rotated = rotate_model(model, RotationConfig(seed=9)).model
        base_acts = self._out_proj_inputs(model, tokens)
        rot_acts = self._out_proj_inputs(rotated, tokens)

        def peak_to_rms(acts):
            stacked = np.concatenate([a.reshape(-1, a.shape[-1]) for a in acts])
            rms = np.sqrt(np.mean(stacked**2))
            return np.max(np.abs(stacked)) / rms

        assert peak_to_rms(rot_acts) < peak_to_rms(base_acts)

    def test_rotation_reduces_activation_quant_error(self, model, tokens):
        """4-bit quantization error of the out-proj activation drops (Table II)."""
        rotated = rotate_model(model, RotationConfig(seed=10)).model
        base_acts = np.concatenate(self._out_proj_inputs(model, tokens))
        rot_acts = np.concatenate(self._out_proj_inputs(rotated, tokens))
        err_base = relative_error(base_acts, rtn_quantize_activation(base_acts, 4, group_size=32))
        err_rot = relative_error(rot_acts, rtn_quantize_activation(rot_acts, 4, group_size=32))
        assert err_rot < err_base

    def test_rotation_reduces_weight_quant_error(self, model):
        """Rotated input-projection weights quantize with lower error."""
        base_err, rot_err = [], []
        rotated = rotate_model(model, RotationConfig(seed=11)).model
        for orig_block, rot_block in zip(model.blocks, rotated.blocks):
            w0 = orig_block.in_proj.weight
            w1 = rot_block.in_proj.weight
            base_err.append(relative_error(w0, rtn_quantize_weight(w0, 4, 32)))
            rot_err.append(relative_error(w1, rtn_quantize_weight(w1, 4, 32)))
        assert np.mean(rot_err) < np.mean(base_err) * 1.05

    def test_fuse_gated_norm_increases_out_proj_weight_error(self, model):
        """Fig. 4b: fusing the gated-norm scale hurts weight quantization.

        The gated-norm scale is heavy-tailed in real checkpoints; multiplying
        it into the output-projection weight inflates the weight's dynamic
        range, so the absolute 4-bit quantization error of that weight grows
        ("fuse and rotate" sits above "only rotate" in Fig. 4b).
        """
        from repro.quant.error import quantization_error

        # Make the effect visible with a heavy-tailed gated-norm scale, as in
        # real checkpoints.
        skewed = model.copy()
        rng = np.random.default_rng(0)
        for block in skewed.blocks:
            block.gated_norm.weight = block.gated_norm.weight * rng.lognormal(
                0.0, 1.5, size=block.gated_norm.weight.shape
            )
        not_fused = rotate_model(skewed, RotationConfig(seed=12, fuse_gated_norm=False)).model
        fused = rotate_model(skewed, RotationConfig(seed=12, fuse_gated_norm=True)).model
        err_not_fused, err_fused = [], []
        for a, b in zip(not_fused.blocks, fused.blocks):
            err_not_fused.append(
                quantization_error(a.out_proj.weight, rtn_quantize_weight(a.out_proj.weight, 4, 32))
            )
            err_fused.append(
                quantization_error(b.out_proj.weight, rtn_quantize_weight(b.out_proj.weight, 4, 32))
            )
        assert np.mean(err_fused) > np.mean(err_not_fused)


class TestOnlineHadamard:
    def test_hook_matches_matrix_rotation(self):
        hook = OnlineHadamard(128)
        x = np.random.default_rng(0).normal(size=(3, 128))
        from repro.quant.hadamard import hadamard_matrix

        np.testing.assert_allclose(
            hook(x), x @ hadamard_matrix(128, normalized=True), atol=1e-9
        )

    def test_hook_supports_single_token(self):
        hook = OnlineHadamard(64)
        x = np.random.default_rng(1).normal(size=64)
        assert hook(x).shape == (64,)
