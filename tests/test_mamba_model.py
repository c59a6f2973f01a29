"""Tests of the Mamba2 model substrate: config, layers, block, model, decode."""

import numpy as np
import pytest

from repro.mamba import (
    CausalConv1d,
    GatedRMSNorm,
    InferenceCache,
    InitConfig,
    Linear,
    Mamba2Config,
    Mamba2Model,
    OutlierProfile,
    RMSNorm,
    SSMParams,
    get_preset,
    greedy_decode,
    sample_decode,
    ssm_scan,
    ssm_step,
)
from repro.mamba.ssm import ssm_step_trace


class TestConfig:
    def test_preset_2p7b_dimensions(self):
        """The 2.7B preset must match the dimensions the paper's HTU implies."""
        cfg = get_preset("mamba2-2.7b")
        assert cfg.d_model == 2560
        assert cfg.n_layer == 64
        assert cfg.d_inner == 5120
        assert cfg.nheads == 80
        # d_inner = 5120 = 128 * 40: the paper's 128-point and 40-point HTUs.
        assert cfg.d_inner == 128 * 40

    def test_parameter_counts_are_roughly_model_names(self):
        """Parameter counts should land near the nominal model sizes."""
        approx = {
            "mamba2-130m": 130e6,
            "mamba2-370m": 370e6,
            "mamba2-780m": 780e6,
            "mamba2-1.3b": 1.3e9,
            "mamba2-2.7b": 2.7e9,
        }
        for name, nominal in approx.items():
            count = get_preset(name).num_parameters()
            assert 0.6 * nominal < count < 1.6 * nominal, (name, count)

    def test_derived_dimensions(self):
        cfg = Mamba2Config(d_model=64, n_layer=2, vocab_size=100, d_state=16, headdim=16)
        assert cfg.d_inner == 128
        assert cfg.nheads == 8
        assert cfg.conv_dim == 128 + 2 * 16
        assert cfg.d_in_proj == 2 * 128 + 2 * 16 + 8

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Mamba2Config(d_model=0)
        with pytest.raises(ValueError):
            Mamba2Config(d_model=100, headdim=64)  # d_inner not divisible

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            get_preset("mamba2-9000b")

    def test_with_overrides(self):
        cfg = get_preset("mamba2-tiny").with_overrides(n_layer=5)
        assert cfg.n_layer == 5
        assert cfg.d_model == get_preset("mamba2-tiny").d_model


class TestNorms:
    def test_rmsnorm_scale_applied(self):
        norm = RMSNorm(weight=np.full(8, 2.0), eps=0.0)
        x = np.ones((3, 8))
        np.testing.assert_allclose(norm(x), np.full((3, 8), 2.0), rtol=1e-12)

    def test_rmsnorm_rejects_wrong_dim(self):
        norm = RMSNorm(weight=np.ones(8))
        with pytest.raises(ValueError):
            norm(np.ones((2, 9)))

    def test_gated_norm_zero_gate_zeroes_output(self):
        norm = GatedRMSNorm(weight=np.ones(8))
        x = np.random.default_rng(0).normal(size=(4, 8))
        out = norm(x, np.zeros_like(x))
        np.testing.assert_allclose(out, np.zeros_like(x), atol=1e-12)

    def test_gated_norm_shape_mismatch(self):
        norm = GatedRMSNorm(weight=np.ones(8))
        with pytest.raises(ValueError):
            norm(np.ones((2, 8)), np.ones((3, 8)))


class TestConv1d:
    def _conv(self, channels=6, k=4, seed=0):
        rng = np.random.default_rng(seed)
        return CausalConv1d(
            weight=rng.normal(size=(channels, k)),
            bias=rng.normal(size=channels),
            activation=False,
        )

    def test_causality(self):
        """Output at time t must not depend on inputs after t."""
        conv = self._conv()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 6))
        base = conv.forward(x)
        x2 = x.copy()
        x2[7:] += 100.0
        out2 = conv.forward(x2)
        np.testing.assert_allclose(base[:7], out2[:7], rtol=1e-12)

    def test_step_matches_forward(self):
        """Incremental decode must reproduce the full-sequence convolution."""
        conv = self._conv()
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 6))
        full = conv.forward(x)
        state = conv.initial_state()
        for t in range(12):
            out, state = conv.step(x[t], state)
            np.testing.assert_allclose(out, full[t], rtol=1e-10, atol=1e-12)

    def test_activation_applied(self):
        convA = self._conv()
        convB = CausalConv1d(convA.weight, convA.bias, activation=True)
        x = np.random.default_rng(3).normal(size=(5, 6))
        a = convA.forward(x)
        b = convB.forward(x)
        np.testing.assert_allclose(b, a / (1 + np.exp(-a)), rtol=1e-10)

    def test_shape_validation(self):
        conv = self._conv()
        with pytest.raises(ValueError):
            conv.forward(np.ones((5, 7)))
        with pytest.raises(ValueError):
            conv.step(np.ones(7), conv.initial_state())


class TestSSM:
    def _params(self, nheads=4, seed=0):
        rng = np.random.default_rng(seed)
        return SSMParams(
            A_log=np.log(rng.uniform(1, 8, size=nheads)),
            D=rng.normal(1.0, 0.1, size=nheads),
            dt_bias=rng.normal(size=nheads),
        )

    def test_step_shapes(self):
        params = self._params()
        x = np.random.default_rng(1).normal(size=(4, 8))
        B = np.random.default_rng(2).normal(size=16)
        C = np.random.default_rng(3).normal(size=16)
        dt = np.random.default_rng(4).normal(size=4)
        state = np.zeros((4, 8, 16))
        y, new_state = ssm_step(params, x, B, C, dt, state)
        assert y.shape == (4, 8)
        assert new_state.shape == (4, 8, 16)

    def test_scan_equals_repeated_steps(self):
        params = self._params()
        rng = np.random.default_rng(5)
        T, H, P, N = 7, 4, 8, 16
        x = rng.normal(size=(T, H, P))
        B = rng.normal(size=(T, N))
        C = rng.normal(size=(T, N))
        dt = rng.normal(size=(T, H))
        y_scan, final = ssm_scan(params, x, B, C, dt)
        state = np.zeros((H, P, N))
        for t in range(T):
            y_t, state = ssm_step(params, x[t], B[t], C[t], dt[t], state)
            np.testing.assert_allclose(y_scan[t], y_t, rtol=1e-12)
        np.testing.assert_allclose(final, state, rtol=1e-12)

    def test_state_decays_without_input(self):
        """With zero input the hidden state must contract (|A_bar| < 1)."""
        params = self._params()
        rng = np.random.default_rng(6)
        state = rng.normal(size=(4, 8, 16))
        x = np.zeros((4, 8))
        B = np.zeros(16)
        C = np.zeros(16)
        dt = np.zeros(4)
        _, new_state = ssm_step(params, x, B, C, dt, state)
        assert np.all(np.abs(new_state) <= np.abs(state) + 1e-12)

    def test_trace_contains_all_elementwise_ops(self):
        from repro.mamba.ssm import SSM_ELEMENTWISE_OPS

        params = self._params()
        rng = np.random.default_rng(7)
        y, new_state, trace = ssm_step_trace(
            params,
            rng.normal(size=(4, 8)),
            rng.normal(size=16),
            rng.normal(size=16),
            rng.normal(size=4),
            np.zeros((4, 8, 16)),
        )
        for name in SSM_ELEMENTWISE_OPS:
            assert name in trace
        np.testing.assert_allclose(
            y, np.sum(trace["h_mul_C"], axis=-1) + trace["x_mul_D"], rtol=1e-12
        )

    def test_rotation_non_equivalence_elementwise(self):
        """Element-wise products do not commute with rotation (paper Eq. 1).

        Eq. 1c -> 1d of the paper requires ``(A_bar (.) h) H == A_bar (.) (h H)``,
        which only holds when ``A_bar`` is constant along the rotated axis.  For
        the general SSM update (the paper's Fig. 1 draws ``A_bar`` with shape
        ``(h, p, n)``) the equality fails, which is why the SSM layer cannot be
        rotated and is quantized with the PoT scheme instead.
        """
        rng = np.random.default_rng(11)
        N = 8
        a_bar = rng.uniform(0.1, 0.9, size=(4, N))    # varies along the state axis
        h = rng.normal(size=(4, N))
        q, _ = np.linalg.qr(rng.normal(size=(N, N)))
        lhs = (a_bar * h) @ q          # rotate after the element-wise product
        rhs = a_bar * (h @ q)          # element-wise product on the rotated state
        assert not np.allclose(lhs, rhs, rtol=1e-3)

    def test_rotation_non_equivalence_gating(self):
        """The silu gate before the output projection is not rotation-equivariant.

        ``silu(z H) (.) (y H) != (silu(z) (.) y) H`` -- hence the paper inserts an
        *online* Hadamard transform after the gated norm (rotation (3) in
        Fig. 4a) instead of fusing a rotation into the producers of ``y``/``z``.
        """
        from repro.mamba.ops import silu

        rng = np.random.default_rng(12)
        N = 16
        y = rng.normal(size=(5, N))
        z = rng.normal(size=(5, N))
        q, _ = np.linalg.qr(rng.normal(size=(N, N)))
        fused_then_rotate = (y * silu(z)) @ q
        rotate_then_fuse = (y @ q) * silu(z @ q)
        assert not np.allclose(fused_then_rotate, rotate_then_fuse, rtol=1e-3)

    def test_input_validation(self):
        params = self._params()
        with pytest.raises(ValueError):
            ssm_step(
                params,
                np.zeros((3, 8)),  # wrong head count
                np.zeros(16),
                np.zeros(16),
                np.zeros(4),
                np.zeros((4, 8, 16)),
            )


class TestBlockAndModel:
    def test_block_step_matches_forward(self, tiny_model):
        """Sequential decode must equal full-sequence prefill logits."""
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, tiny_model.config.vocab_size, size=12)
        full_logits = tiny_model.forward(tokens)

        cache = InferenceCache.zeros(tiny_model.config)
        step_logits = []
        for t in tokens:
            hidden = tiny_model.embed(np.array([t]))[0]
            for i, block in enumerate(tiny_model.blocks):
                hidden = block.step(hidden, cache.layers[i])
            step_logits.append(tiny_model.logits_from_hidden(hidden))
        step_logits = np.stack(step_logits)
        np.testing.assert_allclose(step_logits, full_logits, rtol=1e-8, atol=1e-8)

    def test_prefill_then_step_consistency(self, tiny_model):
        """prefill(prompt) + step must equal forward on the extended sequence."""
        rng = np.random.default_rng(1)
        vocab = tiny_model.config.vocab_size
        prompt = rng.integers(0, vocab, size=9)
        next_token = int(rng.integers(0, vocab))
        logits_prefill, cache = tiny_model.prefill(prompt)
        logits_step = tiny_model.step(next_token, cache)

        extended = np.concatenate([prompt, [next_token]])
        full = tiny_model.forward(extended)
        np.testing.assert_allclose(logits_prefill, full[-2], rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(logits_step, full[-1], rtol=1e-8, atol=1e-8)

    def test_forward_output_shape(self, tiny_model):
        tokens = np.arange(5) % tiny_model.config.vocab_size
        logits = tiny_model.forward(tokens)
        assert logits.shape == (5, tiny_model.config.vocab_size)
        assert np.all(np.isfinite(logits))

    def test_collect_captures_activations(self, tiny_model):
        collect = []
        tokens = np.arange(4)
        tiny_model.forward(tokens, collect=collect)
        assert len(collect) == tiny_model.config.n_layer
        first = collect[0]
        assert first["out_proj_input"].shape == (4, tiny_model.config.d_inner)
        assert first["in_proj_input"].shape == (4, tiny_model.config.d_model)

    def test_model_copy_is_independent(self, tiny_model):
        clone = tiny_model.copy()
        clone.blocks[0].in_proj.weight[:] = 0.0
        assert not np.allclose(
            clone.blocks[0].in_proj.weight, tiny_model.blocks[0].in_proj.weight
        )

    def test_ngroups_other_than_one_is_rejected(self):
        """B and C are one group shared by every head; ngroups=2 must not run as a wider state."""
        cfg = Mamba2Config(d_model=64, n_layer=1, vocab_size=100, d_state=16, headdim=16,
                           ngroups=2)
        with pytest.raises(ValueError, match="ngroups"):
            Mamba2Model.from_config(cfg)

    def test_linear_bias_shape_and_copy(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="bias"):
            Linear(rng.normal(size=(4, 3)), bias=np.zeros(3))
        proj = Linear(rng.normal(size=(4, 3)), rng.normal(size=4), (np.negative,))
        x = rng.normal(size=(2, 3))
        np.testing.assert_array_equal(proj(x), -x @ proj.weight.T + proj.bias)
        clone = proj.copy()
        clone.weight[:] = 0.0
        clone.bias[:] = 0.0
        assert np.all(proj.weight != 0.0) and np.all(proj.bias != 0.0)
        assert clone.transforms == proj.transforms

    def test_parameter_count_matches_config_estimate(self, tiny_model):
        estimate = tiny_model.config.num_parameters()
        actual = tiny_model.num_parameters()
        assert actual == estimate

    def test_token_range_validation(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward(np.array([tiny_model.config.vocab_size + 5]))

    def test_outlier_profile_produces_scattered_outliers(self, small_model):
        """The synthetic init must reproduce the scattered-outlier phenomenon.

        We measure, per token, which channel of the out-proj input holds the
        largest magnitude; with scattered outliers the argmax channel varies
        across tokens (unlike fixed-channel Transformer outliers).
        """
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, small_model.config.vocab_size, size=48)
        collect = []
        small_model.forward(tokens, collect=collect)
        acts = collect[len(collect) // 2]["out_proj_input"]
        kurtosis = np.mean(acts**4) / np.mean(acts**2) ** 2
        assert kurtosis > 6.0  # heavy-tailed (Gaussian would be ~3)
        argmax_channels = np.argmax(np.abs(acts), axis=1)
        assert len(np.unique(argmax_channels)) > 4  # outlier channel moves around

    def test_outlier_profile_increases_outlier_severity(self, small_config, small_model):
        """Disabling the outlier profile must reduce the activation outlier ratio.

        The relevant statistic for quantization difficulty is the ratio of the
        maximum activation magnitude to the per-token RMS at the out-proj input;
        the injected profile should make it clearly larger than the plain
        Gaussian initialisation.
        """
        plain = Mamba2Model.from_config(
            small_config, InitConfig(seed=1, outliers=OutlierProfile.none())
        )
        tokens = np.random.default_rng(4).integers(0, small_config.vocab_size, size=32)

        def outlier_ratio(model):
            collect = []
            model.forward(tokens, collect=collect)
            acts = collect[len(collect) // 2]["out_proj_input"]
            rms = np.sqrt(np.mean(acts**2, axis=1, keepdims=True))
            return float(np.median(np.max(np.abs(acts), axis=1) / (rms[:, 0] + 1e-12)))

        assert outlier_ratio(small_model) > outlier_ratio(plain)


class TestGeneration:
    def test_greedy_decode_length_and_determinism(self, tiny_model):
        prompt = [1, 2, 3]
        r1 = greedy_decode(tiny_model, prompt, max_new_tokens=6)
        r2 = greedy_decode(tiny_model, prompt, max_new_tokens=6)
        assert len(r1) == 6
        assert r1.tokens == r2.tokens
        assert r1.full_sequence[:3] == prompt

    def test_greedy_matches_forward_argmax(self, tiny_model):
        """The first generated token must equal argmax of the prompt logits."""
        prompt = np.array([5, 9, 2, 7])
        logits = tiny_model.forward(prompt)
        expected = int(np.argmax(logits[-1]))
        result = greedy_decode(tiny_model, prompt, max_new_tokens=1)
        assert result.tokens[0] == expected

    def test_sample_decode_reproducible_with_seed(self, tiny_model):
        r1 = sample_decode(tiny_model, [1, 2], max_new_tokens=5, seed=42)
        r2 = sample_decode(tiny_model, [1, 2], max_new_tokens=5, seed=42)
        assert r1.tokens == r2.tokens

    def test_sample_decode_topk_and_temperature_validation(self, tiny_model):
        with pytest.raises(ValueError):
            sample_decode(tiny_model, [1], 3, temperature=0.0)
        with pytest.raises(ValueError):
            sample_decode(tiny_model, [1], 3, top_k=0)

    def test_stop_token(self, tiny_model):
        result = greedy_decode(tiny_model, [1, 2, 3], max_new_tokens=10, stop_token=None)
        stop = result.tokens[0]
        stopped = greedy_decode(tiny_model, [1, 2, 3], max_new_tokens=10, stop_token=stop)
        assert stopped.tokens[-1] == stop
        assert len(stopped) <= len(result)

    def test_empty_prompt_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            greedy_decode(tiny_model, [], max_new_tokens=2)


class TestCache:
    def test_cache_size_independent_of_sequence(self, tiny_model):
        """Mamba's recurrent cache is fixed-size (unlike a KV cache)."""
        _, cache_short = tiny_model.prefill(np.arange(4))
        _, cache_long = tiny_model.prefill(np.arange(32) % tiny_model.config.vocab_size)
        assert cache_short.num_elements() == cache_long.num_elements()

    def test_cache_elements_formula(self, tiny_config):
        cache = InferenceCache.zeros(tiny_config)
        expected = tiny_config.n_layer * (
            tiny_config.conv_state_elements() + tiny_config.ssm_state_elements()
        )
        assert cache.num_elements() == expected
        assert cache.resident_state_bytes() == expected * 2  # FP16
