"""Synthetic model initialisation with controllable activation-outlier structure.

The LightMamba quantization study (Sec. III, Fig. 2, Table II) hinges on a
statistical property of real Mamba2 checkpoints: the input of the *output
projection* contains large activation outliers whose channel position changes
from token to token ("scattered outliers"), whereas Transformer-style outliers
stay in fixed channels.  Since pretrained checkpoints are not available in
this environment, :class:`OutlierProfile` injects that structure into a
synthetic model:

- a heavy-tailed (log-normal) per-channel scale on selected *embedding*
  columns creates token-stable outliers in the residual stream, i.e. in the
  input-projection activation (the Transformer-like case that SmoothQuant can
  handle);
- heavy-tailed rows of the ``z``-gate part of the input projection make
  ``silu(z)`` spike in channels that depend on the current token, which
  produces scattered outliers at the output-projection input (the Mamba
  phenomenon that defeats channel-wise scaling and motivates rotation).

The profile strength is expressed as a multiplicative amplitude over the base
initialisation so the FP model stays numerically well behaved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mamba.block import Linear
from repro.mamba.config import Mamba2Config
from repro.mamba.conv1d import CausalConv1d
from repro.mamba.rmsnorm import GatedRMSNorm, RMSNorm
from repro.mamba.ssm import SSMParams

__all__ = ["OutlierProfile", "InitConfig", "init_block_params", "init_embedding"]


@dataclass(frozen=True)
class OutlierProfile:
    """Controls the injected activation-outlier structure.

    Attributes
    ----------
    fixed_channel_fraction:
        Fraction of residual-stream channels that carry token-stable outliers
        (Transformer-like structure at the input projection).
    fixed_channel_gain:
        Amplitude multiplier for those channels.
    scattered_fraction:
        Fraction of ``z``-gate rows initialised heavy-tailed, which produces
        token-dependent (scattered) outliers at the output-projection input.
    scattered_gain:
        Amplitude multiplier for the heavy-tailed gate rows.
    heavy_tail_sigma:
        Log-normal sigma of the heavy-tailed draws.
    """

    fixed_channel_fraction: float = 0.02
    fixed_channel_gain: float = 8.0
    scattered_fraction: float = 0.05
    scattered_gain: float = 10.0
    heavy_tail_sigma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("fixed_channel_fraction", "scattered_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.fixed_channel_gain < 0 or self.scattered_gain < 0:
            raise ValueError("gains must be non-negative")

    @classmethod
    def none(cls) -> "OutlierProfile":
        """A profile that injects no outliers (pure Gaussian activations)."""
        return cls(
            fixed_channel_fraction=0.0,
            fixed_channel_gain=1.0,
            scattered_fraction=0.0,
            scattered_gain=1.0,
        )


@dataclass(frozen=True)
class InitConfig:
    """Initialisation settings for a synthetic Mamba2 model.

    ``final_norm_scale`` controls the magnitude of the final RMSNorm scale and
    therefore the sharpness of the output distribution: the default keeps the
    synthetic model's next-token entropy in a natural-language-like range so
    that perplexity / task-accuracy evaluations can discriminate between
    quantization methods (a near-deterministic model would hide their
    differences).
    """

    seed: int = 0
    weight_scale: float = 1.0
    dt_min: float = 0.001
    dt_max: float = 0.1
    a_init_range: tuple = (1.0, 16.0)
    final_norm_scale: float = 0.15
    residual_scale: float | None = None
    outliers: OutlierProfile = OutlierProfile()


def _linear_init(rng: np.random.Generator, out_dim: int, in_dim: int, scale: float) -> np.ndarray:
    """Scaled Gaussian init with fan-in variance scaling."""
    std = scale / np.sqrt(in_dim)
    return rng.normal(0.0, std, size=(out_dim, in_dim))


def init_embedding(config: Mamba2Config, init: InitConfig) -> np.ndarray:
    """Initialise the embedding table, optionally with fixed-channel outliers."""
    rng = np.random.default_rng(init.seed)
    emb = rng.normal(0.0, 1.0, size=(config.vocab_size, config.d_model))
    profile = init.outliers
    n_fixed = int(round(profile.fixed_channel_fraction * config.d_model))
    if n_fixed > 0 and profile.fixed_channel_gain > 1.0:
        channels = rng.choice(config.d_model, size=n_fixed, replace=False)
        gains = profile.fixed_channel_gain * rng.lognormal(
            0.0, profile.heavy_tail_sigma, size=n_fixed
        )
        emb[:, channels] *= gains
    return emb


def init_block_params(
    config: Mamba2Config, init: InitConfig, layer_idx: int
) -> dict:
    """Initialise all parameters of one Mamba2 block.

    Returns a dictionary with keys matching the :class:`~repro.mamba.block.MambaBlock`
    constructor arguments (minus ``config`` / ``layer_idx``).
    """
    cfg = config
    rng = np.random.default_rng(init.seed * 100003 + layer_idx + 1)
    profile = init.outliers

    in_proj = _linear_init(rng, cfg.d_in_proj, cfg.d_model, init.weight_scale)
    # Heavy-tailed z-gate rows -> scattered outliers at the out-proj input.
    n_scattered = int(round(profile.scattered_fraction * cfg.d_inner))
    if n_scattered > 0 and profile.scattered_gain > 1.0:
        rows = rng.choice(cfg.d_inner, size=n_scattered, replace=False)
        gains = profile.scattered_gain * rng.lognormal(
            0.0, profile.heavy_tail_sigma, size=n_scattered
        )
        in_proj[rows, :] *= gains[:, None]

    out_proj = _linear_init(rng, cfg.d_model, cfg.d_inner, init.weight_scale)
    # Residual-branch scale: the default (1 / sqrt(2 * n_layer)) keeps a deep
    # random stack stable; the Table II / III evaluation models use a larger
    # value (e.g. 1.0) so each block contributes strongly and quantization
    # error compounds through depth the way it does in trained checkpoints.
    residual_scale = (
        init.residual_scale
        if init.residual_scale is not None
        else 1.0 / np.sqrt(2.0 * cfg.n_layer)
    )
    out_proj *= residual_scale

    conv_weight = rng.normal(0.0, 1.0 / np.sqrt(cfg.d_conv), size=(cfg.conv_dim, cfg.d_conv))
    conv_bias = np.zeros(cfg.conv_dim)

    # dt_bias such that softplus(dt_bias) is log-uniform in [dt_min, dt_max].
    u = rng.uniform(0.0, 1.0, size=cfg.nheads)
    dt = np.exp(u * (np.log(init.dt_max) - np.log(init.dt_min)) + np.log(init.dt_min))
    dt = np.clip(dt, 1e-4, None)
    dt_bias = dt + np.log(-np.expm1(-dt))  # inverse softplus

    a_low, a_high = init.a_init_range
    A_log = np.log(rng.uniform(a_low, a_high, size=cfg.nheads))
    D = rng.normal(1.0, 0.1, size=cfg.nheads)

    norm_weight = np.ones(cfg.d_model) + 0.05 * rng.normal(size=cfg.d_model)
    gated_weight = np.ones(cfg.d_inner) + 0.05 * rng.normal(size=cfg.d_inner)

    return {
        "norm": RMSNorm(norm_weight, eps=cfg.norm_eps),
        "in_proj": Linear(in_proj),
        "conv": CausalConv1d(conv_weight, conv_bias),
        "ssm": SSMParams(A_log=A_log, D=D, dt_bias=dt_bias),
        "gated_norm": GatedRMSNorm(gated_weight, eps=cfg.norm_eps),
        "out_proj": Linear(out_proj),
    }
