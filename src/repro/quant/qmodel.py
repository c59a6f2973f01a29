"""Whole-model quantization assembly.

:func:`quantize_model` turns a floating-point :class:`~repro.mamba.model.Mamba2Model`
into a quantized-inference model for any of the methods compared in
Table II / Table III of the paper:

========================  ==========================================================
Method                    Transformation before RTN rounding
========================  ==========================================================
``fp16``                  none (reference)
``rtn``                   none
``smoothquant``           per-channel scaling folded into the preceding RMSNorm
``os+``                   per-channel shifting + scaling with bias compensation
``lightmamba``            rotation-assisted (Fig. 4a), linear layers quantized
``lightmamba*``           ``lightmamba`` + PoT-quantized SSM and conv (whole model)
========================  ==========================================================

Each block's two projections become
:class:`~repro.quant.qlinear.QuantizedLinear` s: the weight's integer codes
and scales, and the activation quantizer, which runs after the method's
runtime input transform (OS+ shift and scale, online Hadamard).

For the ``lightmamba*`` configurations the ``ssm`` field of
:class:`QuantConfig` (:class:`~repro.quant.ssm_quant.SSMQuantConfig`) holds
the SSM grid only -- there is no execution mode to select.  The model decodes
on whatever state its cache holds: ``Mamba2Model.new_cache`` builds
integer-resident caches for every default configuration (the FPGA's integer
datapath, bit-identical to the fake-quant reference under PoT) and float
caches for the Fig. 3 ablations; hand a default model a float cache to run
the fake-quant reference itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.mamba.block import Linear
from repro.mamba.model import Mamba2Model
from repro.quant.calibration import CalibrationResult, collect_activation_stats
from repro.quant.outlier_suppression import (
    OSPlusConfig,
    apply_shift_and_scale,
    compute_shift_and_scale,
)
from repro.quant.qlinear import QuantizedLinear
from repro.quant.quantizer import quantize, quantize_dequantize
from repro.quant.rotation import RotationConfig, rotate_model
from repro.quant.rtn import activation_quantizer_config, weight_quantizer_config
from repro.quant.smoothquant import SmoothQuantConfig, compute_smoothing_scales
from repro.quant.ssm_quant import SSMQuantConfig, QuantizedSSMStep

__all__ = ["QuantMethod", "QuantConfig", "quantize_model"]


class QuantMethod(str, enum.Enum):
    """The quantization methods compared in the paper's evaluation."""

    FP16 = "fp16"
    RTN = "rtn"
    SMOOTHQUANT = "smoothquant"
    OSPLUS = "os+"
    LIGHTMAMBA = "lightmamba"
    LIGHTMAMBA_STAR = "lightmamba*"

    @property
    def needs_calibration(self) -> bool:
        return self in (QuantMethod.SMOOTHQUANT, QuantMethod.OSPLUS)

    @property
    def uses_rotation(self) -> bool:
        return self in (QuantMethod.LIGHTMAMBA, QuantMethod.LIGHTMAMBA_STAR)

    @property
    def quantizes_ssm(self) -> bool:
        return self is QuantMethod.LIGHTMAMBA_STAR


@dataclass(frozen=True)
class QuantConfig:
    """Full configuration of a quantized model.

    ``w_bits`` / ``a_bits`` follow the paper's notation: W8A8 uses per-channel
    weights and per-token activations, W4A4 uses per-group (128) weights and
    activations.
    """

    method: QuantMethod = QuantMethod.LIGHTMAMBA
    w_bits: int = 4
    a_bits: int = 4
    group_size: int = 128
    smoothquant: SmoothQuantConfig = field(default_factory=SmoothQuantConfig)
    osplus: OSPlusConfig = field(default_factory=OSPlusConfig)
    rotation: RotationConfig = field(default_factory=RotationConfig)
    ssm: SSMQuantConfig = field(default_factory=SSMQuantConfig)

    @classmethod
    def w8a8(cls, method: QuantMethod, **kwargs) -> "QuantConfig":
        """The paper's W8A8 configuration for a given method."""
        return cls(method=method, w_bits=8, a_bits=8, **kwargs)

    @classmethod
    def w4a4(cls, method: QuantMethod, **kwargs) -> "QuantConfig":
        """The paper's W4A4 configuration for a given method."""
        return cls(method=method, w_bits=4, a_bits=4, **kwargs)

    @property
    def label(self) -> str:
        """Human-readable label such as ``"lightmamba W4A4"``."""
        return f"{self.method.value} W{self.w_bits}A{self.a_bits}"


# ----------------------------------------------------------------------
# Per-method projection transformations
# ----------------------------------------------------------------------
class _ShiftScale:
    """OS+'s runtime input transform ``(x - shift) / scale``."""

    def __init__(self, shift: np.ndarray, scale: np.ndarray):
        self.shift = np.asarray(shift, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return (x - self.shift) / self.scale


def _smoothquant(block, calibration: CalibrationResult, config: QuantConfig):
    """Fold SmoothQuant's scales into the block's norms; returns the smoothed projections."""
    layer = block.layer_idx
    s_in = compute_smoothing_scales(
        calibration.in_proj_absmax(layer), block.in_proj.weight, config.smoothquant
    )
    block.norm.weight = block.norm.weight / s_in
    s_out = compute_smoothing_scales(
        calibration.out_proj_absmax(layer), block.out_proj.weight, config.smoothquant
    )
    block.gated_norm.weight = block.gated_norm.weight / s_out
    return (
        Linear(block.in_proj.weight * s_in[None, :], block.in_proj.bias),
        Linear(block.out_proj.weight * s_out[None, :], block.out_proj.bias),
    )


def _osplus(linear: Linear, lo: np.ndarray, hi: np.ndarray, config: QuantConfig) -> Linear:
    """OS+ on one projection: the bias-compensated weight behind the shift-and-scale transform."""
    shift, scale = compute_shift_and_scale(lo, hi, linear.weight, config.osplus)
    _, weight, bias = apply_shift_and_scale(np.zeros_like(shift), linear.weight, shift, scale)
    if linear.bias is not None:
        bias = linear.bias + bias
    return Linear(weight, bias, (_ShiftScale(shift, scale),))


# ----------------------------------------------------------------------
# Whole-model quantization
# ----------------------------------------------------------------------
def quantize_model(
    model: Mamba2Model,
    config: QuantConfig,
    calibration: Optional[CalibrationResult] = None,
    calib_sequences: Optional[Sequence[np.ndarray]] = None,
) -> Mamba2Model:
    """Quantize ``model`` according to ``config`` and return a new model.

    Parameters
    ----------
    model:
        The floating-point reference model (not modified).
    config:
        Method and bit widths.
    calibration:
        Pre-computed activation statistics; required for SmoothQuant / OS+
        unless ``calib_sequences`` is given.
    calib_sequences:
        Token sequences used to compute calibration statistics on the fly.
    """
    method = config.method
    if method is QuantMethod.FP16:
        return model.copy()

    if method.needs_calibration and calibration is None:
        if calib_sequences is None:
            raise ValueError(f"method '{method.value}' requires calibration data")
        calibration = collect_activation_stats(model, calib_sequences)

    if method.uses_rotation:
        quantized = rotate_model(model, config.rotation).model
    else:
        quantized = model.copy()

    weight_cfg = weight_quantizer_config(config.w_bits, config.group_size)
    act_cfg = activation_quantizer_config(config.a_bits, config.group_size)
    conv_weight_cfg = weight_quantizer_config(8, config.group_size)

    for block in quantized.blocks:
        projections = block.in_proj, block.out_proj
        if method is QuantMethod.SMOOTHQUANT:
            projections = _smoothquant(block, calibration, config)
        elif method is QuantMethod.OSPLUS:
            projections = (
                _osplus(block.in_proj, *calibration.in_proj_minmax(block.layer_idx), config),
                _osplus(block.out_proj, *calibration.out_proj_minmax(block.layer_idx), config),
            )
        block.in_proj, block.out_proj = (
            QuantizedLinear(quantize(p.weight, weight_cfg), act_cfg, p.bias, p.transforms)
            for p in projections
        )

        if method.quantizes_ssm:
            # The quantized SSM: decodes with its step and serves every
            # prefill through its SSD-style prefill_scan (chunk size 1, the
            # step token by token, for scan_impl="sequential").
            block.ssm_impl = QuantizedSSMStep(config.ssm)
            block.conv.weight = quantize_dequantize(block.conv.weight, conv_weight_cfg)

    return quantized
