"""Post-training quantization stack for Mamba.

This package implements the algorithm side of LightMamba (Sec. IV of the
paper) together with the prior-art baselines it compares against:

- :mod:`repro.quant.quantizer` -- symmetric integer quantizers with
  per-tensor / per-channel / per-token / per-group granularity.
- :mod:`repro.quant.rtn` -- round-to-nearest weight/activation quantization.
- :mod:`repro.quant.smoothquant` -- SmoothQuant channel-wise scaling.
- :mod:`repro.quant.outlier_suppression` -- Outlier Suppression+ channel-wise
  shifting and scaling.
- :mod:`repro.quant.hadamard` -- Hadamard matrix construction (Sylvester,
  Paley I/II, Kronecker composition) and the fast Walsh-Hadamard transform.
- :mod:`repro.quant.rotation` -- the rotation-assisted quantization of
  Fig. 4a, with all five fusion points and the online Hadamard transform.
- :mod:`repro.quant.pot` -- power-of-two scale quantization used for the SSM.
- :mod:`repro.quant.ssm_quant` -- the fully quantized SSM step and its
  chunk-parallel prefill scan (LightMamba*).
- :mod:`repro.quant.qlinear` / :mod:`repro.quant.qmodel` -- quantized linear
  layers and whole-model assembly for every method / bit-width combination.
- :mod:`repro.quant.calibration` -- activation-statistics collection.
"""

from repro.quant.dtypes import IntSpec, INT4, INT8, INT16, Granularity
from repro.quant.quantizer import (
    QuantizerConfig,
    QuantizedTensor,
    compute_scales,
    quantize,
    dequantize,
    quantize_dequantize,
)
from repro.quant.observers import AbsMaxObserver, MinMaxObserver, PercentileObserver
from repro.quant.error import quantization_error, relative_error, sqnr_db
from repro.quant.rtn import rtn_quantize_weight, rtn_quantize_activation
from repro.quant.smoothquant import SmoothQuantConfig, compute_smoothing_scales
from repro.quant.outlier_suppression import OSPlusConfig, compute_shift_and_scale
from repro.quant.hadamard import (
    hadamard_matrix,
    is_hadamard,
    fast_hadamard_transform,
    random_hadamard_matrix,
    randomized_hadamard,
)
from repro.quant.pot import (
    pot_quantize_scale,
    pot_quantize_dequantize,
    pot_exponent,
    absmax_requant_exponents,
    shift_requantize,
)
from repro.quant.rotation import RotationConfig, RotatedModel, rotate_model, OnlineHadamard
from repro.quant.ssm_quant import SSMQuantConfig, QuantizedSSMStep
from repro.quant.qlinear import QuantizedLinear, grouped_integer_matmul
from repro.quant.qmodel import QuantMethod, QuantConfig, quantize_model
from repro.quant.calibration import CalibrationResult, collect_activation_stats

__all__ = [
    "IntSpec",
    "INT4",
    "INT8",
    "INT16",
    "Granularity",
    "QuantizerConfig",
    "QuantizedTensor",
    "compute_scales",
    "quantize",
    "dequantize",
    "quantize_dequantize",
    "AbsMaxObserver",
    "MinMaxObserver",
    "PercentileObserver",
    "quantization_error",
    "relative_error",
    "sqnr_db",
    "rtn_quantize_weight",
    "rtn_quantize_activation",
    "SmoothQuantConfig",
    "compute_smoothing_scales",
    "OSPlusConfig",
    "compute_shift_and_scale",
    "hadamard_matrix",
    "is_hadamard",
    "fast_hadamard_transform",
    "random_hadamard_matrix",
    "randomized_hadamard",
    "pot_quantize_scale",
    "pot_quantize_dequantize",
    "pot_exponent",
    "absmax_requant_exponents",
    "shift_requantize",
    "RotationConfig",
    "RotatedModel",
    "rotate_model",
    "OnlineHadamard",
    "SSMQuantConfig",
    "QuantizedSSMStep",
    "QuantizedLinear",
    "grouped_integer_matmul",
    "QuantMethod",
    "QuantConfig",
    "quantize_model",
    "CalibrationResult",
    "collect_activation_stats",
]
