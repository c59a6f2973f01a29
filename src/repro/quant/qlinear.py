"""Quantized linear layers.

:class:`QuantizedLinear` is the quantized form of a block projection
(:class:`repro.mamba.block.Linear`): the weight's integer codes and scales,
the activation quantizer, the input transforms and an optional bias.  It
provides two numerically equivalent forward paths:

- :meth:`forward` (its ``__call__``) -- the fast "fake quant" path
  (floating-point matmul over dequantized operands) used throughout the
  library;
- :meth:`forward_integer` -- an integer-exact path that performs the matmul
  on INT codes with per-group INT32 accumulation and applies the scales at
  the end, exactly as the FPGA MMU does.

Tests verify both paths agree, which justifies using the fake-quant path for
accuracy evaluation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.mamba.block import Linear
from repro.quant.dtypes import Granularity
from repro.quant.pot import code_storage_dtype
from repro.quant.quantizer import (
    QuantizedTensor,
    QuantizerConfig,
    dequantize,
    quantize,
    quantize_dequantize,
)
from repro.quant.rtn import activation_quantizer_config, weight_quantizer_config

__all__ = ["QuantizedLinear", "grouped_integer_matmul"]


def grouped_integer_matmul(  # integer-resident
    x_codes: np.ndarray,
    x_scales: np.ndarray,
    w_codes: np.ndarray,
    w_scales: np.ndarray,
    *,
    group_size: int,
    x_qmax: int,
    w_qmax: int,
) -> np.ndarray:
    """Per-group integer contraction with a true INT32 accumulator.

    Computes ``out[..., m, n] = sum_k x[..., m, k] * w[..., n, k]`` over the
    shared trailing axis, one quantization group at a time: each group's
    partial products are summed in int32 -- the MMU's accumulator width --
    and only then scaled in floating point by the operands' per-group scales.
    This is the execution model of the FPGA matrix unit, shared by
    :meth:`QuantizedLinear.forward_integer` and the integer-exact chunk body
    of :class:`repro.quant.ssm_quant.QuantizedChunkedScan`.

    Parameters
    ----------
    x_codes, w_codes:
        Integer codes of shape ``(..., M, K)`` / ``(..., N, K)``; leading
        axes broadcast against each other (stacked matmul semantics).
    x_scales, w_scales:
        Per-group scales of shape ``(..., M, n_groups)`` / ``(..., N,
        n_groups)`` where ``n_groups = ceil(K / min(group_size, K))``.
    group_size:
        Quantization group length along the contraction axis (clamped to
        ``K`` like the quantizers do).
    x_qmax, w_qmax:
        Largest code magnitudes of the two operands, used for the static
        overflow guarantee: the worst-case partial-sum magnitude of the
        *configuration* (``group_len * x_qmax * w_qmax``) is checked against
        the int32 range, mirroring the hardware's static analysis -- an
        unsafe configuration raises :class:`OverflowError` deterministically
        on its first use, independent of the data, instead of silently
        wrapping on the unlucky batch.
    """
    in_features = x_codes.shape[-1]
    if w_codes.shape[-1] != in_features:
        raise ValueError("x_codes and w_codes must share the contraction axis length")
    group = min(group_size, in_features)
    if group <= 0:
        raise ValueError("group_size must be positive")
    n_groups = -(-in_features // group)
    if x_scales.shape[-1] != n_groups or w_scales.shape[-1] != n_groups:
        raise ValueError(
            f"scales must carry {n_groups} groups for K={in_features}, "
            f"group={group}; got {x_scales.shape[-1]} / {w_scales.shape[-1]}"
        )

    worst_case = group * int(x_qmax) * int(w_qmax)
    if worst_case >= 2**31:
        raise OverflowError(
            f"per-group partial sum can reach {worst_case}, which does not fit "
            "the INT32 accumulator (group length x code widths too large)"
        )
    x32 = x_codes.astype(np.int32)
    w32 = w_codes.astype(np.int32)

    out: Optional[np.ndarray] = None
    for g in range(n_groups):
        lo, hi = g * group, min((g + 1) * group, in_features)
        acc = x32[..., :, lo:hi] @ np.swapaxes(w32[..., :, lo:hi], -1, -2)
        term = (
            acc.astype(np.float64)  # quant-point: per-group scale epilogue
            * x_scales[..., :, g, None]
            * w_scales[..., None, :, g]
        )
        out = term if out is None else out + term
    return out


class QuantizedLinear(Linear):
    """A projection ``y = x W^T + b`` with quantized weight and activation.

    ``weight_qt`` holds the weight's integer codes, stored at their true
    width (``int8`` for W4 and W8), and its scales; ``weight`` is their
    dequantization, computed once here.  ``pre`` applies the input
    ``transforms`` and then fake-quantizes the activation on ``act_config``.
    """

    def __init__(
        self,
        weight_qt: QuantizedTensor,
        act_config: QuantizerConfig,
        bias: Optional[np.ndarray] = None,
        transforms: Sequence[Callable[[np.ndarray], np.ndarray]] = (),
    ) -> None:
        codes = weight_qt.codes.astype(code_storage_dtype(weight_qt.bits), copy=False)
        self.weight_qt = replace(weight_qt, codes=codes)
        self.act_config = act_config
        super().__init__(dequantize(self.weight_qt), bias, transforms)

    @classmethod
    def from_weight(
        cls,
        weight: np.ndarray,
        w_bits: int,
        a_bits: int,
        group_size: int = 128,
        bias: Optional[np.ndarray] = None,
    ) -> "QuantizedLinear":
        """Quantize ``weight`` with the paper's scheme for the given widths."""
        weight_qt = quantize(weight, weight_quantizer_config(w_bits, group_size))
        return cls(weight_qt, activation_quantizer_config(a_bits, group_size), bias)

    # ------------------------------------------------------------------
    # Forward paths
    # ------------------------------------------------------------------
    def pre(self, x: np.ndarray) -> np.ndarray:
        """The input transforms, then activation fake-quantization."""
        return quantize_dequantize(super().pre(x), self.act_config)

    def forward_integer(self, x: np.ndarray) -> np.ndarray:
        """Integer-exact forward on the raw codes.

        Per-group configurations accumulate each group's partial sums in a
        true INT32 accumulator (see :meth:`_grouped_integer_matmul`); the
        coarser granularities accumulate the full row in int64 (the hardware
        accumulates per *tile* there, which no practical width overflows).
        The result equals :meth:`forward` up to floating-point associativity.
        """
        x = np.asarray(Linear.pre(self, x), dtype=np.float64)
        squeeze = x.ndim == 1
        x2 = x[None, :] if squeeze else x.reshape(-1, x.shape[-1])

        act_qt = quantize(x2, self.act_config)
        w_qt = self.weight_qt
        x_codes = act_qt.codes.astype(np.int64)
        w_codes = w_qt.codes.astype(np.int64)

        if (
            self.act_config.granularity is Granularity.PER_GROUP
            or w_qt.config.granularity is Granularity.PER_GROUP
        ):
            out = self._grouped_integer_matmul(x_codes, act_qt, w_codes, w_qt)
        else:
            acc = x_codes @ w_codes.T
            a_scale = np.broadcast_to(act_qt.scales, (x2.shape[0], 1))
            w_scale = np.broadcast_to(w_qt.scales, (w_codes.shape[0], 1))
            out = acc.astype(np.float64) * a_scale * w_scale[:, 0][None, :]

        if self.bias is not None:
            out = out + self.bias
        if squeeze:
            return out[0]
        return out.reshape(*x.shape[:-1], self.weight.shape[0])

    def _grouped_integer_matmul(self, x_codes, act_qt, w_codes, w_qt) -> np.ndarray:
        """Per-group integer matmul over the layer's codes.

        Normalises the activation / weight scales to per-(row, group)
        matrices and delegates the int32-accumulator contraction (and the
        static overflow guarantee) to :func:`grouped_integer_matmul`, the
        helper shared with the quantized SSM chunk body.
        """
        out_features, in_features = self.weight.shape
        group = min(self.act_config.group_size, in_features)
        if w_qt.config.granularity is Granularity.PER_GROUP:
            group = min(group, w_qt.config.group_size)

        tokens = x_codes.shape[0]
        a_scales = self._expand_group_scales(act_qt, tokens, in_features, group)
        w_scales = self._expand_group_scales(w_qt, out_features, in_features, group)
        return grouped_integer_matmul(
            x_codes,
            a_scales,
            w_codes,
            w_scales,
            group_size=group,
            x_qmax=self.act_config.spec.qmax,
            w_qmax=w_qt.config.spec.qmax,
        )

    @staticmethod
    def _expand_group_scales(
        qt: QuantizedTensor, rows: int, in_features: int, group: int
    ) -> np.ndarray:
        """Normalise any granularity's scales to a per-(row, group) matrix."""
        n_groups = -(-in_features // group)
        gran = qt.config.granularity
        scales = np.asarray(qt.scales, dtype=np.float64)
        if gran is Granularity.PER_GROUP:
            return scales.reshape(rows, n_groups)
        if gran in (Granularity.PER_CHANNEL, Granularity.PER_TOKEN):
            per_row = scales.reshape(rows, 1) if scales.ndim else np.full((rows, 1), float(scales))
            return np.broadcast_to(per_row, (rows, n_groups)).copy()
        return np.full((rows, n_groups), float(scales))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> float:
        """Off-chip storage of the quantized weight (codes + FP16 scales)."""
        total = self.weight_qt.memory_bytes()
        if self.bias is not None:
            total += self.bias.size * 2.0
        return total
