"""Symmetric integer quantizers.

All quantizers in this reproduction are *symmetric* (zero-point free), which
matches the paper's hardware assumption: the MMU and SSMU operate on signed
integers and re-scale with a single multiplicative (or, for PoT scales, a
shift) factor.

Granularities follow Sec. VI-A of the paper:

- W8A8: per-channel weights, per-token activations;
- W4A4: per-group weights *and* activations with group size 128.

The main entry points are :func:`quantize` (returns integer codes + scales),
:func:`dequantize`, and :func:`quantize_dequantize` (the "fake quant"
round-trip used to simulate quantized inference in floating point).

Every granularity is groups along the trailing axis, so one compiled unit
runs all of them: ``quantize_groups`` in ``native.c``
(:func:`_compiled_quantize`, loaded by :mod:`repro.quant.native`), one call
per tensor or tile for both the fake-quant round trip and codes of up to 8
bits -- the activation quantizations of decode and prefill, prefill's SSMU
operand tiles, the resident state's codes, weight RTN.
:func:`_quantize_numpy` -- the plain math, with the entry's contract -- is
its reference and the fallback wherever it does not run (no compiler,
wider codes, a non-finite group, a power-of-two scale past ``2**1023``);
nothing else selects between them, and the two give the same bytes.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.quant import native
from repro.quant.dtypes import Granularity, IntSpec, INT8, code_storage_dtype

__all__ = [
    "QuantizerConfig",
    "QuantizedTensor",
    "compute_scales",
    "quantize",
    "dequantize",
    "quantize_dequantize",
]

_EPS = 1e-12


@dataclass(frozen=True)
class QuantizerConfig:
    """Configuration of a symmetric quantizer.

    Attributes
    ----------
    spec:
        Target integer format (e.g. :data:`~repro.quant.dtypes.INT4`).
    granularity:
        Scale-sharing granularity.
    group_size:
        Group length for :attr:`Granularity.PER_GROUP` (128 in the paper).
    clip_ratio:
        Multiplier on the absolute maximum used to compute the scale
        (``1.0`` = no clipping).
    pot_scale:
        If ``True`` the scale is snapped up to a power of two (the paper's
        FPGA-friendly SSM scheme; re-quantization becomes a bit shift; the
        ceiling never clips harder than the absmax scale).
    """

    spec: IntSpec = INT8
    granularity: Granularity = Granularity.PER_TENSOR
    group_size: int = 128
    clip_ratio: float = 1.0
    pot_scale: bool = False

    def __post_init__(self) -> None:
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")
        if not 0.0 < self.clip_ratio <= 1.0:
            raise ValueError("clip_ratio must be in (0, 1]")


@dataclass
class QuantizedTensor:
    """Integer codes plus the scales needed to dequantize them."""

    codes: np.ndarray
    scales: np.ndarray
    config: QuantizerConfig
    shape: tuple

    def dequantize(self) -> np.ndarray:
        """Reconstruct the floating-point tensor."""
        return dequantize(self)

    @property
    def bits(self) -> int:
        return self.config.spec.bits

    def memory_bytes(self) -> float:
        """Storage cost of codes plus FP16 scales, in bytes."""
        return self.codes.size * self.bits / 8.0 + self.scales.size * 2.0


def _pot_round(scales: np.ndarray) -> np.ndarray:
    """Snap positive scales up to the next power of two."""
    return np.power(2.0, np.ceil(np.log2(np.maximum(scales, _EPS))))


def _group_reshape(x: np.ndarray, group_size: int) -> tuple[np.ndarray, int, int]:
    """Reshape the last axis into groups, padding with zeros if necessary.

    Returns ``(reshaped, n_groups, pad)`` where ``reshaped`` has shape
    ``(..., n_groups, group)``; an empty last axis gives zero groups.
    """
    last = x.shape[-1]
    group = max(1, min(group_size, last))
    n_groups = -(-last // group)
    pad = n_groups * group - last
    if pad:
        pad_width = [(0, 0)] * (x.ndim - 1) + [(0, pad)]
        x = np.pad(x, pad_width)
    reshaped = x.reshape(*x.shape[:-1], n_groups, group)
    return reshaped, n_groups, pad


def _ungroup(grouped: np.ndarray, length: int) -> np.ndarray:
    """Flatten a ``(..., G, g)`` grouped tensor back to ``(..., length)``.

    Inverse of :func:`_group_reshape`: collapse the group axes and trim the
    zero padding of the last partial group.
    """
    flat = grouped.reshape(*grouped.shape[:-2], grouped.shape[-2] * grouped.shape[-1])
    return flat[..., :length]


def compute_scales(x: np.ndarray, config: QuantizerConfig) -> np.ndarray:
    """Compute symmetric quantization scales for ``x``.

    The returned array broadcasts against ``x`` for
    per-tensor / per-channel / per-token granularity; for per-group
    granularity it has shape ``(..., n_groups, 1)`` and applies to the
    group-reshaped view of ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    gran = config.granularity

    if gran is Granularity.PER_GROUP:
        grouped, _, _ = _group_reshape(x, config.group_size)
        absmax = np.abs(grouped).max(axis=-1, keepdims=True)
    elif gran is Granularity.PER_TENSOR or x.ndim == 1:
        absmax = np.asarray(np.max(np.abs(x)) if x.size else 0.0, dtype=np.float64)
    else:  # per channel / per token: along the trailing axis
        absmax = np.max(np.abs(x), axis=-1, keepdims=True, initial=0.0)
    scales = np.maximum(absmax * config.clip_ratio, _EPS) / config.spec.qmax
    if config.pot_scale:
        scales = _pot_round(scales)
    return scales


def quantize(x: np.ndarray, config: QuantizerConfig) -> QuantizedTensor:
    """Quantize ``x`` to integer codes under ``config``.

    The codes-out entry point, for callers that consume the codes (the
    integer decode step, the resident state, the integer linear layers); the
    float-in / float-out simulation is :func:`quantize_dequantize`, which
    never materializes them.  The codes are stored at their true width,
    :func:`~repro.quant.dtypes.code_storage_dtype` (``int8`` up to 8 bits).
    Codes of at most 8 bits come from the compiled quantizer
    (:func:`_compiled_quantize`) where it runs, from :func:`_quantize_numpy`
    -- its reference -- otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    library = native.kernel()
    found = library.quantize(x, config) if library is not None else None
    codes, scales = found if found is not None else _quantize_numpy(x, config)
    return QuantizedTensor(codes=codes, scales=scales, config=config, shape=x.shape)


def _quantize_numpy(x: np.ndarray, config: QuantizerConfig, out: Optional[np.ndarray] = None):
    """The compiled quantizer's contract in numpy: its reference and fallback.

    ``clip(rint(x / s)) + 0.0`` with ``s`` from :func:`compute_scales`, on
    the group-reshaped ``x`` for per-group grids (a ragged last group is
    zero-padded).  With ``out``, the fake-quantized values ``codes * s`` are
    written into it (which may be ``x``) and ``out`` is returned; without,
    ``(codes, scales)`` with codes shaped like ``x`` at their storage width
    (:func:`~repro.quant.dtypes.code_storage_dtype`).  A non-finite value
    poisons its group: NaN values, and codes from the cast of NaN.
    """
    scales = compute_scales(x, config)
    spec = config.spec
    per_group = config.granularity is Granularity.PER_GROUP
    values = _group_reshape(x, config.group_size)[0] if per_group else x
    with np.errstate(invalid="ignore"):
        # Integer codes have no signed zero but rint does (-0.3 -> -0.0).
        codes = np.clip(np.rint(values / scales), spec.qmin, spec.qmax) + 0.0
        if out is not None:
            fake = codes * scales
            out[...] = _ungroup(fake, x.shape[-1]) if per_group else fake
            return out
    codes = _ungroup(codes, x.shape[-1]) if per_group else codes
    return codes.astype(code_storage_dtype(spec.bits)), scales


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Map integer codes back to floating point."""
    config = qt.config
    values = qt.codes.astype(np.float64)
    if config.granularity is Granularity.PER_GROUP:
        values = _group_reshape(values, config.group_size)[0]
        values *= qt.scales  # in place: one float buffer, the same products
        return _ungroup(values, qt.shape[-1])
    values *= qt.scales
    return values


def _fake_quant_into(x: np.ndarray, config: QuantizerConfig, out: np.ndarray) -> np.ndarray:
    """Fake-quantize float64 ``x`` into the C-contiguous float64 ``out`` (which may be ``x``).

    One call into the compiled quantizer (:func:`_compiled_quantize`) where
    it runs and takes the call; :func:`_quantize_numpy`, its reference,
    otherwise.
    """
    library = native.kernel()
    if library is not None and library.quantize(x, config, out) is not None:
        return out
    return _quantize_numpy(x, config, out)


def quantize_dequantize(x: np.ndarray, config: QuantizerConfig) -> np.ndarray:
    """Fake-quantization round trip, bit for bit ``dequantize(quantize(x))``.

    This is the numerical model of quantized inference used throughout the
    library; the integer-exact path in :mod:`repro.quant.qlinear` verifies
    its equivalence.  It is computed fused rather than composed, written
    into a single result buffer with no integer codes: one call into the
    compiled quantizer -- per group absmax, scale, divide, rint, clip,
    multiply in one loop -- where it runs, else the same operators in numpy
    (:func:`_quantize_numpy`).  The composition itself stays the oracle the
    tests pin both against.
    """
    x = np.asarray(x, dtype=np.float64)
    return _fake_quant_into(x, config, np.empty(x.shape))


def _compiled_quantize(entry: Callable) -> Callable:
    """``native.c``'s ``quantize_groups`` behind :func:`_fake_quant_into` and :func:`quantize`.

    Every granularity is groups along the trailing axis: ``group_size``-long
    ones (the last may be short) per group, the whole trailing axis per token
    or channel, the whole tensor per tensor and for a 1-D ``x``.
    ``quantize(x, config, out)`` fake-quantizes float64 ``x`` into the
    C-contiguous float64 ``out`` (which may be ``x``; any other overlap
    copies ``x``) and returns it; ``quantize(x, config)`` returns INT8 codes
    shaped like ``x`` and the scales shaped as :func:`compute_scales` gives
    them.  ``None`` leaves the call to numpy: the entry declined it before
    writing (a group with a non-finite value, a power-of-two scale past
    ``2**1023``), or it is outside the entry's contract (codes wider than 8
    bits, an empty or 0-d ``x``, an ``out`` -- ``x`` itself included -- that is not a C-contiguous
    float64 array shaped like ``x``).
    """
    entry.restype = ctypes.c_int
    entry.argtypes = ([ctypes.c_void_p] + [ctypes.c_int64] * 3
                      + [ctypes.c_double, ctypes.c_int32, ctypes.c_int32] + [ctypes.c_void_p] * 3)

    def run(x: np.ndarray, config: QuantizerConfig, out: Optional[np.ndarray] = None):
        shape, bits, gran = x.shape, config.spec.bits, config.granularity
        if not x.size or not shape or (out is None and bits > 8):
            return None
        if out is not None:
            if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
                return None
            if out is not x and (x.dtype != np.float64 or not x.flags.c_contiguous
                                 or np.may_share_memory(x, out)):
                np.copyto(out, x)  # staged in out (a copy if they overlap), quantized in place
                x = out
        x = np.ascontiguousarray(x, dtype=np.float64)
        last = shape[-1]
        if gran is Granularity.PER_GROUP:
            length, group = last, min(config.group_size, last)
            scales_shape = shape[:-1] + (-(-last // group), 1)
        elif gran is Granularity.PER_TENSOR or len(shape) == 1:
            length = group = x.size
            scales_shape = ()
        else:
            length = group = last
            scales_shape = shape[:-1] + (1,)
        x_at = x.ctypes.data
        if out is None:
            codes, scales = np.empty(shape, dtype=np.int8), np.empty(scales_shape)
            outputs = (None, codes.ctypes.data, scales.ctypes.data)
        else:
            outputs = (x_at if out is x else out.ctypes.data, None, None)
        done = entry(x_at, x.size // length, length, group, config.clip_ratio, bits,
                     config.pot_scale, *outputs)
        if done < 0:
            raise MemoryError("quantize_groups: scratch allocation failed")
        if done:
            return None
        return out if out is not None else (codes, scales)

    return run
