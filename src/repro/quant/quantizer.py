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
operand tiles, the resident state's codes, weight RTN.  The numpy
composition below is its reference and the fallback wherever it does not
run (no compiler, ``pot_rounding="nearest"``, wider codes, a non-finite
group, a power-of-two scale past ``2**1023``); nothing else selects between
them, and the two give the same bytes.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.mamba.ops import row_tiles
from repro.quant import native
from repro.quant.dtypes import Granularity, IntSpec, INT8

__all__ = [
    "QuantizerConfig",
    "QuantizedTensor",
    "compute_scales",
    "quantize",
    "dequantize",
    "quantize_dequantize",
]

_EPS = 1e-12

#: Below this many elements the per-group reduction call overhead of
#: ``max(axis=-1)`` is cheaper than the passes of the pairwise maximum.
_PAIRWISE_MIN_ELEMS = 4096


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
        If ``True`` the scale is snapped to a power of two (the paper's
        FPGA-friendly SSM scheme; re-quantization becomes a bit shift).
    pot_rounding:
        ``"ceil"`` (default; never clips harder than the absmax scale) or
        ``"nearest"``.
    """

    spec: IntSpec = INT8
    granularity: Granularity = Granularity.PER_TENSOR
    group_size: int = 128
    clip_ratio: float = 1.0
    pot_scale: bool = False
    pot_rounding: str = "ceil"

    def __post_init__(self) -> None:
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")
        if not 0.0 < self.clip_ratio <= 1.0:
            raise ValueError("clip_ratio must be in (0, 1]")
        if self.pot_rounding not in ("ceil", "nearest"):
            raise ValueError("pot_rounding must be 'ceil' or 'nearest'")


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


def _pot_round(scales: np.ndarray, mode: str) -> np.ndarray:
    """Snap positive scales to the nearest / next power of two."""
    safe = np.maximum(scales, _EPS)
    log2 = np.log2(safe)
    if mode == "ceil":
        exponent = np.ceil(log2)
    else:
        exponent = np.round(log2)
    return np.power(2.0, exponent)


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


def _group_max(magnitudes: np.ndarray, group: int) -> np.ndarray:
    """Maxima of consecutive ``group``-long runs of ``magnitudes``, flat.

    ``magnitudes`` holds ``|x|`` with the groups along the trailing axis and
    a size that is a multiple of ``group``.  ``max(axis=-1)`` pays a reduction
    call per group, which for 32-long groups costs several element-wise
    passes over the tile; once there are enough groups to matter the maximum
    is instead taken pairwise -- adjacent elements, then adjacent pair
    maxima, ... -- in long strided passes that halve the data each time.
    ``np.maximum`` is exact, order-free and propagates NaN exactly like the
    reduction, so both routes give the same values.
    """
    if magnitudes.size < _PAIRWISE_MIN_ELEMS:
        return magnitudes.reshape(-1, group).max(axis=-1)
    current = magnitudes.reshape(-1)
    while group % 2 == 0:
        pairs = current.reshape(-1, 2)
        current = np.maximum(pairs[:, 0], pairs[:, 1])
        group //= 2
    if group > 1:
        current = current.reshape(-1, group).max(axis=-1)
    return current


def _scales_from_absmax(absmax: np.ndarray, config: QuantizerConfig) -> np.ndarray:
    """The quantization scales of groups whose absolute maxima are ``absmax``."""
    scales = np.maximum(absmax * config.clip_ratio, _EPS) / config.spec.qmax
    if config.pot_scale:
        scales = _pot_round(scales, config.pot_rounding)
    return scales


def compute_scales(x: np.ndarray, config: QuantizerConfig) -> np.ndarray:
    """Compute symmetric quantization scales for ``x``.

    The returned array broadcasts against ``x`` for
    per-tensor / per-channel / per-token granularity; for per-group
    granularity it has shape ``(..., n_groups, 1)`` and applies to the
    group-reshaped view of ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    gran = config.granularity

    if gran is Granularity.PER_TENSOR:
        absmax = np.max(np.abs(x)) if x.size else 0.0
        absmax = np.asarray(absmax, dtype=np.float64).reshape(())
    elif gran in (Granularity.PER_CHANNEL, Granularity.PER_TOKEN):
        if x.ndim == 1:
            absmax = np.max(np.abs(x)) if x.size else 0.0
            absmax = np.asarray(absmax, dtype=np.float64).reshape(())
        else:
            absmax = np.max(np.abs(x), axis=-1, keepdims=True, initial=0.0)
    elif gran is Granularity.PER_GROUP:
        grouped, _, _ = _group_reshape(x, config.group_size)
        absmax = _group_max(np.abs(grouped), grouped.shape[-1])
        absmax = absmax.reshape(grouped.shape[:-1] + (1,))
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown granularity {gran}")
    return _scales_from_absmax(absmax, config)


def quantize(x: np.ndarray, config: QuantizerConfig) -> QuantizedTensor:
    """Quantize ``x`` to integer codes under ``config``.

    The codes-out entry point, for callers that consume the codes (the
    integer decode step, the resident state, the integer linear layers); the
    float-in / float-out simulation is :func:`quantize_dequantize`, which
    never materializes them.  Codes of at most 8 bits come from the compiled
    quantizer (:func:`_compiled_quantize`) where it runs, from
    :func:`_quantize_numpy` -- its reference -- otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    library = native.kernel()
    found = library.quantize(x, config) if library is not None else None
    if found is None:
        return _quantize_numpy(x, config)
    codes, scales = found
    return QuantizedTensor(
        codes=codes.astype(np.int32), scales=scales, config=config, shape=x.shape
    )


def _quantize_numpy(x: np.ndarray, config: QuantizerConfig) -> QuantizedTensor:
    """:func:`quantize` composed in numpy: the compiled quantizer's reference and fallback."""
    scales = compute_scales(x, config)
    spec = config.spec

    if config.granularity is Granularity.PER_GROUP:
        grouped, _, _ = _group_reshape(x, config.group_size)
        codes = np.clip(np.round(grouped / scales), spec.qmin, spec.qmax)
        codes = _ungroup(codes, x.shape[-1])
    else:
        codes = np.clip(np.round(x / scales), spec.qmin, spec.qmax)
    return QuantizedTensor(
        codes=codes.astype(np.int32), scales=scales, config=config, shape=x.shape
    )


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Map integer codes back to floating point."""
    config = qt.config
    codes = qt.codes.astype(np.float64)
    if config.granularity is Granularity.PER_GROUP:
        grouped, _, _ = _group_reshape(codes, config.group_size)
        return _ungroup(grouped * qt.scales, qt.shape[-1])
    return codes * qt.scales


def _round_to_grid(
    values: np.ndarray, scales: np.ndarray, spec: IntSpec, out: np.ndarray
) -> np.ndarray:
    """``out <- clip(rint(values / scales)) * scales``, one pass per operator.

    The rounding half of the fake-quant round trip without its integer
    detour: the clipped ``rint`` values *are* the codes, held as floats.
    ``out`` may be ``values``.
    """
    np.divide(values, scales, out=out)
    np.rint(out, out=out)
    np.clip(out, spec.qmin, spec.qmax, out=out)
    # Integer codes have no signed zero but rint does (-0.3 -> -0.0).
    np.add(out, 0.0, out=out)
    np.multiply(out, scales, out=out)
    return out


def _fake_quant_tile(x: np.ndarray, config: QuantizerConfig, out: np.ndarray) -> None:
    """Fake-quantize one cache-resident tile ``x`` into ``out`` (not ``x``).

    ``out`` doubles as the scratch of the absmax pass, so the whole round
    trip touches two tile-sized buffers: abs -> group max -> scale (+ PoT
    snap) -> divide -> rint -> clip -> multiply.  ``x`` may have any strides
    (splitting its last axis into groups never copies).
    """
    np.abs(x, out=out)
    if config.granularity is not Granularity.PER_GROUP:
        if config.granularity is Granularity.PER_TENSOR or x.ndim <= 1:
            absmax = out.max()
        else:
            absmax = out.max(axis=-1, keepdims=True)
        _round_to_grid(x, _scales_from_absmax(absmax, config), config.spec, out)
        return
    last = x.shape[-1]
    group = min(config.group_size, last)
    grouped = x.shape[:-1] + (last // group, group)
    scales = _scales_from_absmax(_group_max(out, group), config)
    # One scale per element, expanded once: a (..., G, 1) operand would make
    # the divide and the multiply below broadcast in group-length inner loops.
    scales = np.repeat(scales, group).reshape(x.shape)
    _round_to_grid(x, scales, config.spec, out)


def _fake_quant_into(x: np.ndarray, config: QuantizerConfig, out: np.ndarray) -> np.ndarray:
    """Fake-quantize float64 ``x`` into the C-contiguous float64 ``out`` (which may be ``x``).

    One call into the compiled quantizer (:func:`_compiled_quantize`) where
    it runs and takes the call; :func:`_fake_quant_numpy`, its reference,
    otherwise -- on a copy of ``x`` when ``out`` shares its memory.
    """
    if not x.size:
        return out
    library = native.kernel()
    if library is not None and library.quantize(x, config, out) is not None:
        return out
    return _fake_quant_numpy(x.copy() if np.may_share_memory(x, out) else x, config, out)


def _fake_quant_numpy(x: np.ndarray, config: QuantizerConfig, out: np.ndarray) -> np.ndarray:
    """:func:`_fake_quant_into` in numpy, into an ``out`` that is not ``x``.

    Walks the leading axis in token tiles (:func:`repro.mamba.ops.row_tiles`)
    so every pass of :func:`_fake_quant_tile` runs on cache-resident data;
    quantization grids live on the trailing axis, so tiling the leading one
    cannot change a value.  Per-tensor grids need the global maximum and run
    as one tile.  A ragged last group is quantized on a zero-padded copy,
    like :func:`quantize` does.  A non-finite input poisons its quantization
    group like in ``dequantize(quantize(x))`` -- NaN to the same NaN pattern
    -- but silently: there is no integer cast left to warn.
    """
    per_group = config.granularity is Granularity.PER_GROUP
    pad = -x.shape[-1] % min(config.group_size, x.shape[-1]) if per_group else 0
    with np.errstate(invalid="ignore"):
        if pad:
            padded = np.zeros(x.shape[:-1] + (x.shape[-1] + pad,))
            padded[..., : x.shape[-1]] = x
            out[...] = _fake_quant_numpy(padded, config, np.empty_like(padded))[..., : x.shape[-1]]
        elif x.ndim < 2 or config.granularity is Granularity.PER_TENSOR:
            _fake_quant_tile(x, config, out)
        else:
            for rows in row_tiles(x.shape[0], x.size // x.shape[0]):
                _fake_quant_tile(x[rows], config, out[rows])
    return out


def quantize_dequantize(x: np.ndarray, config: QuantizerConfig) -> np.ndarray:
    """Fake-quantization round trip, bit for bit ``dequantize(quantize(x))``.

    This is the numerical model of quantized inference used throughout the
    library; the integer-exact path in :mod:`repro.quant.qlinear` verifies
    its equivalence.  It is computed fused rather than composed, written
    into a single result buffer with no integer codes: one call into the
    compiled quantizer -- per group absmax, scale, divide, rint, clip,
    multiply in one loop -- where it runs, else one numpy pass per operator
    over a cache-resident token tile (:func:`_fake_quant_numpy`).  The
    composition itself stays the oracle the tests pin both against.
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
    ``2**1023``), or it is outside the entry's contract
    (``pot_rounding="nearest"``, codes wider than 8 bits, an empty or 0-d
    ``x``, an ``out`` not shaped like ``x``).
    """
    entry.restype = ctypes.c_int
    entry.argtypes = ([ctypes.c_void_p] + [ctypes.c_int64] * 3
                      + [ctypes.c_double, ctypes.c_int32, ctypes.c_int32] + [ctypes.c_void_p] * 3)

    def run(x: np.ndarray, config: QuantizerConfig, out: Optional[np.ndarray] = None):
        shape, bits, gran = x.shape, config.spec.bits, config.granularity
        if (not x.size or not shape or (config.pot_scale and config.pot_rounding != "ceil")
                or (out is None and bits > 8)):
            return None
        if out is not None and out is not x:
            if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
                return None
            if x.dtype != np.float64 or not x.flags.c_contiguous or np.may_share_memory(x, out):
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
