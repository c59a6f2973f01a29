"""Power-of-two (PoT) scale quantization for the SSM layer.

Sec. IV-B of the paper: the SSM layer is dominated by element-wise
multiplications (EMs) whose outputs must be re-quantized back to INT8.  With
an arbitrary scale the re-quantization needs a real multiplier per element;
constraining every scale to a power of two turns re-quantization into a bit
shift, which is what makes the quantized SSMU cheap on FPGA (Fig. 3).

This module provides the PoT scale snapping, a per-group PoT fake quantizer,
and an integer-exact :func:`shift_requantize` that demonstrates the shift
implementation is bit-exact against the reference divide-and-round.

It also holds, in numpy, the specification of the *fused* re-quantization
that ``native.c``'s ``ssmu_step`` (the compiled integer decode step, see
:mod:`repro.quant.native`) performs: instead of shifting every group of a
state-sized product by its own exponent difference ``r``, the small
per-group operand is pre-aligned by ``2**(R - r)``
(:func:`alignment_multiplier`, ``R`` = :func:`requant_shift`) so the whole
tile takes one *uniform* half-even right shift by ``R``
(:func:`shift_right_half_even`, the rounding kernel :func:`shift_requantize`
shares).  ``tests/test_ssmu_tiled.py`` pins these functions against
``np.round`` and each other.  The aligned product is bounded by
:func:`aligned_product_bound`, from which :func:`shift_accumulator_dtype`
picks the accumulator width -- INT32 for the INT4/INT8 SSM, the same bound
the ``repro.analysis.overflow`` prover registers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.quant.dtypes import Granularity, IntSpec
from repro.quant.quantizer import QuantizerConfig, quantize_dequantize

__all__ = [
    "pot_quantize_scale",
    "pot_quantizer_config",
    "pot_quantize_dequantize",
    "pot_exponent",
    "absmax_requant_exponents",
    "shift_requantize",
    "requantize_reference",
    "requant_shift",
    "aligned_product_bound",
    "shift_accumulator_dtype",
    "alignment_multiplier",
    "shift_right_half_even",
]


#: Scale floor shared with :data:`repro.quant.quantizer._EPS`: an all-zero
#: quantization group has absmax 0 and therefore no information to derive a
#: scale from; it snaps to this floor (ceil-PoT rounding ``2**-39``) so its
#: codes are all zero and decode back to exact zeros.
_MIN_SCALE = 1e-12


def pot_quantize_scale(scale: np.ndarray | float) -> np.ndarray:
    """Snap non-negative scales up to powers of two.

    The ceiling never reduces the representable range (no extra clipping).

    A zero scale -- the absmax of an all-zero quantization group -- is
    well-defined: it snaps to the power of two at the :data:`_MIN_SCALE`
    floor instead of raising or emitting a ``log2(0)`` warning, matching the
    quantizer's behavior (zero codes, exact-zero reconstruction).  Negative
    scales are still rejected.
    """
    scale = np.asarray(scale, dtype=np.float64)
    if np.any(scale < 0):
        raise ValueError("scales must be non-negative")
    return np.power(2.0, np.ceil(np.log2(np.maximum(scale, _MIN_SCALE))))


def pot_quantizer_config(
    bits: int = 8, group_size: int = 128, granularity: Granularity = Granularity.PER_GROUP
) -> QuantizerConfig:
    """The paper's SSM quantizer: per-group INT8 with PoT scales."""
    return QuantizerConfig(
        spec=IntSpec(bits),
        granularity=granularity,
        group_size=group_size,
        pot_scale=True,
    )


def pot_quantize_dequantize(
    x: np.ndarray, bits: int = 8, group_size: int = 128
) -> np.ndarray:
    """Fake-quantize ``x`` with per-group PoT-scale symmetric quantization."""
    return quantize_dequantize(
        np.asarray(x, dtype=np.float64), pot_quantizer_config(bits, group_size)
    )


def pot_exponent(scales: np.ndarray | float) -> np.ndarray:
    """Exact integer exponents of power-of-two scales (``scales == 2.0**e``).

    The integer-resident decode path threads these exponents instead of the
    float scales themselves: with every scale a power of two, the exponent is
    the complete description of the grid, and re-quantization between grids is
    a shift by the exponent difference (:func:`shift_requantize`).  Extraction
    via ``frexp`` is exact for every representable power of two -- no ``log2``
    rounding is involved.  The exponents come back as INT32 (``frexp``'s own
    type): numpy's ``ldexp`` loop for INT64 exponents is several times slower.
    """
    scales = np.asarray(scales, dtype=np.float64)
    mantissa, exponent = np.frexp(scales)
    if not np.all(mantissa == 0.5):
        raise ValueError("scales must be positive powers of two")
    return exponent - 1


def absmax_requant_exponents(absmax: np.ndarray, bits: int = 8) -> np.ndarray:
    """Destination PoT exponents for values bounded by ``absmax`` per group.

    Replicates, operation for operation, the scale derivation of
    :func:`repro.quant.quantizer.compute_scales` followed by the ``'ceil'``
    PoT snap (``max(absmax, eps) / qmax`` then ``ceil(log2(max(., eps)))``
    with the shared ``1e-12`` floor) -- but returns the integer exponent
    instead of the float scale.  Because the float operations are identical,
    a shift onto ``2**e`` lands codes on exactly the grid the fake-quant
    oracle would have chosen, which is what makes the shift-requantized
    decode step bit-identical to the oracle.

    ``absmax`` is the per-group maximum magnitude as a *float* (for integer
    codes at a known exponent, ``ldexp(int_absmax, src_exponent)`` -- exact,
    powers of two only rescale the mantissa's exponent field).  The result is
    INT32, like :func:`pot_exponent`.
    """
    qmax = float(IntSpec(bits).qmax)
    absmax = np.asarray(absmax, dtype=np.float64)
    scales = np.maximum(absmax, _MIN_SCALE) / qmax
    exponent = np.ceil(np.log2(np.maximum(scales, _MIN_SCALE)))
    return exponent.astype(np.int32)


def requantize_reference(
    values: np.ndarray, src_scale: float, dst_scale: float, bits: int = 8
) -> np.ndarray:
    """Reference re-quantization: rescale integer values to a new scale.

    ``values`` are integer codes at scale ``src_scale``; the result holds the
    same real numbers expressed at ``dst_scale`` (rounded half away from zero,
    clipped).  This is the general (non-PoT) path that needs a real multiplier
    per element; the rounding convention matches the hardware shift path of
    :func:`shift_requantize`.
    """
    spec = IntSpec(bits)
    values = np.asarray(values)
    real = values.astype(np.float64) * src_scale
    ratio = real / dst_scale
    rounded = np.sign(ratio) * np.floor(np.abs(ratio) + 0.5)
    out = np.clip(rounded, spec.qmin, spec.qmax)
    return out.astype(np.int64)


def requant_shift(bits: int) -> int:
    """The uniform right shift ``R`` of the fused SSMU re-quantization.

    ``R = 2 * bits`` (16 for the INT8 SSM): a product of two ``bits``-wide
    codes is below ``2**(2 * bits - 2)``, so a group whose exponent
    difference exceeds ``R`` re-quantizes to all-zero and needs no alignment
    at all -- every other group aligns with a non-negative left shift
    ``R - r``.
    """
    return 2 * bits


def aligned_product_bound(bits: int) -> int:
    """Largest magnitude a pre-aligned SSMU accumulator can hold.

    The destination exponent of every fused re-quantization is derived from
    the group absmax (:func:`absmax_requant_exponents`), so the product
    scaled onto the destination grid is at most ``qmax``; aligned by ``R``
    bits that is ``qmax * 2**R``, plus the ``2**(R - 1)`` rounding bias of
    :func:`shift_right_half_even`.
    """
    shift = requant_shift(bits)
    return IntSpec(bits).qmax * 2**shift + 2 ** (shift - 1)


def shift_accumulator_dtype(bits: int) -> Optional[type]:
    """Narrowest numpy integer type that holds :func:`aligned_product_bound`.

    ``np.int32`` for the INT4/INT8 SSM, ``np.int64`` for wider codes, and
    ``None`` when not even INT64 is wide enough (the caller then has no
    integer datapath and runs the fake-quant oracle).  The predicate is the
    one ``repro.analysis.overflow`` proves offline.
    """
    bound = aligned_product_bound(bits)
    for dtype in (np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return None


def alignment_multiplier(
    absmax: np.ndarray, shift: np.ndarray, bits: int
) -> np.ndarray:
    """Per-group pre-alignment multipliers ``2**(R - shift)`` (INT64).

    ``shift`` is the per-group exponent difference ``dst - src`` of a
    re-quantization whose destination was derived from ``absmax`` (the
    group's largest source magnitude).  Multiplying the group -- or, for an
    outer product, its small operand -- by the result turns the per-group
    shift into the uniform shift by ``R = requant_shift(bits)``.  Groups that
    are all-zero (``absmax == 0``: their destination sits at the ``2**-39``
    floor, arbitrarily far from the source grid) or whose shift exceeds ``R``
    (every product rounds to zero) get multiplier 0, which is both exact and
    keeps the shift count in range.
    """
    full = requant_shift(bits)
    shift = np.asarray(shift, dtype=np.int64)
    live = (np.asarray(absmax) > 0) & (shift <= full)
    return np.where(live, np.int64(1) << np.where(live, full - shift, 0), 0)


def shift_right_half_even(
    acc: np.ndarray, shift: int | np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """In place ``acc <- round_half_even(acc / 2**shift)`` on integer codes.

    One biased arithmetic shift: adding ``half - 1 + lsb(quotient)`` before
    the floor shift carries exactly when the dropped remainder exceeds half,
    or ties with an odd quotient -- identical to ``np.round(acc / 2**shift)``
    for every sign (the remainder of an arithmetic shift is non-negative).
    Five passes over ``acc``, no allocation: ``scratch`` is a same-shape,
    same-dtype work buffer.  ``shift`` is a non-negative Python int (the
    SSMU's uniform shift) or an integer array broadcasting against ``acc``;
    zero shift counts leave their elements untouched.
    """
    if isinstance(shift, (int, np.integer)):
        live = 1 if shift > 0 else 0
        bias = (1 << (shift - 1)) - 1 if shift > 0 else 0
    else:
        shift = np.asarray(shift, dtype=acc.dtype)
        live = (shift > 0).astype(acc.dtype)
        bias = (live << np.maximum(shift - 1, 0)) - live
    np.right_shift(acc, shift, out=scratch)
    np.bitwise_and(scratch, live, out=scratch)
    np.add(acc, scratch, out=acc)
    np.add(acc, bias, out=acc)
    np.right_shift(acc, shift, out=acc)
    return acc


def shift_requantize(
    values: np.ndarray,
    src_exponent: int | np.ndarray,
    dst_exponent: int | np.ndarray,
    bits: int = 8,
    rounding: str = "half_away",
) -> np.ndarray:
    """Re-quantize integer codes between power-of-two scales using shifts only.

    ``values`` hold integers at scale ``2**src_exponent``; the result holds
    the same quantities at scale ``2**dst_exponent``.  A scale *increase*
    (``dst > src``) becomes an arithmetic right shift with rounding, a scale
    decrease becomes a left shift.  This is the hardware-friendly operation
    the paper's PoT scheme enables.

    The exponents may be scalars or integer arrays broadcasting against
    ``values`` (per-group grids: one exponent per quantization group), so one
    call aligns a whole tensor's worth of per-token operand grids.

    ``rounding`` selects the tie-breaking rule of the right shift:

    - ``"half_away"`` -- round half away from zero; bit-exact with
      :func:`requantize_reference` (the shift-vs-multiplier equivalence
      demonstration).
    - ``"half_even"`` -- round half to even, bit-exact with ``np.round`` on
      the real-valued ratio (:func:`shift_right_half_even`, the numpy
      specification of the uniform shift ``native.c``'s decode step runs);
      this is the mode that lands shifted codes exactly where the fake-quant
      oracle's ``np.round`` would put them.
    """
    spec = IntSpec(bits)
    values = np.asarray(values, dtype=np.int64)
    diff = np.asarray(dst_exponent, dtype=np.int64) - np.asarray(
        src_exponent, dtype=np.int64
    )
    # Shift counts at or past the int64 width are undefined in C (and hence in
    # numpy); they only arise for degenerate grids -- e.g. an all-zero group
    # whose destination sits at the 2**-39 scale floor while the source grid is
    # far away.  Capping is exact: a right shift of 62 already rounds every
    # code a quantizer can emit to zero, and a left shift of 48 lifts any
    # nonzero code magnitude past every qmax <= 2**47, so the final clip
    # saturates identically either way (zero codes stay zero under any shift).
    diff = np.clip(diff, -48, 62)
    if diff.ndim == 0 and int(diff) <= 0:
        # Pure left shift (or identity): exact, no rounding involved.
        shifted = values << (-int(diff))
        return np.clip(shifted, spec.qmin, spec.qmax).astype(np.int64, copy=False)
    right = np.maximum(diff, 0)
    left = np.maximum(-diff, 0)
    if rounding == "half_away":
        # Half of the right shift; forced to 0 where no right shift happens
        # so the rounding adjustment is a no-op there.
        half = np.where(right > 0, np.int64(1) << np.maximum(right - 1, 0), np.int64(0))
        magnitude = (np.abs(values) + half) >> right
        shifted = np.sign(values) * magnitude
    elif rounding == "half_even":
        shifted = np.empty(np.broadcast_shapes(values.shape, diff.shape), dtype=np.int64)
        shifted[...] = values
        shift_right_half_even(shifted, right, np.empty_like(shifted))
    else:
        raise ValueError("rounding must be 'half_away' or 'half_even'")
    if left.any():
        shifted = shifted << left
    return np.clip(shifted, spec.qmin, spec.qmax).astype(np.int64, copy=False)
