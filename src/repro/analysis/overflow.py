"""Static accumulator-overflow prover (the OV3xx rule family).

:func:`repro.quant.qlinear.grouped_integer_matmul` carries a *runtime* guard:
the worst-case per-group partial sum ``group_len * x_qmax * w_qmax`` is
checked against the INT32 accumulator range on every call, so an unsafe
configuration fails deterministically on first use.  This module generalizes
that guard into an *offline* prover: it enumerates every integer contraction
the repository's registered configurations can execute -- the
:class:`~repro.quant.qlinear.QuantizedLinear` W4A4/W8A8 paths over the model
presets and the per-platform MMU shapes from :mod:`repro.hardware` (the
quantized SSM's chunk-parallel prefill contracts floats, so it registers
none) -- and proves INT32/INT16 accumulator safety
symbolically from bit widths and group lengths alone.  No kernel is
executed; the bound arithmetic is exactly the runtime guard's, so the two
agree by construction: :attr:`ContractionSpec.overflows` is true precisely
for the configurations on which ``grouped_integer_matmul`` raises
:class:`OverflowError` (the acceptance contract, pinned by tests).

The tiled decode step (:meth:`QuantizedSSMStep._step_integer
<repro.quant.ssm_quant.QuantizedSSMStep._step_integer>`) holds a second kind
of INT32 value: the *pre-aligned* code products of its fused shift
re-quantization (:class:`ShiftAccumulatorSpec`).  Nothing accumulates across
elements there; the bound is :func:`repro.quant.pot.aligned_product_bound`,
the very function the runtime picks its accumulator dtype from
(:func:`repro.quant.pot.shift_accumulator_dtype`), so again the static
verdict and the runtime choice cannot disagree.  The same step also holds
values *narrower* than that accumulator (:class:`NarrowCodeSpec`): the
resident codes it stores at their true width and the ``h (.) C``
code-by-code product, which fits the ``2 * bits`` type
(:func:`repro.quant.pot.code_storage_dtype`).  These ``ssm-decode-step``
specs are executed by the compiled step in ``src/repro/quant/native.c``,
whose ``<stdint.h>`` types are the registered widths (``int8_t`` codes,
``int32_t`` aligned products) and which only takes configurations where those
are what the two functions above pick; its reference and fallback, the
fake-quant oracle, carries floats and holds no integer accumulator.

The prover reports a margin for every contraction (headroom between the
worst-case partial sum and the accumulator capacity, also expressed in
bits), and emits an ``OV301`` finding for any contraction that can provably
overflow -- which fails CI like any other unsuppressed finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.analysis.core import Finding

__all__ = [
    "ContractionSpec",
    "ShiftAccumulatorSpec",
    "NarrowCodeSpec",
    "default_registry",
    "prove",
    "prove_default_registry",
]


class _AccumulatorBound:
    """Verdict arithmetic shared by every spec with ``worst_case`` / ``acc_bits``."""

    @property
    def acc_max(self) -> int:
        """Largest magnitude the accumulator holds without wrapping."""
        return 2 ** (self.acc_bits - 1) - 1

    @property
    def overflows(self) -> bool:
        """Provable overflow -- the exact predicate of the runtime guard.

        ``grouped_integer_matmul`` raises when ``worst_case >= 2**31``; for a
        symbolic accumulator width that is ``worst_case > acc_max``.
        """
        return self.worst_case > self.acc_max

    @property
    def margin(self) -> float:
        """How many times the worst case fits the accumulator (> 1 is safe)."""
        return self.acc_max / self.worst_case

    @property
    def headroom_bits(self) -> float:
        """Margin expressed in bits (negative means provable overflow)."""
        return math.log2(self.margin)

    def _verdict_json(self) -> Dict[str, object]:
        return {
            "acc_bits": self.acc_bits,
            "worst_case": self.worst_case,
            "acc_max": self.acc_max,
            "overflows": self.overflows,
            "margin": self.margin,
            "headroom_bits": round(self.headroom_bits, 3),
        }


@dataclass(frozen=True)
class ContractionSpec(_AccumulatorBound):
    """One integer contraction, described symbolically.

    Attributes
    ----------
    name:
        Human-readable identifier (also the baseline fingerprint anchor).
    origin:
        Which subsystem the contraction belongs to (``qlinear``, ``mmu``).
    x_bits / w_bits:
        Signed symmetric code widths of the two operands
        (``qmax = 2**(bits-1) - 1``).
    group_len:
        Elements accumulated into one partial sum before the scale is
        applied -- the quantization group length, which is also the longest
        run the MMU accumulates between requantization points.
    acc_bits:
        Accumulator width (32 for the per-group MMU/SSMU paths, 64 for the
        per-channel row-accumulate fallback).
    """

    name: str
    origin: str
    x_bits: int
    w_bits: int
    group_len: int
    acc_bits: int = 32

    @property
    def x_qmax(self) -> int:
        return 2 ** (self.x_bits - 1) - 1

    @property
    def w_qmax(self) -> int:
        return 2 ** (self.w_bits - 1) - 1

    @property
    def worst_case(self) -> int:
        """Largest partial-sum magnitude any data can produce."""
        return self.group_len * self.x_qmax * self.w_qmax

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "origin": self.origin,
            "x_bits": self.x_bits,
            "w_bits": self.w_bits,
            "group_len": self.group_len,
            **self._verdict_json(),
        }


@dataclass(frozen=True)
class ShiftAccumulatorSpec(_AccumulatorBound):
    """One pre-aligned product of the tiled decode step's fused shift requant.

    ``B_bar (.) x`` and ``h (.) C`` multiply two ``bits``-wide codes and
    align the product by ``2**(R - r)`` so one uniform half-even right shift
    by ``R`` re-quantizes it.  Because the destination exponent is derived
    from the group absmax, the product on the destination grid is at most
    ``qmax``; the aligned value is bounded by ``qmax * 2**R`` plus the
    ``2**(R - 1)`` rounding bias, whatever the group size (nothing
    accumulates across elements -- the group only selects the exponent).

    Attributes
    ----------
    bits:
        Signed symmetric code width of both operands.
    acc_bits:
        Width of the accumulator the aligned product lives in.
    """

    name: str
    origin: str
    bits: int
    acc_bits: int = 32

    @property
    def worst_case(self) -> int:
        """The bound the runtime derives its accumulator dtype from."""
        from repro.quant.pot import aligned_product_bound

        return aligned_product_bound(self.bits)

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "origin": self.origin,
            "bits": self.bits,
            **self._verdict_json(),
        }


@dataclass(frozen=True)
class NarrowCodeSpec(_AccumulatorBound):
    """A value the tiled decode step holds narrower than its accumulator.

    ``factors`` codes of ``bits`` multiplied together: 1 is the code store
    (the re-quantized state, at most ``qmax`` because its grid comes from
    its own absmax, written straight into the resident array), 2 the
    ``h (.) C`` code-by-code product, which stays in the ``2 * bits`` type
    through its group absmax until the alignment multiply widens it.  The
    bound is ``qmax ** factors``, whatever the group size.

    Attributes
    ----------
    bits:
        Signed symmetric code width of every factor.
    factors:
        How many codes are multiplied (1: a stored code, 2: a product).
    acc_bits:
        Width of the integer type holding the value (the registry takes it
        from the runtime's :func:`repro.quant.pot.code_storage_dtype`).
    """

    name: str
    origin: str
    bits: int
    factors: int
    acc_bits: int

    @property
    def worst_case(self) -> int:
        return (2 ** (self.bits - 1) - 1) ** self.factors

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "origin": self.origin,
            "bits": self.bits,
            "factors": self.factors,
            **self._verdict_json(),
        }


# ----------------------------------------------------------------------
# Registry enumeration
# ----------------------------------------------------------------------
def _ssm_step_specs() -> List[Union[ShiftAccumulatorSpec, NarrowCodeSpec]]:
    """The tiled decode step's integer values, each at the width it is held.

    Per committed SSM code width -- the :class:`SSMQuantConfig` default
    (INT8) and the INT4 variant the bit-identity tests pin -- one INT32
    entry per fused re-quantization (the ``B_bar (.) x`` and ``h (.) C``
    pre-aligned products) and one narrow entry each for the ``h (.) C``
    product before alignment and for the code stores: the resident state
    (whose per-group magnitudes the compiled step also holds at the code
    width, as ``uint8_t``), and the two it holds in ``int8_t`` besides -- the
    x / B / C entry codes and the re-quantized ``Delta (.) B`` codes (clipped
    to ``qmax``, so one code's bound).  No bound depends on the group size, so
    each entry covers the committed group sizes (8, 32, 128) at once.
    """
    import numpy as np

    from repro.quant.pot import code_storage_dtype
    from repro.quant.ssm_quant import SSMQuantConfig

    specs: List[Union[ShiftAccumulatorSpec, NarrowCodeSpec]] = []
    for bits in sorted({4, SSMQuantConfig().bits}):
        suffix = f"lightmamba* INT{bits} g8/g32/g128"
        for product in ("B_bar.x", "h.C"):
            specs.append(
                ShiftAccumulatorSpec(
                    name=f"ssm-decode-step/{product} aligned product {suffix}",
                    origin="ssm-decode-step",
                    bits=bits,
                )
            )
        for value, factors in (("h.C code product", 2), ("state code store", 1),
                               ("x.B.C entry code store", 1), ("Delta.B code store", 1)):
            specs.append(
                NarrowCodeSpec(
                    name=f"ssm-decode-step/{value} {suffix}",
                    origin="ssm-decode-step",
                    bits=bits,
                    factors=factors,
                    acc_bits=np.iinfo(code_storage_dtype(factors * bits)).bits,
                )
            )
    return specs


def _qlinear_specs() -> List[ContractionSpec]:
    """The quantized linear-layer contractions over the model presets.

    W4A4 runs the per-group INT32 path with the paper's group size (128);
    W8A8 uses per-channel / per-token scales, which the software kernel
    accumulates over the full contraction axis in INT64 (the hardware
    accumulates per tile, which is strictly shorter).
    """
    from repro.mamba.config import MODEL_PRESETS
    from repro.quant.qmodel import QuantConfig, QuantMethod

    w4a4 = QuantConfig.w4a4(QuantMethod.LIGHTMAMBA_STAR)
    specs = [
        ContractionSpec(
            name=f"qlinear W{w4a4.w_bits}A{w4a4.a_bits} per-group g{w4a4.group_size}",
            origin="qlinear",
            x_bits=w4a4.a_bits,
            w_bits=w4a4.w_bits,
            group_len=w4a4.group_size,
            acc_bits=32,
        )
    ]
    max_in_features = max(
        max(preset.d_model, preset.d_inner) for preset in MODEL_PRESETS.values()
    )
    w8a8 = QuantConfig.w8a8(QuantMethod.LIGHTMAMBA)
    specs.append(
        ContractionSpec(
            name=f"qlinear W{w8a8.w_bits}A{w8a8.a_bits} per-channel row (K<={max_in_features})",
            origin="qlinear",
            x_bits=w8a8.a_bits,
            w_bits=w8a8.w_bits,
            group_len=max_in_features,
            acc_bits=64,
        )
    )
    return specs


def _mmu_specs() -> List[ContractionSpec]:
    """The per-platform MMU contractions at their operating precisions.

    Each FPGA platform's default MMU shape accumulates ``din`` products per
    cycle and requantizes at quantization-group boundaries; the longest
    accumulation run between scale applications is therefore
    ``max(din, group_size)`` elements wide at the configured code widths.
    """
    from repro.hardware.accelerator import AcceleratorConfig
    from repro.hardware.platforms import U280, VCK190

    specs: List[ContractionSpec] = []
    for platform in (VCK190, U280):
        for w_bits, a_bits in ((4, 4), (8, 8)):
            config = AcceleratorConfig(
                platform=platform, weight_bits=w_bits, act_bits=a_bits
            )
            mmu = config.mmu_config()
            group_len = max(mmu.din, config.group_size)
            specs.append(
                ContractionSpec(
                    name=(
                        f"mmu {platform.name} din{mmu.din} "
                        f"W{w_bits}A{a_bits} g{config.group_size}"
                    ),
                    origin="mmu",
                    x_bits=a_bits,
                    w_bits=w_bits,
                    group_len=group_len,
                    acc_bits=32,
                )
            )
    return specs


AccumulatorSpec = Union[ContractionSpec, ShiftAccumulatorSpec, NarrowCodeSpec]


def default_registry() -> List[AccumulatorSpec]:
    """Every integer accumulator the committed configurations can exercise."""
    return _ssm_step_specs() + _qlinear_specs() + _mmu_specs()


# ----------------------------------------------------------------------
# Proving
# ----------------------------------------------------------------------
def prove(
    specs: List[AccumulatorSpec],
) -> Tuple[List[Finding], List[Dict[str, object]]]:
    """Check every spec; returns (findings, per-contraction margin table)."""
    findings: List[Finding] = []
    margins: List[Dict[str, object]] = []
    for spec in specs:
        margins.append(spec.to_json())
        if spec.overflows:
            findings.append(
                Finding(
                    code="OV301",
                    message=(
                        f"contraction '{spec.name}': worst-case partial sum "
                        f"{spec.worst_case} exceeds the INT{spec.acc_bits} "
                        f"accumulator capacity {spec.acc_max} "
                        f"(headroom {spec.headroom_bits:.2f} bits)"
                    ),
                    path="repro.analysis.overflow",
                    line=0,
                    symbol=spec.name,
                )
            )
    return findings, margins


def prove_default_registry() -> Tuple[List[Finding], List[Dict[str, object]]]:
    return prove(default_registry())
