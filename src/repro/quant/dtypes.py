"""Integer type specifications and quantization granularities."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["IntSpec", "INT4", "INT8", "INT16", "Granularity", "code_storage_dtype"]


@dataclass(frozen=True)
class IntSpec:
    """A signed integer format used as a quantization target.

    Symmetric quantization maps real values onto ``[-qmax, qmax]`` where
    ``qmax = 2**(bits - 1) - 1`` (the most negative code is left unused so the
    grid is symmetric, matching standard LLM PTQ practice).
    """

    bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.bits < 2 or self.bits > 32:
            raise ValueError(f"bits must be in [2, 32], got {self.bits}")
        if not self.signed:
            raise ValueError("only signed symmetric formats are supported")

    @property
    def qmax(self) -> int:
        """Largest representable code."""
        return 2 ** (self.bits - 1) - 1

    @property
    def qmin(self) -> int:
        """Smallest code used by symmetric quantization."""
        return -self.qmax

    @property
    def num_levels(self) -> int:
        """Number of codes in the symmetric grid."""
        return 2 * self.qmax + 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"INT{self.bits}"


INT4 = IntSpec(4)
INT8 = IntSpec(8)
INT16 = IntSpec(16)


def code_storage_dtype(bits: int) -> type:
    """Narrowest signed numpy integer type that holds ``bits``-wide values.

    The type every producer of codes stores them in -- the quantizer's
    :func:`~repro.quant.quantizer.quantize`, so the resident SSM state
    (``np.int8`` for the INT4/INT8 SSM: the state moves the bytes the
    on-chip buffer moves) and the weight codes too -- and, called with
    ``2 * bits``, the type a code-by-code product lives in before alignment
    widens it to the accumulator: ``|a * b| <= qmax**2 < 2**(2 * bits - 2)``.
    ``repro.analysis.overflow`` registers both bounds.
    """
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bits <= np.iinfo(dtype).bits:
            return dtype
    raise ValueError(f"no numpy integer type holds {bits}-bit values")


class Granularity(str, enum.Enum):
    """Scale-sharing granularity of a quantizer.

    - ``PER_TENSOR``: a single scale for the whole tensor.
    - ``PER_CHANNEL``: one scale per output channel (weight rows); the paper's
      W8A8 weight scheme.
    - ``PER_TOKEN``: one scale per token (activation rows); the paper's W8A8
      activation scheme.
    - ``PER_GROUP``: one scale per contiguous group of ``group_size`` elements
      along the reduction dimension; the paper's W4A4 scheme (group size 128).
    """

    PER_TENSOR = "per_tensor"
    PER_CHANNEL = "per_channel"
    PER_TOKEN = "per_token"
    PER_GROUP = "per_group"
