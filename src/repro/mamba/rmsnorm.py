"""RMS normalisation layers.

Two variants are used in Mamba2 (Fig. 1 of the paper):

- :class:`RMSNorm` -- the pre-block and final normalisation of the residual
  stream.
- :class:`GatedRMSNorm` -- the normalisation applied to the SSM output after
  gating with ``silu(z)`` and before the output projection.  Its learned scale
  is the one the paper chooses *not* to fuse into the output projection weight
  (Fig. 4b), so the layer exposes the scale separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.mamba.ops import TILE_ELEMS, rms_normalize, row_tiles, silu, tile_rows

__all__ = ["RMSNorm", "GatedRMSNorm"]


def _output_buffer(out: Optional[np.ndarray], shape: tuple) -> np.ndarray:
    """``out`` checked for the tiled kernels (C-contiguous float64), or a fresh buffer."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    return out


@dataclass
class RMSNorm:
    """RMS normalisation with a learned per-channel scale.

    ``y = x / sqrt(mean(x^2) + eps) * weight``
    """

    weight: np.ndarray
    eps: float = 1e-5

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.weight.ndim != 1:
            raise ValueError("RMSNorm weight must be 1-d")

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the normalisation along the last axis.

        Runs a token tile at a time, so a prompt-sized input is normalised
        without prompt-sized temporaries.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValueError(
                f"input last dim {x.shape[-1]} does not match norm dim {self.dim}"
            )
        out = np.empty(x.shape)
        if x.size <= TILE_ELEMS:  # a decode step or a short prompt: one tile
            return np.multiply(rms_normalize(x, eps=self.eps, out=out), self.weight, out=out)
        src, dst = x.reshape(-1, self.dim), out.reshape(-1, self.dim)
        for rows in row_tiles(src.shape[0], self.dim):
            rms_normalize(src[rows], eps=self.eps, out=dst[rows])
            np.multiply(dst[rows], self.weight, out=dst[rows])
        return out

    __call__ = forward

    def copy(self) -> "RMSNorm":
        return RMSNorm(weight=self.weight.copy(), eps=self.eps)


@dataclass
class GatedRMSNorm:
    """Gated RMSNorm used before the output projection in Mamba2.

    ``y = rmsnorm(x * silu(z)) * weight``

    The gate ``z`` comes from the input projection; the normalisation is
    applied after gating (the ``norm_before_gate=False`` convention of the
    reference Mamba2 implementation).
    """

    weight: np.ndarray
    eps: float = 1e-5

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.weight.ndim != 1:
            raise ValueError("GatedRMSNorm weight must be 1-d")

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    def forward(
        self, x: np.ndarray, z: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Gate ``x`` with ``silu(z)`` and normalise along the last axis.

        One fused pass per token tile -- SiLU, gate, mean square, divide,
        scale -- through a tile-sized work buffer into ``out`` (allocated
        when omitted; it may be ``x``).
        """
        x = np.asarray(x, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        if x.shape != z.shape:
            raise ValueError(f"x and z must have the same shape, got {x.shape} vs {z.shape}")
        if x.shape[-1] != self.dim:
            raise ValueError(
                f"input last dim {x.shape[-1]} does not match norm dim {self.dim}"
            )
        out = _output_buffer(out, x.shape)
        if x.size <= TILE_ELEMS:  # a decode step or a short prompt: one tile
            return self._gate_and_normalize(x, z, np.empty(x.shape), out)
        src, gate = x.reshape(-1, self.dim), z.reshape(-1, self.dim)
        dst = out.reshape(-1, self.dim)
        work = np.empty((tile_rows(self.dim), self.dim))
        for rows in row_tiles(src.shape[0], self.dim):
            self._gate_and_normalize(
                src[rows], gate[rows], work[: rows.stop - rows.start], dst[rows]
            )
        return out

    def _gate_and_normalize(
        self, x: np.ndarray, z: np.ndarray, work: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """One tile: ``out <- rmsnorm(x * silu(z)) * weight`` through ``work``."""
        gated = silu(z, out=work)
        np.multiply(x, gated, out=gated)
        rms_normalize(gated, eps=self.eps, out=gated)
        return np.multiply(gated, self.weight, out=out)

    __call__ = forward

    def copy(self) -> "GatedRMSNorm":
        return GatedRMSNorm(weight=self.weight.copy(), eps=self.eps)
