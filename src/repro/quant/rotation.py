"""Rotation-assisted quantization for Mamba (Sec. IV-A, Fig. 4a of the paper).

The method multiplies the residual stream by an orthogonal (randomised
Hadamard) matrix ``Q`` and the output-projection input by a Hadamard matrix
``H`` so that activation and weight outliers are amortised across channels
before quantization.  All rotations except one are *fused offline* into
neighbouring parameters so no extra computation is required at inference:

1. the first rotation is fused into the embedding table;
2. the rotation at each block input is fused -- together with the split
   RMSNorm scale -- into the input-projection weight;
3. the rotation before the output projection is the only *online* one, an
   on-the-fly Hadamard transform (executed by the HTU on the FPGA);
4. its inverse, plus the residual-side rotation, is fused into the
   output-projection weight;
5. the final rotation is fused -- with the split final-RMSNorm scale -- into
   the LM head.

The SSM layer is *not* rotated: the element-wise recurrence does not satisfy
rotation equivalence (Eq. 1 of the paper); it is quantized with the PoT
scheme of :mod:`repro.quant.ssm_quant` instead.

:func:`rotate_model` produces a mathematically equivalent floating-point
model (verified by tests to machine precision); quantization afterwards is
plain RTN on the rotated weights/activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.mamba.block import Linear
from repro.mamba.model import Mamba2Model
from repro.quant.hadamard import apply_hadamard, random_hadamard_matrix

__all__ = ["RotationConfig", "OnlineHadamard", "RotatedModel", "rotate_model"]


@dataclass(frozen=True)
class RotationConfig:
    """Settings of the rotation-assisted transformation.

    Attributes
    ----------
    seed:
        Seed of the randomised Hadamard sign flips for the residual rotation
        ``Q``.
    random_signs:
        Use a randomised Hadamard (sign-flipped rows) for ``Q``; a plain
        Hadamard is used when ``False``.
    online_hadamard:
        Insert the online Hadamard transform before the output projection
        (rotation (3)).  Disabling it leaves the scattered out-proj outliers
        in place (used in ablations).
    fuse_gated_norm:
        Fuse the gated-RMSNorm scale into the output-projection weight before
        rotating ("fuse and rotate" in Fig. 4b).  The paper chooses *not* to
        fuse because it increases the weight quantization error; both variants
        are provided so the figure can be reproduced.
    """

    seed: int = 0
    random_signs: bool = True
    online_hadamard: bool = True
    fuse_gated_norm: bool = False


class OnlineHadamard:
    """Input transform of the output projection: the normalised Hadamard rotation ``x -> x H``.

    This models the computation the paper's HTU performs online; the hardware
    cost is accounted for separately by :mod:`repro.hardware.htu`.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return apply_hadamard(x, order=self.dim, normalized=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OnlineHadamard(dim={self.dim})"


@dataclass
class RotatedModel:
    """A rotated (still floating-point, mathematically equivalent) model."""

    model: Mamba2Model
    residual_rotation: np.ndarray          # Q, (d_model, d_model), orthogonal
    online_dims: List[int]                 # per-block online Hadamard size (0 = none)
    config: RotationConfig


def _rotate_block(block, q: np.ndarray, config: RotationConfig) -> int:
    """Rotate one block in place; returns the online-Hadamard dimension used.

    Both projections are rebuilt as float :class:`Linear` s; the only input
    transform left is the online Hadamard of the out-projection.
    """
    cfg = block.config
    d_inner = cfg.d_inner

    # (2) Split the pre-norm scale and fuse it, together with Q, into W_in.
    g = block.norm.weight.copy()
    block.in_proj = Linear((block.in_proj.weight * g[None, :]) @ q, block.in_proj.bias)
    block.norm.weight = np.ones_like(g)

    # (4) Residual-side rotation of the output projection: its output, bias
    # included, lands in the rotated residual basis.
    w_out = q.T @ block.out_proj.weight
    transforms = ()

    online_dim = 0
    if config.online_hadamard:
        # (3) Online Hadamard on the out-proj input, (4) inverse fused into W_out.
        if config.fuse_gated_norm:
            g2 = block.gated_norm.weight.copy()
            w_out = w_out * g2[None, :]
            block.gated_norm.weight = np.ones_like(g2)
        h = np.eye(d_inner)
        h = apply_hadamard(h, order=d_inner, normalized=True)
        w_out = w_out @ h
        transforms = (OnlineHadamard(d_inner),)
        online_dim = d_inner
    bias = block.out_proj.bias
    block.out_proj = Linear(w_out, None if bias is None else bias @ q, transforms)
    return online_dim


def rotate_model(
    model: Mamba2Model, config: RotationConfig = RotationConfig()
) -> RotatedModel:
    """Return a rotated copy of ``model`` (the original is left untouched).

    The returned model is floating-point equivalent to the input model: the
    logits match to numerical precision.  Quantizing its linear layers with
    RTN afterwards implements the paper's LightMamba scheme.
    """
    cfg = model.config
    rotated = model.copy()

    if config.random_signs:
        q = random_hadamard_matrix(cfg.d_model, seed=config.seed, normalized=True)
    else:
        q = apply_hadamard(np.eye(cfg.d_model), order=cfg.d_model, normalized=True)

    # Capture the original head weight before the embedding is rotated, since
    # tied models share the matrix; the rotated model is always untied.
    original_head = model.head_weight.copy()

    # (1) Fuse the first rotation into the embedding table.
    rotated.embedding = rotated.embedding @ q

    # (2)-(4) Per-block fusions.
    online_dims = []
    for block in rotated.blocks:
        online_dims.append(_rotate_block(block, q, config))

    # (5) Split the final norm scale and fuse it, with Q, into the LM head.
    g_f = rotated.norm_f.weight.copy()
    rotated.lm_head_weight = (original_head * g_f[None, :]) @ q
    rotated.norm_f.weight = np.ones_like(g_f)

    return RotatedModel(
        model=rotated, residual_rotation=q, online_dims=online_dims, config=config
    )
