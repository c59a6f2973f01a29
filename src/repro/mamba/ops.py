"""Elementary numerical operators used throughout the Mamba2 model.

These mirror the operator boxes of Fig. 1 in the paper (SiLU, Softplus, Exp,
element-wise multiplication, RMS normalisation).  They are written for numpy
arrays of arbitrary shape and are numerically stable for the ranges produced
by the model.

The prefill datapath runs its element-wise stages the way the paper's
accelerator does -- tiled and fused: a prompt-sized activation is walked in
*token tiles* small enough to stay cache-resident (:data:`TILE_ELEMS`,
:func:`row_tiles`) and each stage writes into a caller-provided ``out``
buffer instead of allocating a prompt-sized temporary.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

try:  # scipy's expit is a single C ufunc pass; fall back to pure numpy.
    from scipy.special import expit as _expit
except ImportError:  # pragma: no cover - scipy is present in the dev image
    _expit = None

__all__ = [
    "TILE_ELEMS",
    "tile_rows",
    "row_tiles",
    "silu",
    "sigmoid",
    "softplus",
    "softmax",
    "rms_normalize",
    "cross_entropy",
]


#: Elements of one token tile of the prefill datapath: 64 Ki float64 values
#: (512 KiB), so a stage's source tile, destination tile and one work tile
#: fit the L2 together.  The one tile constant of the block-level kernels
#: (fake-quant, FWHT, conv, gated norm); the SSM scan tiles by ``chunk_size``.
TILE_ELEMS = 1 << 16


def tile_rows(row_elems: int) -> int:
    """Rows of ``row_elems`` elements in one tile of :data:`TILE_ELEMS` (at least one)."""
    return max(1, TILE_ELEMS // max(row_elems, 1))


def row_tiles(n_rows: int, row_elems: int) -> Iterator[slice]:
    """Slices walking ``n_rows`` rows a tile (:func:`tile_rows`) at a time."""
    step = tile_rows(row_elems)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically stable logistic sigmoid (into ``out`` when given).

    Computed from ``z = exp(-|x|)`` (never overflows) as ``1 / (1 + z)`` for
    non-negative inputs and ``z / (1 + z)`` otherwise -- branch-free, which is
    markedly faster than masked assignment on the decode hot path.
    """
    x = np.asarray(x, dtype=np.float64)
    if _expit is not None:
        return _expit(x, out=out)
    z = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, z), 1.0 + z, out=out)


def silu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """SiLU (swish) activation: ``x * sigmoid(x)``.

    ``out``, when given, receives the result; it must not alias ``x`` (the
    sigmoid lands in it first and is then multiplied by ``x`` in place).
    """
    x = np.asarray(x, dtype=np.float64)
    gate = sigmoid(x, out=out)
    if gate.ndim:
        np.multiply(x, gate, out=gate)  # reuse the sigmoid buffer (hot path)
        return gate
    return x * gate


def softplus(x: np.ndarray) -> np.ndarray:
    """Numerically stable softplus: ``log(1 + exp(x))``.

    Used to produce the positive step size ``delta`` from the raw ``dt``
    output of the input projection.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 20.0, x, np.log1p(np.exp(np.minimum(x, 20.0))))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with max subtraction for stability."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def rms_normalize(
    x: np.ndarray, eps: float = 1e-5, axis: int = -1, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Root-mean-square normalisation without a learned scale.

    ``x / sqrt(mean(x^2) + eps)`` along ``axis`` (into ``out`` when given;
    ``out`` may be ``x``).  The learned per-channel
    scale is applied by :class:`repro.mamba.rmsnorm.RMSNorm` so that the
    rotation-assisted quantization pass can split it off and fuse it into the
    following linear layer (Sec. IV-A of the paper).
    """
    x = np.asarray(x, dtype=np.float64)
    if axis == -1:
        # Fused sum-of-squares (no squared temporary) on the decode hot path.
        ms = (np.einsum("...i,...i->...", x, x) / x.shape[-1])[..., None]
    else:
        ms = np.mean(np.square(x), axis=axis, keepdims=True)
    return np.divide(x, np.sqrt(ms + eps), out=out)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean token-level cross entropy (nats).

    Parameters
    ----------
    logits:
        Array of shape ``(seq_len, vocab)``.
    targets:
        Integer array of shape ``(seq_len,)``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-d, got shape {logits.shape}")
    if targets.shape[0] != logits.shape[0]:
        raise ValueError("logits and targets must have matching sequence length")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=-1))
    picked = shifted[np.arange(len(targets)), targets]
    return float(np.mean(log_z - picked))
