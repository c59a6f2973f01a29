"""Elementary numerical operators used throughout the Mamba2 model.

These mirror the operator boxes of Fig. 1 in the paper (SiLU, Softplus, Exp,
element-wise multiplication, RMS normalisation).  They are written for numpy
arrays of arbitrary shape and are numerically stable for the ranges produced
by the model.

The prefill datapath runs its element-wise stages the way the paper's
accelerator does -- tiled and fused: a prompt-sized activation is walked in
*token tiles* small enough to stay cache-resident (:data:`TILE_ELEMS`,
:func:`row_tiles`) and each stage writes into a caller-provided ``out``
buffer instead of allocating a prompt-sized temporary.  Above the
operators, ``Mamba2Model.prefill`` segments the served prefill itself: a
prompt goes through the whole layer stack in chunk-aligned segments of about
128 tokens (``repro.mamba.model.PREFILL_SEGMENT_TOKENS``), so no stage of a
prefill is handed a prompt-sized input (the full-sequence ``forward`` of
evaluation and calibration still is).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional

import numpy as np

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
    """Logistic sigmoid ``1 / (1 + exp(-x))`` with libm's ``exp`` (into ``out`` when given).

    One definition on every path: ``native.c``'s ``silu`` entry, or its
    reference :func:`_silu_reference` where no library loads -- same bytes.
    ``out`` may be ``x``.
    """
    return _nonlinear(x, out, True)


def silu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """SiLU (swish) activation: ``x * sigmoid(x)``, in one pass (into ``out`` when given).

    ``out`` may be ``x``; strided views (the ``z`` / ``xBC`` splits of the
    in-projection) go in without a copy.
    """
    return _nonlinear(x, out, False)


_native = None  # repro.quant.native, imported on first use: repro.quant imports this package


def _nonlinear(x, out: Optional[np.ndarray], gate_only: bool) -> np.ndarray:
    global _native
    if _native is None:
        from repro.quant import native as _native
    x = np.asarray(x, dtype=np.float64)
    library = _native.kernel()
    return (library.silu if library is not None else _silu_reference)(x, out, gate_only)


def _exp(v: float) -> float:
    """libm's ``exp``; an overflow is ``inf``, as in C."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _silu_reference(x: np.ndarray, out: Optional[np.ndarray], gate_only: bool) -> np.ndarray:
    """``native.c``'s ``silu`` in Python, its reference and fallback.

    ``g = 1 / (1 + exp(-x))`` with ``exp`` per element from :mod:`math` (libm),
    then ``x * g`` unless ``gate_only``; into ``out`` when given (it may be
    ``x``), else a new array (a scalar for 0-d ``x``).  A NaN ``x`` makes
    ``g`` a NaN too, and numpy's multiply gives either NaN by layout: SiLU
    gives ``x``'s, quieted, as ``x + x``.
    """
    e = np.fromiter(map(_exp, (-x).ravel().tolist()), np.float64, x.size).reshape(x.shape)
    result = np.divide(1.0, 1.0 + e, out=e)
    if not gate_only:
        with np.errstate(invalid="ignore"):  # -inf * 0.0, as in C
            np.multiply(x, result, out=result)
        np.add(x, x, out=result, where=np.isnan(x))
    if out is None:
        return result if x.ndim else result[()]
    np.copyto(out, result)
    return out


def _row_stride(a: np.ndarray) -> Optional[int]:
    """Values between consecutive rows of ``a``'s last axis when every row is
    one contiguous float64 run and the rows are one stride apart, none
    overlapping, else ``None``."""
    if a.dtype != np.float64:
        return None
    cols = a.shape[-1] if a.ndim else 1
    if a.flags.c_contiguous:
        return cols
    if cols > 1 and a.strides[-1] != 8:
        return None
    lead = [(n, s) for n, s in zip(a.shape[:-1], a.strides[:-1]) if n > 1]
    if any(s != s_in * n_in for (_, s), (n_in, s_in) in zip(lead, lead[1:])):
        return None
    stride, partial = divmod(lead[-1][1], 8) if lead else (cols, 0)
    return stride if not partial and stride >= cols else None


_C_INT_MAX = 2**31 - 1


def _compiled_silu(entry: Callable) -> Callable:
    """``native.c``'s ``silu`` behind :func:`_silu_reference`'s signature.

    ``x`` and ``out`` go in as the rows of their last axis, each at its own
    row stride: a C-contiguous array, or a strided view such as the
    in-projection's ``z`` / ``xBC`` splits, without a copy.  A layout with
    no one row stride is taken a leading index at a time, and at two
    dimensions copied.  The call has no ``argtypes``: ctypes then passes the
    pointers and C ints as they are, where declared types cost a conversion
    object per argument (≈ 0.1 µs each; the whole decode-sized call is a few
    µs).  ctypes would wrap a size past a C int, so such a call runs the
    reference.  Only the library's loader calls this, so ``repro.quant`` is
    imported here, not when ``repro.mamba`` is.
    """
    from repro.quant.native import pointer

    entry.restype = None

    def silu(x: np.ndarray, out: Optional[np.ndarray], gate_only: bool) -> np.ndarray:
        if x.size > _C_INT_MAX:
            return _silu_reference(x, out, gate_only)
        result = np.empty(x.shape) if out is None else out
        if x.flags.c_contiguous and (  # one run each (decode)
            out is None or out is x
            or out.flags.c_contiguous and out.dtype == np.float64 and out.shape == x.shape
        ):
            rows, cols = 1, x.size
            src = dst = cols
        else:
            src, dst = _row_stride(x), _row_stride(result)
            if src is None or dst is None or result.shape != x.shape:
                if x.ndim > 2 and result.shape == x.shape:
                    for row, into in zip(x, result):
                        silu(row, into, gate_only)
                else:
                    np.copyto(result, silu(np.ascontiguousarray(x), None, gate_only))
                return result
            if max(src, dst) > _C_INT_MAX:
                return _silu_reference(x, out, gate_only)
            cols = x.shape[-1] if x.ndim else 1
            rows = x.size // cols if cols else 0
        if x.size:
            at = pointer(x)
            entry(at, rows, cols, src, gate_only, at if result is x else pointer(result), dst)
        return result if out is not None or x.ndim else result[()]

    return silu


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
