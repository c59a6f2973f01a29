"""Short causal depthwise 1-d convolution.

Mamba2 applies a depthwise causal convolution with a small kernel (typically
4) to the concatenated ``[x, B, C]`` channels produced by the input projection
(the ``Conv`` box in Fig. 1 of the paper).  During decode the convolution is
evaluated incrementally against a rolling per-channel state window.

Both run on one compiled unit, ``native.c``'s ``conv`` (taps, bias and SiLU
in one pass that writes each output once; :func:`_compiled_conv`, loaded by
:mod:`repro.quant.native`), and :func:`_conv_reference` -- the plain math in
numpy, with the entry's signature -- is its reference and the fallback
wherever it does not run.  The tap order is fixed in code on both: prefill
sums a token's taps in tap order, ``((x0 w0 + x1 w1) + x2 w2) + x3 w3``,
decode lane-paired, ``(w0 s0 + w2 s2) + (w1 s1 + w3 s3)`` -- the order the
decode step's ``einsum`` had on numpy's vector loops, now written out -- so a
token's decode output can differ from its prefill output in the last bit,
but neither depends on how numpy dispatches.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.mamba.ops import row_tiles, silu, tile_rows

__all__ = ["CausalConv1d"]


@dataclass
class CausalConv1d:
    """Depthwise causal 1-d convolution followed by a SiLU activation.

    Attributes
    ----------
    weight:
        Kernel of shape ``(channels, kernel_size)``; ``weight[:, -1]`` is the
        tap applied to the current time step.
    bias:
        Per-channel bias of shape ``(channels,)``.
    activation:
        If ``True`` (default, matching Mamba2) a SiLU is applied to the output.
    """

    weight: np.ndarray
    bias: np.ndarray
    activation: bool = True

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ValueError("conv weight must have shape (channels, kernel_size)")
        if self.bias.shape != (self.weight.shape[0],):
            raise ValueError("conv bias must have shape (channels,)")

    @property
    def channels(self) -> int:
        return self.weight.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray, initial_state: np.ndarray | None = None) -> np.ndarray:
        """Apply the causal convolution to a full sequence.

        Parameters
        ----------
        x:
            Array of shape ``(seq_len, channels)`` or, batched,
            ``(batch, seq_len, channels)``; each batch row is convolved
            independently.
        initial_state:
            Optional rolling window of the inputs *before* this sequence, in
            the :meth:`step` layout ``(..., channels, kernel_size)`` with the
            most recent sample last.  When given, its trailing samples replace
            the zero left-padding so a sequence can be processed in segments
            with exact continuation; an all-zero state reproduces the default.

        Returns
        -------
        Array of the same shape as ``x``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (2, 3) or x.shape[-1] != self.channels:
            raise ValueError(
                f"expected input of shape (seq_len, {self.channels}) or "
                f"(batch, seq_len, {self.channels}), got {x.shape}"
            )
        k = self.kernel_size
        if initial_state is not None:
            initial_state = np.asarray(initial_state, dtype=np.float64)
            if initial_state.shape != x.shape[:-2] + (self.channels, k):
                raise ValueError(
                    "expected initial_state of shape "
                    f"{x.shape[:-2] + (self.channels, k)}, got {initial_state.shape}"
                )
        return _conv(x, initial_state, self.weight, self.bias, self.activation, False)

    def step(self, x_t: np.ndarray, conv_state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Incremental (decode-time) convolution for one time step.

        Parameters
        ----------
        x_t:
            Current input of shape ``(channels,)`` or ``(batch, channels)``.
        conv_state:
            Rolling window of the most recent ``kernel_size`` inputs, shape
            ``(channels, kernel_size)`` (``(batch, channels, kernel_size)``
            when batched); ``conv_state[..., -1]`` is the most recent sample
            *before* this step.

        Returns
        -------
        (output, new_conv_state)
            ``output`` has the shape of ``x_t`` and ``new_conv_state`` the
            shape of ``conv_state``.
        """
        x_t = np.asarray(x_t, dtype=np.float64)
        conv_state = np.asarray(conv_state, dtype=np.float64)
        if x_t.shape[-1:] != (self.channels,) or x_t.ndim not in (1, 2):
            raise ValueError(
                f"expected x_t of shape ({self.channels},) or (batch, {self.channels}), "
                f"got {x_t.shape}"
            )
        if conv_state.shape != x_t.shape + (self.kernel_size,):
            raise ValueError(
                "expected conv_state of shape "
                f"{x_t.shape + (self.kernel_size,)}, got {conv_state.shape}"
            )
        return _conv(x_t, conv_state, self.weight, self.bias, self.activation, True)

    def initial_state(self, batch_size: int | None = None) -> np.ndarray:
        """Return an all-zero convolution state (batched when requested)."""
        lead = () if batch_size is None else (batch_size,)
        return np.zeros(lead + (self.channels, self.kernel_size), dtype=np.float64)

    def copy(self) -> "CausalConv1d":
        return CausalConv1d(
            weight=self.weight.copy(), bias=self.bias.copy(), activation=self.activation
        )


_native = None  # repro.quant.native, imported on first use: repro.quant imports this package


def _conv(x, window, weight, bias, activation: bool, step: bool):
    global _native
    if _native is None:
        from repro.quant import native as _native
    library = _native.kernel()
    return (library.conv if library is not None else _conv_reference)(
        x, window, weight, bias, activation, step)


def _nan_rule(total: np.ndarray, values, weights, bias: np.ndarray) -> None:
    """``native.c``'s ``conv_nan`` where ``total`` (the tap sum plus bias) is a NaN.

    Which of two NaN operands an add or a multiply passes on is the
    compiler's choice, so the rule names one: the first NaN among the taps
    in tap order -- ``values[j]`` before ``weights[j]`` -- then the bias,
    quieted as ``v + v``; ``np.nan`` when no operand is a NaN (``inf * 0``,
    ``inf - inf``).
    """
    bad = np.isnan(total)
    if not bad.any():
        return
    operands = [operand for pair in zip(values, weights) for operand in pair] + [bias]
    stack = np.stack([np.broadcast_to(v, total.shape)[bad] for v in operands])
    nan = np.isnan(stack)
    first = stack[nan.argmax(axis=0), np.arange(stack.shape[1])]
    total[bad] = np.where(nan.any(axis=0), first + first, np.nan)


def _conv_reference(x, window, weight, bias, activation: bool, step: bool):
    """``native.c``'s ``conv`` in numpy: its reference and fallback.

    Prefill (``step`` false): ``x`` is ``(..., seq_len, channels)`` and
    ``window`` ``None`` (zeros) or the ``(..., channels, k)`` rolling window
    whose last ``k - 1`` samples precede token 0; returns the convolved,
    activated ``(..., seq_len, channels)``.  Each output is the taps summed
    in tap order, plus the bias, then SiLU (:func:`repro.mamba.ops.silu`)
    when ``activation``.  Decode (``step`` true): ``x`` is the ``(...,
    channels)`` token; the window shifts it in, the taps are summed
    lane-paired -- the even taps' sum plus the odd taps' sum, each in tap
    order -- and ``(output, new window)`` is returned.  A NaN sum takes
    :func:`_nan_rule`'s value on both, silently (as in C).
    """
    with np.errstate(invalid="ignore"):
        return _conv_numpy(x, window, weight, bias, activation, step)


def _conv_numpy(x, window, weight, bias, activation: bool, step: bool):
    k = weight.shape[1]
    if step:
        new = np.empty_like(window)
        new[..., :-1] = window[..., 1:]
        new[..., -1] = x
        values = [new[..., j] for j in range(k)]
        products = [v * weight[:, j] for j, v in enumerate(values)]
        total = functools.reduce(np.add, products[::2])
        if k > 1:
            total = total + functools.reduce(np.add, products[1::2])
        total = total + bias
        _nan_rule(total, values, list(weight.T), bias)
        if activation:
            silu(total, out=total)
        return total, new
    seq_len, channels = x.shape[-2:]
    if window is None:
        context = np.zeros(x.shape[:-2] + (k - 1, channels))
    else:
        context = np.swapaxes(window[..., 1:], -1, -2)  # the last k-1 samples before token 0
    out = np.empty(x.shape)
    if not x.size:
        return out
    # One token tile at a time: k tap multiply-adds (tap j reads the tile
    # shifted back by k-1-j tokens, summed in tap order), the bias and the
    # SiLU, all into cache-resident buffers -- no padded copy of the
    # sequence, no window view.  Only a tile that reaches back past token 0
    # needs the left context joined on.
    taps = weight.T                                        # (k, channels)
    row_elems = x.size // seq_len
    work = np.empty(x.shape[:-2] + (min(seq_len, tile_rows(row_elems)), channels))
    acc = np.empty_like(work) if activation else None
    for rows in row_tiles(seq_len, row_elems):
        count = rows.stop - rows.start
        reach = rows.start - (k - 1)
        if reach < 0:
            window_rows = np.concatenate([context[..., reach:, :], x[..., : rows.stop, :]], axis=-2)
        else:
            window_rows = x[..., reach : rows.stop, :]
        dest = out[..., rows, :]
        total = acc[..., :count, :] if activation else dest
        product = work[..., :count, :]
        np.multiply(window_rows[..., :count, :], taps[0], out=total)
        for j in range(1, k):
            np.multiply(window_rows[..., j : j + count, :], taps[j], out=product)
            np.add(total, product, out=total)
        np.add(total, bias, out=total)
        _nan_rule(total, [window_rows[..., j : j + count, :] for j in range(k)], list(taps), bias)
        if activation:
            silu(total, out=dest)
    return out


_C_INT_MAX = 2**31 - 1


def _compiled_conv(entry: Callable) -> Callable:
    """``native.c``'s ``conv`` behind :func:`_conv_reference`'s signature.

    ``x`` goes in as it lies -- the in-projection's strided ``xBC`` view
    included -- when a token's channels are contiguous and its sequences
    and tokens lie at one stride each; otherwise a contiguous copy does.
    The window, the weight and the bias go in C-contiguous.  The call has
    no ``argtypes`` (see :func:`repro.mamba.ops._compiled_silu`); a size past
    a C int runs the reference.  Only the library's loader calls this.
    """
    from repro.quant.native import pointer

    entry.restype = ctypes.c_int

    def conv(x, window, weight, bias, activation: bool, step: bool):
        x = np.asarray(x, dtype=np.float64)
        channels, k = weight.shape
        lead = x.shape[:-1] if step else x.shape[:-2]
        out = np.empty(x.shape)
        new = np.empty(window.shape) if step else None
        if not out.size:
            return (out, new) if step else out
        if not x.flags.c_contiguous and (channels > 1 and x.strides[-1] != 8
                                         or any(s % 8 or s < 0 for s in x.strides)):
            x = np.ascontiguousarray(x)
        if len(lead) > 1 or max(x.size * k, *x.strides) > _C_INT_MAX:
            return _conv_reference(x, window, weight, bias, activation, step)
        held = [np.ascontiguousarray(a) for a in (weight, bias)]
        if window is not None:
            held.append(np.ascontiguousarray(window, dtype=np.float64))
        done = entry(pointer(x), lead[0] if lead else 1, 1 if step else x.shape[-2], channels,
                     x.strides[0] // 8 if lead else 0, 0 if step else x.strides[-2] // 8,
                     None if window is None else pointer(held[2]), pointer(held[0]),
                     pointer(held[1]), k, step, activation, pointer(out),
                     None if new is None else pointer(new))
        if done < 0:
            raise MemoryError("conv: scratch allocation failed")
        return (out, new) if step else out

    return conv
