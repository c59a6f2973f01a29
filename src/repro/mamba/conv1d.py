"""Short causal depthwise 1-d convolution.

Mamba2 applies a depthwise causal convolution with a small kernel (typically
4) to the concatenated ``[x, B, C]`` channels produced by the input projection
(the ``Conv`` box in Fig. 1 of the paper).  During decode the convolution is
evaluated incrementally against a rolling per-channel state window.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        seq_len = x.shape[-2]
        k = self.kernel_size
        if initial_state is None:
            context = np.zeros(x.shape[:-2] + (k - 1, self.channels))
        else:
            initial_state = np.asarray(initial_state, dtype=np.float64)
            if initial_state.shape != x.shape[:-2] + (self.channels, k):
                raise ValueError(
                    "expected initial_state of shape "
                    f"{x.shape[:-2] + (self.channels, k)}, got {initial_state.shape}"
                )
            # The window's last k-1 samples are the left context of token 0.
            context = np.swapaxes(initial_state[..., 1:], -1, -2)
        out = np.empty(x.shape)
        if not x.size:
            return out
        # One token tile at a time: k tap multiply-adds (tap j reads the tile
        # shifted back by k-1-j tokens, summed in tap order), the bias and
        # the SiLU, all into cache-resident buffers -- no padded copy of the
        # sequence, no window view.  Only a tile that reaches back past token
        # 0 needs the left context joined on.  :meth:`step`'s einsum sums the
        # taps in another order -- lane-paired, (w0*s0 + w2*s2) + (w1*s1 +
        # w3*s3) for k = 4 on numpy's AVX-512 loops -- so a token's decode
        # output can differ from its prefill output in the last bit.
        taps = self.weight.T                                   # (k, channels)
        row_elems = x.size // seq_len
        work = np.empty(x.shape[:-2] + (min(seq_len, tile_rows(row_elems)), self.channels))
        acc = np.empty_like(work) if self.activation else None
        for rows in row_tiles(seq_len, row_elems):
            count = rows.stop - rows.start
            reach = rows.start - (k - 1)
            if reach < 0:
                window = np.concatenate(
                    [context[..., reach:, :], x[..., : rows.stop, :]], axis=-2
                )
            else:
                window = x[..., reach : rows.stop, :]
            dest = out[..., rows, :]
            total = acc[..., :count, :] if self.activation else dest
            product = work[..., :count, :]
            np.multiply(window[..., :count, :], taps[0], out=total)
            for j in range(1, k):
                np.multiply(window[..., j : j + count, :], taps[j], out=product)
                np.add(total, product, out=total)
            np.add(total, self.bias, out=total)
            if self.activation:
                silu(total, out=dest)
        return out

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
        new_state = np.empty_like(conv_state)
        new_state[..., :-1] = conv_state[..., 1:]
        new_state[..., -1] = x_t
        # Per-channel dot over the window in one fused contraction (the
        # decode hot path; avoids a (..., channels, k) product temporary).
        out = np.einsum("...ck,ck->...c", new_state, self.weight) + self.bias
        if self.activation:
            silu(out, out=out)
        return out, new_state

    def initial_state(self, batch_size: int | None = None) -> np.ndarray:
        """Return an all-zero convolution state (batched when requested)."""
        lead = () if batch_size is None else (batch_size,)
        return np.zeros(lead + (self.channels, self.kernel_size), dtype=np.float64)

    def copy(self) -> "CausalConv1d":
        return CausalConv1d(
            weight=self.weight.copy(), bias=self.bias.copy(), activation=self.activation
        )
