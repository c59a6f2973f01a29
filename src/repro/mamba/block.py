"""The Mamba2 block.

A block (Fig. 1 of the paper) computes, for a residual-stream input ``u``::

    r           = RMSNorm(u)
    [z,xBC,dt]  = r @ W_in^T                      # input projection
    xBC         = silu(conv1d(xBC))               # short causal convolution
    x, B, C     = split(xBC)
    y           = SSM(x, B, C, dt)                # recurrence, Fig. 1 right
    g           = GatedRMSNorm(y, z)              # gate with silu(z), normalise
    out         = u + g @ W_out^T                 # output projection + residual

Each projection is one object, called on its input: a :class:`Linear` --
``pre(x) @ weight.T (+ bias)``, where ``pre`` applies the projection's input
transforms in order (identity when there are none).  The rotated model's
online Hadamard before the output projection (rotation (3) in Fig. 4a) is
such a transform; the quantized model replaces both projections with
:class:`~repro.quant.qlinear.QuantizedLinear`, whose ``pre`` also quantizes
the activation.

``ssm_impl`` is an alternative implementation of the SSM layer, typed by the
:class:`SSMImpl` protocol; the PoT-quantized SSM plugs in here.  The block
calls it without looking at what it is: ``step`` makes one batched step
call, ``forward`` one ``prefill_scan`` call, and the state it is handed back
goes into the cache as it comes.  ``None`` (the default) is the
floating-point recurrence of :mod:`repro.mamba.ssm`.

``step`` (one token) and ``forward`` (a segment) share one body: the
pre-norm + in-projection, and the gated norm + out-projection + residual with
the ``collect`` writes.  They differ only in the convolution call
(``conv.step`` / ``conv.forward``) and the SSM call (the step /
``prefill_scan``), and stay two methods so each is timed on its own.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Protocol, Tuple

import numpy as np

from repro.mamba.cache import LayerCache
from repro.mamba.config import Mamba2Config
from repro.mamba.conv1d import CausalConv1d
from repro.mamba.rmsnorm import GatedRMSNorm, RMSNorm
from repro.mamba.ssm import SSMParams, ssd_chunked_scan, ssm_scan, ssm_step

__all__ = ["Linear", "MambaBlock", "SSMImpl"]


class SSMImpl(Protocol):
    """What a block asks of an installed SSM implementation.

    ``state`` is whatever the implementation's own ``zeros_cache`` put into
    ``LayerCache.ssm_state`` (floats, or integer codes); the block only
    passes it through.  Every tensor may carry a leading batch axis.
    """

    def __call__(
        self, params: SSMParams, x: np.ndarray, B: np.ndarray, C: np.ndarray, dt: np.ndarray,
        state: Any,
    ) -> Tuple[np.ndarray, Any]:
        """One token: the :func:`repro.mamba.ssm.ssm_step` signature."""

    def prefill_scan(
        self, params: SSMParams, x: np.ndarray, B: np.ndarray, C: np.ndarray, dt: np.ndarray,
        initial_state: Any = None, chunk_size: int = 64,
    ) -> Tuple[np.ndarray, Any]:
        """A segment: the :func:`repro.mamba.ssm.ssd_chunked_scan` signature;
        ``chunk_size=1`` is the exact per-token recurrence."""

    def zeros_cache(self, config: Mamba2Config, batch_size: Optional[int] = None) -> LayerCache:
        """A fresh zero cache in the state representation it decodes on."""


@dataclass
class Linear:
    """A projection ``pre(x) @ weight.T (+ bias)``.

    ``pre`` applies ``transforms`` -- callables on the input activation -- in
    order.  :class:`~repro.quant.qlinear.QuantizedLinear` is the quantized
    form: its weight is decoded from integer codes and its ``pre`` ends with
    activation quantization.
    """

    weight: np.ndarray                                        # (out_features, in_features)
    bias: Optional[np.ndarray] = None                         # (out_features,)
    transforms: Tuple[Callable[[np.ndarray], np.ndarray], ...] = ()

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != self.weight.shape[:1]:
                raise ValueError(
                    f"bias must have shape ({self.weight.shape[0]},), got {self.bias.shape}"
                )
        self.transforms = tuple(self.transforms)

    def pre(self, x: np.ndarray) -> np.ndarray:
        """The input transforms, in order."""
        for transform in self.transforms:
            x = transform(x)
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.pre(x) @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    __call__ = forward

    def copy(self) -> "Linear":
        """A copy with its own weight and bias (transforms shared)."""
        clone = copy.copy(self)
        clone.weight = self.weight.copy()
        clone.bias = None if self.bias is None else self.bias.copy()
        return clone


def _rolled_conv_window(window: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """The convolution window after the ``inputs`` segment, in cache layout.

    ``window`` is the ``(..., channels, k)`` rolling state and ``inputs`` the
    ``(..., seq_len, channels)`` segment just processed.  The new window is
    the last ``k`` samples of *previous window + inputs*: read straight from
    the tail of ``inputs``, joined to what survives of the old window only
    when the segment is shorter than the kernel.
    """
    k = window.shape[-1]
    length = inputs.shape[-2]
    tail = np.swapaxes(inputs[..., max(length - k, 0) :, :], -1, -2)
    if length < k:
        tail = np.concatenate([window[..., length:], tail], axis=-1)
    return np.ascontiguousarray(tail)


@dataclass
class MambaBlock:
    """One Mamba2 block with explicit numpy parameters."""

    config: Mamba2Config
    norm: RMSNorm
    in_proj: Linear                   # (d_in_proj, d_model)
    conv: CausalConv1d                # over conv_dim channels
    ssm: SSMParams
    gated_norm: GatedRMSNorm
    out_proj: Linear                  # (d_model, d_inner)
    layer_idx: int = 0
    ssm_impl: Optional[SSMImpl] = None

    def __post_init__(self) -> None:
        cfg = self.config
        if cfg.ngroups != 1:
            # B and C are split and scanned as one group shared by every head.
            raise ValueError(f"MambaBlock supports ngroups=1 only, got ngroups={cfg.ngroups}")
        for name, proj, shape in (
            ("in_proj", self.in_proj, (cfg.d_in_proj, cfg.d_model)),
            ("out_proj", self.out_proj, (cfg.d_model, cfg.d_inner)),
        ):
            if proj.weight.shape != shape:
                raise ValueError(
                    f"{name} weight must have shape {shape}, got {proj.weight.shape}"
                )
        if self.conv.channels != cfg.conv_dim:
            raise ValueError("conv channel count does not match config.conv_dim")
        if self.ssm.nheads != cfg.nheads:
            raise ValueError("SSM head count does not match config.nheads")
        if self.norm.dim != cfg.d_model or self.gated_norm.dim != cfg.d_inner:
            raise ValueError("norm dimensions do not match the configuration")

    # ------------------------------------------------------------------
    # The shared halves of step and forward
    # ------------------------------------------------------------------
    def _project_in(self, u: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Pre-norm and in-projection: ``(r, z, xBC, dt)``, the last three views of one array."""
        cfg = self.config
        r = self.norm(u)
        zxbcdt = self.in_proj(r)
        z = zxbcdt[..., : cfg.d_inner]
        xbc = zxbcdt[..., cfg.d_inner : cfg.d_inner + cfg.conv_dim]
        return r, z, xbc, zxbcdt[..., cfg.d_inner + cfg.conv_dim :]

    def _split_xbc(self, xbc: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The convolved ``xBC`` as the SSM operands ``x`` (per head), ``B``, ``C``."""
        cfg = self.config
        x = xbc[..., : cfg.d_inner]
        b = xbc[..., cfg.d_inner : cfg.d_inner + cfg.d_bc]
        c = xbc[..., cfg.d_inner + cfg.d_bc :]
        return x.reshape(x.shape[:-1] + (cfg.nheads, cfg.headdim)), b, c

    def _project_out(
        self, u: np.ndarray, r: np.ndarray, z: np.ndarray, xbc: np.ndarray, dt: np.ndarray,
        y_heads: np.ndarray, collect: Optional[Dict[str, np.ndarray]],
    ) -> np.ndarray:
        """Gated norm, out-projection and residual; the ``collect`` writes."""
        y = y_heads.reshape(u.shape[:-1] + (self.config.d_inner,))
        # The SSM output is dead after the gate, so the gated norm may
        # overwrite it -- unless the caller collects it.
        reuse = collect is None and y.flags.c_contiguous
        gated = self.gated_norm(y, z, out=y if reuse else None)
        out = self.out_proj(gated)
        hidden = np.add(u, out, out=out)
        if collect is not None:
            x_heads, b, c = self._split_xbc(xbc)
            collect.update(
                in_proj_input=r, out_proj_input=gated, z=z, x=x_heads.reshape(y.shape),
                B=b, C=c, dt=dt, ssm_output=y, block_output=hidden,
            )
        return hidden

    # ------------------------------------------------------------------
    # Decode (one token)
    # ------------------------------------------------------------------
    def step(
        self,
        u: np.ndarray,
        cache: LayerCache,
        collect: Optional[Dict[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """Process one token per sequence, updating ``cache`` in place.

        Parameters
        ----------
        u:
            Residual-stream input of shape ``(d_model,)``, or
            ``(batch, d_model)`` to advance a batch of sequences in lock-step
            (``cache`` must then be batched with the same batch size).
        cache:
            The layer's recurrent state; its ``conv_state`` and ``ssm_state``
            are replaced with the post-step values.
        collect:
            Optional dictionary that receives named intermediate activations
            (used by calibration and by the activation-distribution figure).
        """
        cfg = self.config
        u = np.asarray(u, dtype=np.float64)
        if u.shape[-1:] != (cfg.d_model,) or u.ndim not in (1, 2):
            raise ValueError(
                f"expected input of shape ({cfg.d_model},) or (batch, {cfg.d_model}), "
                f"got {u.shape}"
            )
        r, z, xbc, dt = self._project_in(u)
        if u.ndim == 2:
            # The splits are strided views of zxbcdt; the decode hot loop
            # touches them many times, so contiguous copies pay for themselves.
            z, xbc, dt = z.copy(), xbc.copy(), dt.copy()
        xbc_conv, cache.conv_state = self.conv.step(xbc, cache.conv_state)
        x_heads, b, c = self._split_xbc(xbc_conv)
        step_fn = self.ssm_impl if self.ssm_impl is not None else ssm_step
        y_heads, cache.ssm_state = step_fn(self.ssm, x_heads, b, c, dt, cache.ssm_state)
        return self._project_out(u, r, z, xbc_conv, dt, y_heads, collect)

    # ------------------------------------------------------------------
    # Prefill (full sequence)
    # ------------------------------------------------------------------
    def forward(
        self,
        u: np.ndarray,
        cache: Optional[LayerCache] = None,
        collect: Optional[Dict[str, np.ndarray]] = None,
        *,
        scan_impl: Optional[str] = None,
    ) -> np.ndarray:
        """Process a full sequence of shape ``(seq_len, d_model)``.

        A leading batch axis is also accepted -- ``(batch, seq_len, d_model)``
        -- in which case ``cache`` (if given) must be batched with the same
        batch size and every sequence is prefilled in parallel.

        If ``cache`` is provided it is updated to the state after the last
        token so that decoding can continue from the prompt.  A *warm* cache
        (non-zero state from an earlier segment) is continued exactly: its
        convolution window supplies the left context of the new segment, so a
        long prompt may be prefilled in pieces.

        Parameters
        ----------
        scan_impl:
            ``"chunked"`` (the default: the SSD chunked scan at
            ``config.chunk_size``, the fast path) or ``"sequential"`` (the
            per-token reference recurrence).  An installed ``ssm_impl`` serves
            both through one ``prefill_scan`` call: ``"sequential"`` is its
            chunk size 1, the exact per-token path -- for the quantized SSM,
            its decode step token by token, on the state the cache holds.
        """
        cfg = self.config
        u = np.asarray(u, dtype=np.float64)
        if u.ndim not in (2, 3) or u.shape[-1] != cfg.d_model:
            raise ValueError(
                f"expected input of shape (seq_len, {cfg.d_model}) or "
                f"(batch, seq_len, {cfg.d_model}), got {u.shape}"
            )
        if scan_impl not in (None, "chunked", "sequential"):
            raise ValueError("scan_impl must be 'chunked' or 'sequential'")
        sequential = scan_impl == "sequential"

        r, z, xbc, dt = self._project_in(u)
        conv_initial = None if cache is None else cache.conv_state
        xbc_conv = self.conv.forward(xbc, initial_state=conv_initial)
        x_heads, b, c = self._split_xbc(xbc_conv)
        initial = None if cache is None else cache.ssm_state
        if self.ssm_impl is not None:
            # One scan call for the whole segment; the state returns in the
            # form it went in.
            y_heads, final_state = self.ssm_impl.prefill_scan(
                self.ssm, x_heads, b, c, dt, initial_state=initial,
                chunk_size=1 if sequential else cfg.chunk_size,
            )
        elif sequential:
            y_heads, final_state = ssm_scan(self.ssm, x_heads, b, c, dt, initial)
        else:
            y_heads, final_state = ssd_chunked_scan(
                self.ssm, x_heads, b, c, dt, initial, chunk_size=cfg.chunk_size
            )
        hidden = self._project_out(u, r, z, xbc_conv, dt, y_heads, collect)

        if cache is not None:
            cache.ssm_state = final_state
            cache.conv_state = _rolled_conv_window(cache.conv_state, xbc)
        return hidden

    __call__ = forward

    # Old names, read by benchmarks/e2e only (ROADMAP 1(c)).
    pre_in_proj = property(
        lambda self: self.in_proj.pre, lambda self, pre: setattr(self.in_proj, "pre", pre)
    )
    pre_out_proj = property(
        lambda self: self.out_proj.pre, lambda self, pre: setattr(self.out_proj, "pre", pre)
    )
    in_proj_weight = property(lambda self: self.in_proj.weight)

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def copy(self) -> "MambaBlock":
        """Deep copy of the block (projection transforms and ``ssm_impl`` shared)."""
        return MambaBlock(
            config=self.config,
            norm=self.norm.copy(),
            in_proj=self.in_proj.copy(),
            conv=self.conv.copy(),
            ssm=self.ssm.copy(),
            gated_norm=self.gated_norm.copy(),
            out_proj=self.out_proj.copy(),
            layer_idx=self.layer_idx,
            ssm_impl=self.ssm_impl,
        )

    def num_parameters(self) -> int:
        """Parameter count of this block."""
        return int(
            self.in_proj.weight.size
            + self.out_proj.weight.size
            + self.conv.weight.size
            + self.conv.bias.size
            + self.ssm.A_log.size
            + self.ssm.D.size
            + self.ssm.dt_bias.size
            + self.norm.weight.size
            + self.gated_norm.weight.size
        )
