"""The SSM (selective state space) recurrence of Mamba2.

This module implements the computation graph of the SSM layer exactly as drawn
in Fig. 1 of the LightMamba paper::

    delta  = softplus(dt + dt_bias)            # (h,)
    A_bar  = exp(delta * A)                    # (h,)      Delta (.) A -> Exp
    B_bar  = delta * B                         # (h, n)    Delta (.) B
    h_t    = A_bar (.) h_{t-1} + B_bar (.) x   # (h, p, n) outer products
    y      = h_t . C + D (.) x                 # (h, p)    matrix mul + skip

where ``h`` is the number of heads, ``p`` the head channel dimension and ``n``
the SSM state dimension.  ``ssm_step`` advances one token; ``ssm_scan`` applies
the recurrence over a whole sequence (used for prefill), as does its chunked
form ``ssd_chunked_scan``; every scan, the quantized one too, enters through
``_scan_entry``.

All element-wise products of the step are also exposed individually through
:func:`ssm_step_trace` so that the SSM quantization pass
(:mod:`repro.quant.ssm_quant`) and the SSMU hardware model
(:mod:`repro.hardware.ssmu`) can operate on the exact same operator
decomposition the accelerator implements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.mamba.ops import softplus

__all__ = [
    "SSMParams",
    "ssm_decay",
    "ssm_step",
    "ssm_step_trace",
    "ssm_scan",
    "ssd_chunked_scan",
    "SSM_ELEMENTWISE_OPS",
]


#: Names of the element-wise operators of the SSM layer, matching Fig. 3 of the
#: paper (used by the hardware cost model and the PoT quantization study).
SSM_ELEMENTWISE_OPS = (
    "delta_mul_A",   # Delta (.) A   (argument of the exponential)
    "delta_mul_B",   # Delta (.) B   (B_bar)
    "B_mul_x",       # B_bar (.) x   (state update input, outer product)
    "A_mul_h",       # A_bar (.) h_{t-1}
    "h_mul_C",       # h_t . C       (state readout)
    "x_mul_D",       # D (.) x       (skip connection)
)


@dataclass
class SSMParams:
    """Per-layer SSM parameters.

    Attributes
    ----------
    A_log:
        Shape ``(nheads,)``; the continuous-time decay is ``A = -exp(A_log)``.
    D:
        Skip-connection coefficient, shape ``(nheads,)``.
    dt_bias:
        Bias added to the raw ``dt`` before the softplus, shape ``(nheads,)``.
    """

    A_log: np.ndarray
    D: np.ndarray
    dt_bias: np.ndarray

    def __post_init__(self) -> None:
        self.A_log = np.asarray(self.A_log, dtype=np.float64)
        self.D = np.asarray(self.D, dtype=np.float64)
        self.dt_bias = np.asarray(self.dt_bias, dtype=np.float64)
        if not (self.A_log.shape == self.D.shape == self.dt_bias.shape):
            raise ValueError("A_log, D and dt_bias must all have shape (nheads,)")
        if self.A_log.ndim != 1:
            raise ValueError("SSM parameters must be 1-d (per head)")

    def __setattr__(self, name, value) -> None:
        # Invalidate the cached decay basis whenever A_log is (re)assigned,
        # so the cache cannot go stale through field assignment.  In-place
        # mutation of the A_log *array* is not tracked -- assign a new array
        # (or build a new SSMParams) to change the decay.
        if name == "A_log":
            object.__setattr__(self, "_A", None)
        object.__setattr__(self, name, value)

    @property
    def nheads(self) -> int:
        return self.A_log.shape[0]

    @property
    def A(self) -> np.ndarray:
        """Continuous-time state matrix diagonal (negative, per head).

        Derived lazily and cached: A is read in every decode step of every
        layer, so re-deriving ``-exp(A_log)`` per access would put an exp
        over ``nheads`` into the per-token hot loop.
        """
        if self._A is None:
            self._A = -np.exp(self.A_log)
        return self._A

    def copy(self) -> "SSMParams":
        return SSMParams(self.A_log.copy(), self.D.copy(), self.dt_bias.copy())


def _validate_step_inputs(
    params: SSMParams,
    x: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    dt: np.ndarray,
    state: np.ndarray,
) -> bool:
    """Validate step inputs; returns ``True`` when they carry a batch dim.

    Single-sequence shapes are ``x (nheads, headdim)``, ``B/C (d_state,)``,
    ``dt (nheads,)``, ``state (nheads, headdim, d_state)``.  Batched inputs
    prepend a shared leading ``batch`` axis to every argument.
    """
    nheads = params.nheads
    if x.ndim == 2:
        batched = False
    elif x.ndim == 3:
        batched = True
    else:
        raise ValueError(
            f"x must have shape (nheads, headdim) or (batch, nheads, headdim), got {x.shape}"
        )
    lead = x.shape[:1] if batched else ()
    if x.shape[-2] != nheads:
        raise ValueError(f"x must have {nheads} heads, got shape {x.shape}")
    headdim = x.shape[-1]
    if B.shape != C.shape or B.ndim != 1 + batched or B.shape[:-1] != lead:
        raise ValueError("B and C must both have shape (d_state,) (plus the batch axis)")
    d_state = B.shape[-1]
    if dt.shape != lead + (nheads,):
        raise ValueError(f"dt must have shape {lead + (nheads,)}, got {dt.shape}")
    if state.shape != lead + (nheads, headdim, d_state):
        raise ValueError(
            f"state must have shape {lead + (nheads, headdim, d_state)}, got {state.shape}"
        )
    return batched


def ssm_decay(params: SSMParams, dt: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-head step size and decay, computed once per step.

    Returns ``(delta, A_bar)`` with ``delta = softplus(dt + dt_bias)`` and
    ``A_bar = exp(delta * A)``, broadcasting over any leading axes of ``dt``
    (batch, or time for a scan).  This is the single place the decode path
    derives its decay: both the floating-point step and the quantized step
    call it, so the softplus / exp pair is evaluated exactly once per step
    instead of being re-derived by each consumer of the same ``dt`` slice.
    """
    delta = softplus(np.asarray(dt, dtype=np.float64) + params.dt_bias)
    return delta, np.exp(delta * params.A)


def ssm_step_trace(
    params: SSMParams,
    x: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    dt: np.ndarray,
    state: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    """Advance the SSM recurrence one step, returning all intermediates.

    Parameters
    ----------
    params:
        The per-layer :class:`SSMParams`.
    x:
        Input of shape ``(nheads, headdim)``.
    B, C:
        Input-dependent projections of shape ``(d_state,)`` (``ngroups == 1``).
    dt:
        Raw per-head step size of shape ``(nheads,)`` (before softplus).
    state:
        Previous hidden state ``h_{t-1}`` of shape ``(nheads, headdim, d_state)``.

    Returns
    -------
    (y, new_state, trace)
        ``y`` has shape ``(nheads, headdim)``, ``new_state`` the same shape as
        ``state`` and ``trace`` maps each name in :data:`SSM_ELEMENTWISE_OPS`
        (plus ``"delta"``, ``"A_bar"``) to the corresponding intermediate
        tensor.
    """
    x = np.asarray(x, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    dt = np.asarray(dt, dtype=np.float64)
    state = np.asarray(state, dtype=np.float64)
    if _validate_step_inputs(params, x, B, C, dt, state):
        raise ValueError("ssm_step_trace is single-sequence only; use ssm_step for batches")

    delta = softplus(dt + params.dt_bias)              # (h,)
    delta_mul_A = delta * params.A                     # (h,)
    A_bar = np.exp(delta_mul_A)                        # (h,)
    delta_mul_B = delta[:, None] * B[None, :]          # (h, n)  B_bar
    B_mul_x = delta_mul_B[:, None, :] * x[:, :, None]  # (h, p, n)
    A_mul_h = A_bar[:, None, None] * state             # (h, p, n)
    new_state = A_mul_h + B_mul_x                      # (h, p, n)
    h_mul_C = new_state * C[None, None, :]             # (h, p, n)
    y_ssm = np.sum(h_mul_C, axis=-1)                   # (h, p)
    x_mul_D = params.D[:, None] * x                    # (h, p)
    y = y_ssm + x_mul_D

    trace = {
        "delta": delta,
        "delta_mul_A": delta_mul_A,
        "A_bar": A_bar,
        "delta_mul_B": delta_mul_B,
        "B_mul_x": B_mul_x,
        "A_mul_h": A_mul_h,
        "h_mul_C": h_mul_C,
        "x_mul_D": x_mul_D,
    }
    return y, new_state, trace


def ssm_step(
    params: SSMParams,
    x: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    dt: np.ndarray,
    state: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance the SSM recurrence one token (without intermediates).

    Unlike :func:`ssm_step_trace` this is a direct implementation that does
    not materialise the per-operator intermediate dictionary (prefill calls
    it once per token), and it accepts an optional leading batch axis:
    ``x (batch, nheads, headdim)``, ``B/C (batch, d_state)``,
    ``dt (batch, nheads)``, ``state (batch, nheads, headdim, d_state)``.
    All batched requests advance in lock-step; single-sequence shapes (no
    batch axis) are accepted unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    dt = np.asarray(dt, dtype=np.float64)
    state = np.asarray(state, dtype=np.float64)
    _validate_step_inputs(params, x, B, C, dt, state)

    delta, A_bar = ssm_decay(params, dt)                         # (..., h) each
    dB = delta[..., :, None] * B[..., None, :]                   # (..., h, n)  B_bar
    new_state = A_bar[..., :, None, None] * state                # (..., h, p, n)
    new_state += dB[..., :, None, :] * x[..., :, :, None]
    # Readout y = h_t . C as a (stacked) mat-vec over the state axis; the
    # reshape is free because new_state is freshly allocated (contiguous).
    nheads, headdim, d_state = new_state.shape[-3:]
    flat = new_state.reshape(new_state.shape[:-3] + (nheads * headdim, d_state))
    y = np.matmul(flat, C[..., None])[..., 0].reshape(x.shape)   # (..., h, p)
    y += params.D[:, None] * x
    return y, new_state


def _scan_entry(
    params: SSMParams, x, B, C, dt, initial_state=None, copy: bool = True
) -> Tuple[np.ndarray, ...]:
    """What every scan does on entry: ``(x, B, C, dt, state)`` ready to scan.

    float64 views of the operands; ``x`` of rank 3, or 4 with a leading batch
    axis every argument carries; its head count checked against ``params``;
    and the entry state: zeros, or ``initial_state`` checked against the
    state shape and copied -- ``copy=False`` takes it over as it is instead:
    a fresh float array the caller made (a dequantized resident state), or a
    state a driven step advances without writing to it (a resident one
    included).
    """
    x = np.asarray(x, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    dt = np.asarray(dt, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ValueError(
            "x must have shape (seq_len, nheads, headdim) or (batch, seq_len, nheads, headdim)"
        )
    nheads, headdim = x.shape[-2:]
    if nheads != params.nheads:
        raise ValueError("head count mismatch between x and params")
    state_shape = x.shape[:-3] + (nheads, headdim, B.shape[-1])
    if initial_state is None:
        return x, B, C, dt, np.zeros(state_shape, dtype=np.float64)
    state = np.array(initial_state, dtype=np.float64, copy=True) if copy else initial_state
    if state.shape != state_shape:
        raise ValueError(f"initial_state must have shape {state_shape}, got {state.shape}")
    return x, B, C, dt, state


def ssm_scan(
    params: SSMParams,
    x: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    dt: np.ndarray,
    initial_state: np.ndarray | None = None,
    step_fn=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the SSM recurrence over a full sequence (prefill).

    Parameters
    ----------
    x:
        Shape ``(seq_len, nheads, headdim)`` or ``(batch, seq_len, nheads,
        headdim)``; with a batch axis every other argument carries the same
        leading axis and the batch advances token-parallel.
    B, C:
        Shape ``(seq_len, d_state)`` (``(batch, seq_len, d_state)`` batched).
    dt:
        Shape ``(seq_len, nheads)`` (``(batch, seq_len, nheads)`` batched).
    initial_state:
        Optional starting hidden state, in the form ``step_fn`` takes
        (integer codes for the quantized step's resident state); zeros if
        omitted.  It is not copied: a zero-length sequence returns it as is.
    step_fn:
        The per-token step to drive (``ssm_step`` signature, batch-capable
        when the input is batched); defaults to :func:`ssm_step`.  The
        quantized scan passes its own step here, so the token loop lives in
        exactly one place.

    Returns
    -------
    (y, final_state)
        ``y`` has the same shape as ``x``; ``final_state`` is
        ``(nheads, headdim, d_state)`` with a leading batch axis if batched.
    """
    step = ssm_step if step_fn is None else step_fn
    # The step returns a new state and never writes to the one it is
    # handed, so the entry state is taken as it is: floats or codes.
    x, B, C, dt, state = _scan_entry(params, x, B, C, dt, initial_state, copy=False)
    y = np.zeros_like(x)
    for t in range(x.shape[-3]):  # the time axis, after any batch axis
        y[..., t, :, :], state = step(
            params, x[..., t, :, :], B[..., t, :], C[..., t, :], dt[..., t, :], state
        )
    return y, state


def ssd_chunked_scan(
    params: SSMParams,
    x: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    dt: np.ndarray,
    initial_state: np.ndarray | None = None,
    chunk_size: int = 64,
) -> Tuple[np.ndarray, np.ndarray]:
    """Chunked SSD formulation of the prefill scan (Dao & Gu, 2024).

    Mathematically identical to :func:`ssm_scan` but processes the sequence
    chunk by chunk: within a chunk the output is computed from a dense
    decay-weighted ``C B^T`` interaction matrix (the "quadratic" SSD form),
    and only one recurrent state hand-off happens per chunk.  This is the
    production prefill engine (matrix-matrix parallelism within a chunk, as
    on the accelerator datapath); the tests verify it matches the sequential
    recurrence to numerical precision.

    Parameters
    ----------
    x:
        Shape ``(seq_len, nheads, headdim)`` or, batched,
        ``(batch, seq_len, nheads, headdim)``; with a batch axis every other
        argument carries the same leading axis.
    B, C:
        Shape ``(seq_len, d_state)`` (``(batch, seq_len, d_state)`` batched).
    dt:
        Shape ``(seq_len, nheads)`` (raw, before softplus;
        ``(batch, seq_len, nheads)`` batched).
    initial_state:
        Optional ``(nheads, headdim, d_state)`` starting state (leading batch
        axis when batched).
    chunk_size:
        Tokens per chunk; clamped to the sequence length, so an oversized
        chunk costs exactly one dense chunk and ``chunk_size == 1`` degrades
        gracefully to the sequential recurrence cost.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    x, B, C, dt, state = _scan_entry(params, x, B, C, dt, initial_state)
    seq_len = x.shape[-3]

    delta = softplus(dt + params.dt_bias)               # (..., T, h)
    log_decay = delta * params.A                        # (..., T, h), negative
    y = np.zeros_like(x)

    # At least 1, so a zero-length sequence is an empty loop: like ssm_scan it
    # returns an empty y and the entry state.
    chunk = max(min(chunk_size, seq_len), 1)
    # One causal mask shared by every full chunk (the ragged tail slices it).
    causal_full = np.tril(np.ones((chunk, chunk), dtype=np.float64))
    for start in range(0, seq_len, chunk):
        stop = min(start + chunk, seq_len)
        q_len = stop - start
        xc = x[..., start:stop, :, :]                   # (..., Q, h, p)
        bc = B[..., start:stop, :]                      # (..., Q, n)
        cc = C[..., start:stop, :]                      # (..., Q, n)
        dc = delta[..., start:stop, :]                  # (..., Q, h)
        lc = np.cumsum(log_decay[..., start:stop, :], axis=-2)  # (..., Q, h) inclusive

        # Dense decay-weighted interaction within the chunk, all heads at once:
        #   G[t, s, head] = exp(L_t - L_s) * (C_t . B_s) * delta_s   for s <= t.
        # Contractions are phrased as stacked matmuls (not einsum) so they run
        # on the BLAS kernels -- this is where the prefill throughput lives.
        cb = cc @ np.swapaxes(bc, -1, -2)               # (..., Q, Q)
        causal = causal_full if q_len == chunk else causal_full[:q_len, :q_len]
        diff = lc[..., :, None, :] - lc[..., None, :, :]  # (..., Q, Q, h)
        # L is strictly decreasing, so causal entries (s <= t) have diff <= 0;
        # clamping at 0 leaves them untouched while keeping the exp finite on
        # the upper triangle, which the causal mask then zeroes -- no (Q, Q, h)
        # -inf fill and no masked-lane exp overflow.
        decay = np.exp(np.minimum(diff, 0.0)) * causal[..., :, :, None]
        gate = cb[..., :, :, None] * decay * dc[..., None, :, :]
        # yc[t, h, p] = sum_s gate[t, s, h] * xc[s, h, p], as a per-head matmul.
        yc = np.moveaxis(
            np.moveaxis(gate, -1, -3) @ np.moveaxis(xc, -2, -3), -3, -2
        )                                               # (..., Q, h, p)
        # Contribution of the carried-in state: h_in . C per head.
        readout = state @ np.swapaxes(cc, -1, -2)[..., None, :, :]  # (..., h, p, Q)
        yc += np.exp(lc)[..., None] * np.moveaxis(readout, -1, -3)
        yc += params.D[:, None] * xc
        y[..., start:stop, :, :] = yc

        # Chunk-final state hand-off:
        #   h_out = exp(L_last) h_in + sum_q carry[q] x_q B_q^T  (per head).
        last = lc[..., -1, :]                           # (..., h)
        carry = np.exp(last[..., None, :] - lc) * dc    # (..., Q, h)
        wx = np.moveaxis(carry[..., :, :, None] * xc, -3, -1)       # (..., h, p, Q)
        state = np.exp(last)[..., :, None, None] * state + wx @ bc[..., None, :, :]
    return y, state
