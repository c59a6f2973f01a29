"""Quantized SSM layer (the LightMamba* configuration).

Sec. IV-B of the paper: the SSM layer is quantized with per-group INT8 and
power-of-two (PoT) scales so that the re-quantization after every element-wise
multiplication is a bit shift.  The non-linear operators (softplus, exp) stay
in floating point -- on the FPGA they are implemented with dedicated units --
while every multiplicative operand and every element-wise product is
fake-quantized on the INT8 PoT grid.

One class implements it, :class:`QuantizedSSMStep` -- the
:class:`~repro.mamba.block.SSMImpl` that
:func:`~repro.quant.qmodel.quantize_model` installs on every lightmamba*
block:

- its call is a drop-in replacement for :func:`repro.mamba.ssm.ssm_step`
  and advances the quantized recurrence one token at a time -- the decode
  engine;
- :meth:`~QuantizedSSMStep.prefill_scan` runs a segment.  Chunk-parallel,
  it mirrors the intra/inter-chunk SSD decomposition of
  :func:`repro.mamba.ssm.ssd_chunked_scan`, with the quantization points
  kept at the same operator interfaces; like the decode step it is tiled and
  fused: the chunk is the tile, operands are staged per chunk through reused
  head-major scratch, and between the BLAS contractions every element-wise
  stage is one fused pass (compiled where the library loads).  At chunk size
  1 (``scan_impl="sequential"``) it is the decode step itself, driven token
  by token.

One datapath: the state's type selects the arithmetic
-----------------------------------------------------

There is no execution flag.  A recurrent state that arrives as integer codes
(a :class:`~repro.mamba.cache.QuantizedSSMState`) is advanced by the
**all-integer iteration** :meth:`QuantizedSSMStep._step_integer` and leaves
as codes; a state that arrives as a float array is advanced by the
**fake-quant oracle** :meth:`QuantizedSSMStep._step_oracle` -- every operand
through its integer grid, stored and combined as floats -- and leaves as
floats.  Under PoT scales the two are bit-identical, which
``tests/test_int_state.py`` and ``tests/test_ssmu_native.py`` pin.
:meth:`QuantizedSSMStep.zeros_cache` decides which one a model decodes on: it
hands out an integer-resident
:class:`~repro.mamba.cache.QuantizedLayerCache` exactly when the
configuration can run the integer iteration (PoT scales, state and product
re-quantization on, codes narrow enough for an integer accumulator) -- every
default lightmamba* model -- and a float
:class:`~repro.mamba.cache.LayerCache` for the Fig. 3 ablation
configurations.  To run the oracle on a default model, hand it a float cache.

The integer iteration is organised like the paper's SSMU: x/B/C are quantized
once at the in-projection boundary and from there to the readout no float
tensor is materialized.  Only the non-linear decay pair (softplus, exp) is
numpy's -- numpy's SIMD transcendentals are not libm's, and the oracle uses
numpy's -- and everything after it is **one call for the whole batch** into
``native.c``'s ``ssmu_step``, built and loaded by :mod:`repro.quant.native`
(:func:`repro.quant.native.status` says whether it loaded).  The compiled
step runs the three entry quantizations, the ``Delta (.) B`` and ``D (.) x``
scalar folds, the fused state tile and the new power-of-two grids -- it
reads and writes the resident state's ``int8`` exponents as they are held --
and is *narrow, fused, tiled*:

- **narrow**: every value lives at the width its bound proves
  (:func:`repro.quant.dtypes.code_storage_dtype`).  The entry codes, the
  ``Delta (.) B`` codes and the resident codes are held, absmax-reduced and
  written as INT8, a code-by-code product (``qmax**2 < 2**15``) and its
  alignment live in the INT32 accumulator whose width follows from the bound
  the ``repro.analysis`` overflow prover registers
  (:func:`repro.quant.pot.shift_accumulator_dtype`).  Only the state add,
  whose addends sit on different PoT grids, runs on a wide (float64)
  accumulator; its rounded sum is cast once, into the output state.
- **fused**: the ``Delta (.) B``, ``A_bar (.) h`` and ``D (.) x`` products
  fold their per-head float scalar into the re-quantization multiplier (a PoT
  shift plus one scalar multiply on hardware -- the EM units of Fig. 3).  The
  code-by-code products (``B_bar (.) x``, ``h (.) C``) re-quantize by a bit
  shift alone, and the per-group shift count ``r`` is folded into the *small*
  operand: the x codes are pre-aligned by ``2**(R - r)`` before the outer
  product, so the state-sized product takes one uniform half-even right shift
  by ``R`` (:func:`repro.quant.pot.shift_right_half_even`) instead of a
  per-group broadcast shift.  The four stages of a head -- multiply, align,
  shift, add, group absmax, re-quantize, readout -- run back to back, a
  group of state rows at a time, on group-sized scratch: one pipeline per
  tile, as in Sec. IV-B, not a chain of whole-tensor passes.
- **tiled**: a head (``headdim`` channels x ``d_state`` codes, 8 KiB on the
  benchmark model) is the tile, its channels side by side in vector lanes --
  the SSMU's ``np x pp`` tile of Fig. 7, the channel axis the unrolled one.
  Every stage and every per-group exponent derivation runs across all the
  channels at once, so step time grows with the rows of a batch, not
  faster.  The resident state is stored channel-minor for it (see
  :class:`~repro.mamba.cache.QuantizedSSMState`), and nothing transposes.

Two executors, one arithmetic: the compiled step, and the fake-quant oracle as
its reference and fallback.  The library's load-time self-test checks the
compiled step against the oracle byte for byte; the oracle advances a
resident state wherever the compiled step does not -- no C compiler, codes
wider than INT8, a batch with a non-finite operand or a poisoned state
group, one whose new state grid would pass the exponent byte's ``2**127``
or another grid ``2**1023`` -- and returns codes, so the caller never sees
which ran.  The state's poison and range contracts
(:class:`~repro.mamba.cache.QuantizedSSMState`) hold on both.

Shifts round half-to-even, so shifted codes land exactly where the oracle's
``np.round`` would put them; the DT2xx dtype-flow lint enforces the rest
statically over the ``# integer-resident`` regions (every surviving float
materialization carries a ``# quant-point:`` sanction, and the sanction
budget can only ratchet down).  The chunk-parallel prefill contracts floats
on the fake-quant grids whatever the state's type (a compiled integer GEMM
would be needed to beat BLAS here; see ROADMAP) and converts a resident
state at its entry and exit only; its entry checks and float staging are the
ones :func:`repro.mamba.ssm.ssm_scan` and
:func:`~repro.mamba.ssm.ssd_chunked_scan` run.  The sequential scan converts
nothing: it hands the state, in the form it came in, to the step.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Tuple

import numpy as np

from repro.mamba.cache import LayerCache, QuantizedLayerCache, QuantizedSSMState
from repro.mamba.config import Mamba2Config
from repro.mamba.ops import softplus
from repro.mamba.ssm import SSMParams, _scan_entry, ssm_decay, ssm_scan
from repro.quant import native
from repro.quant.dtypes import Granularity, IntSpec, code_storage_dtype
from repro.quant.pot import absmax_requant_exponents, shift_accumulator_dtype
from repro.quant.quantizer import (
    QuantizerConfig,
    _fake_quant_into,
    quantize,
)

__all__ = ["SSMQuantConfig", "QuantizedSSMStep"]


@dataclass(frozen=True)
class SSMQuantConfig:
    """Settings of the SSM quantization.

    Attributes
    ----------
    bits:
        Integer width of the SSM operands and element-wise products (the
        paper uses INT8 for the SSM regardless of the linear-layer width).
    group_size:
        Per-group quantization group length along the state / channel axis.
    pot_scale:
        Constrain scales to powers of two (the paper's FPGA-friendly scheme).
        Setting it to ``False`` gives the "naive non-PoT" ablation of Fig. 3.
    quantize_state:
        Also keep the recurrent hidden state ``h`` on the integer grid between
        steps (the state is stored in on-chip memory on the FPGA).  The
        chunk-parallel scan applies it at chunk boundaries.
    quantize_products:
        Re-quantize every element-wise product (the re-quantization whose
        hardware cost Fig. 3 analyses).  Disabling keeps products at high
        precision until the output.

    These five numbers are the whole configuration: *how* the recurrence is
    executed -- on integer codes or on the fake-quant float view -- follows
    from the type of the state handed to the step (see the module docstring),
    not from a field here.
    """

    bits: int = 8
    group_size: int = 32
    pot_scale: bool = True
    quantize_state: bool = True
    quantize_products: bool = True

    def config(self, granularity: Granularity = Granularity.PER_GROUP) -> QuantizerConfig:
        """Build the underlying :class:`QuantizerConfig`."""
        return QuantizerConfig(
            spec=IntSpec(self.bits),
            granularity=granularity,
            group_size=self.group_size,
            pot_scale=self.pot_scale,
        )


#: What a step returns for a batch the float oracle must run.
_ORACLE = "oracle"


def _compiled_step(entry: Callable) -> Callable:  # integer-resident
    """``native.c``'s ``ssmu_step``: the integer step of :meth:`QuantizedSSMStep._step_integer`.

    ``step(x, B, C, dt, delta, a_bar, D, state, group_size, bits)`` returns
    ``(y, new_state)`` -- the state around the codes and ``int8`` grids the
    entry wrote, channel-minor as it reads them (see
    :class:`~repro.mamba.cache.QuantizedSSMState`) -- :data:`_ORACLE` for a
    batch with a non-finite operand, a poisoned state group or a grid past
    its range, or ``None`` when the batch is outside the kernel's contract:
    codes other than INT8 of at most 8 bits, storage that is not
    C-contiguous, an operand not shaped for the state's one leading batch
    shape (as the decode path passes them).  The oracle runs the batch in
    both cases.
    """
    entry.restype = ctypes.c_int
    entry.argtypes = [ctypes.c_int64] * 5 + [ctypes.c_int32] + [ctypes.c_void_p] * 12

    def step(x, B, C, dt, delta, a_bar, D, state, group_size, bits):
        codes, grids = state.storage
        if codes.dtype != np.int8 or not 2 <= bits <= 8:
            return None
        lead, (heads, n, dim) = codes.shape[:-3], codes.shape[-3:]
        floats = [np.ascontiguousarray(a, dtype=np.float64) for a in (x, B, C, dt, delta, a_bar, D)]
        groups = -(-n // max(1, min(group_size, n))) if n else 0
        per_head = lead + (heads,)
        in_contract = (
            min(heads, dim, n) > 0
            and codes.flags.c_contiguous
            and grids.flags.c_contiguous
            and grids.shape == per_head + (groups, dim)
            and [a.shape for a in floats] == [
                per_head + (dim,), lead + (n,), lead + (n,), per_head, per_head, per_head,
                (heads,)]
        )
        if not in_contract:
            return None
        y = np.empty(floats[0].shape)  # quant-point: the kernel's float readout
        new_codes, new_grids = (np.empty(a.shape, dtype=np.int8) for a in (codes, grids))
        done = entry(math.prod(lead), heads, dim, n, group_size, bits,
                     *[native.pointer(a) for a in (*floats, codes, grids, y, new_codes, new_grids)])
        if done < 0:
            raise MemoryError("ssmu_step: scratch allocation failed")
        if done:
            return _ORACLE
        return y, QuantizedSSMState._stored(new_codes, new_grids, group_size, bits)

    return step


def _decay_reference(lc: np.ndarray, decay: np.ndarray) -> None:  # integer-resident
    """``native.c``'s ``scan_decay``: ``decay = min(L_t - L_s, 0)`` per head, ``(..., Q, Q)``.

    ``lc`` is the chunk's cumulative log decay ``(..., Q)``; ``L`` is
    decreasing, so causal entries have a difference ``<= 0`` and the clamp
    keeps the masked upper triangle's ``exp`` finite.
    """
    np.subtract(lc[..., :, None], lc[..., None, :], out=decay)
    np.minimum(decay, 0.0, out=decay)


def _gate_reference(gate: np.ndarray, decay: np.ndarray) -> None:  # integer-resident
    """``native.c``'s ``scan_gate``: ``gate * decay`` on and below the diagonal, 0 above.

    ``decay`` is exp'd.  The masked upper triangle is written, not multiplied
    by 0, so a NaN in a later token's operands stays out of earlier tokens.
    """
    np.multiply(gate, decay, out=gate)
    gate[..., ~np.tri(gate.shape[-1], dtype=bool)] = 0.0


def _out_reference(  # integer-resident
    skip: np.ndarray, out: np.ndarray, exp_l: np.ndarray, readout: np.ndarray,
    carry: np.ndarray, xq: np.ndarray, y: np.ndarray, work: np.ndarray,
) -> None:
    """``native.c``'s ``scan_out``: the chunk's output and the hand-off's weighted inputs.

    ``y`` -- the caller's token-major ``(..., Q, h, p)`` window -- gets
    ``skip + (out + exp(L) * readout^T)`` from the head-major ``(..., h, Q,
    p)`` skip term and intra-chunk output, ``exp_l`` ``(..., h, Q)`` and the
    carried-state readout ``(..., h, p, Q)``; ``work`` gets ``carry * xq``,
    the inputs weighted by their decay to the chunk's end.  ``out`` is
    scratch afterwards.
    """
    np.multiply(exp_l[..., None], np.swapaxes(readout, -1, -2), out=work)
    np.add(out, work, out=out)
    np.add(skip, out, out=out)
    y[...] = np.moveaxis(out, -3, -2)
    np.multiply(carry[..., None], xq, out=work)


def _handoff_reference(  # integer-resident
    state: np.ndarray, exp_last: np.ndarray, handoff: np.ndarray
) -> None:
    """``native.c``'s ``scan_handoff``: ``handoff = state * exp(L_last) + handoff`` per head."""
    np.add(state * exp_last[..., None, None], handoff, out=handoff)


#: The chunk scan's element-wise stages in numpy: the compiled ones' references and fallback.
_SCAN_STAGES = SimpleNamespace(
    decay=_decay_reference, gate=_gate_reference, out=_out_reference, handoff=_handoff_reference
)


def _compiled_scan_stages(library) -> SimpleNamespace:  # integer-resident
    """``native.c``'s ``scan_decay`` / ``scan_gate`` / ``scan_out`` / ``scan_handoff``.

    Behind the references' signatures, for C-contiguous float64 tiles (and a
    ``y`` window whose heads and channels are contiguous, as
    :meth:`QuantizedSSMStep.prefill_scan` holds it); any other layout runs
    the reference.  No ``argtypes``: the sizes are C ints (see
    :func:`repro.mamba.ops._compiled_silu`).  Only the library's loader
    calls this.
    """
    entries = (library.scan_decay, library.scan_gate, library.scan_out, library.scan_handoff)
    for entry in entries:
        entry.restype = None
    at = native.pointer

    def tiles(*arrays) -> bool:
        return all(a.dtype == np.float64 and a.flags.c_contiguous for a in arrays)

    def decay(lc, out):
        if not tiles(lc, out):
            return _decay_reference(lc, out)
        q_len = lc.shape[-1]
        library.scan_decay(at(lc), lc.size // q_len, q_len, at(out))

    def gate(values, decay):
        if not tiles(values, decay):
            return _gate_reference(values, decay)
        q_len = values.shape[-1]
        library.scan_gate(at(values), at(decay), values.size // (q_len * q_len), q_len)

    def epilogue(skip, out, exp_l, readout, carry, xq, y, work):
        *lead, q_len, heads, dim = y.shape
        if (len(lead) > 1 or not tiles(skip, out, exp_l, readout, carry, xq, work)
                or y.strides[-2:] != (dim * 8, 8) or any(v % 8 for v in y.strides)):
            return _out_reference(skip, out, exp_l, readout, carry, xq, y, work)
        library.scan_out(at(skip), at(out), at(exp_l), at(readout), at(carry), at(xq),
                         math.prod(lead), heads, q_len, dim, at(y),
                         y.strides[0] // 8 if lead else 0, y.strides[-3] // 8, at(work))

    def handoff(state, exp_last, into):
        if not tiles(state, exp_last, into):
            return _handoff_reference(state, exp_last, into)
        library.scan_handoff(at(state), at(exp_last), exp_last.size,
                             into.size // max(exp_last.size, 1), at(into))

    return SimpleNamespace(decay=decay, gate=gate, out=epilogue, handoff=handoff)


class QuantizedSSMStep:
    """The quantized SSM layer: the decode step and the prefill scan.

    The operator decomposition matches Fig. 1 / Fig. 3 of the paper: each
    named element-wise multiplication is computed on fake-quantized operands
    and its output is re-quantized before feeding the next operator.

    A leading batch axis is accepted on every tensor argument; because the
    quantization grid is per-group along the trailing axis, every batch row
    quantizes exactly as it would alone, so batched stepping is bit-identical
    to per-row stepping.

    :meth:`prefill_scan` is the chunk-parallel scan, the FastMamba / ViM-Q
    recipe for chunk-parallel quantized Mamba blocks, with the step's
    quantization points fixed at the operator interfaces:

    - the inputs ``x`` / ``B`` / ``C`` are fake-quantized chunk by chunk,
      exactly as the step quantizes them per token (per-group grids live on
      the trailing axis, so quantizing a whole chunk at once is
      bit-identical to quantizing each token alone);
    - the ``Delta (.) B`` and ``D (.) x`` element-wise products are
      re-quantized at the SSMU interfaces, bit-identically to the step;
    - the recurrent state is quantized at chunk *boundaries* (entry and every
      hand-off) instead of after every token, and the intra-chunk outer
      products / state readout accumulate at high precision -- the MMU-style
      wide-accumulator interpretation of the dense in-chunk matmuls.

    Two of the step's per-token re-quantization points (``B_bar (.) x`` and
    ``h (.) C``) therefore collapse into the chunk matmuls; with
    ``chunk_size=1`` -- what :meth:`MambaBlock.forward
    <repro.mamba.block.MambaBlock.forward>` passes for
    ``scan_impl="sequential"`` -- the scan is the step, token by token.  At
    larger chunk sizes the scan is the fast approximation whose quality the
    eval harness pins (perplexity shift < 0.1 vs. the sequential scan).
    """

    # Read by benchmarks/e2e only -- nothing in src/ looks at them (see
    # ROADMAP item 1(c): they go with the next benchmark-archetype PR).
    supports_batched = True
    supports_prefill_scan = True
    state_resident = property(lambda self: self._resident)

    def __init__(self, config: SSMQuantConfig = SSMQuantConfig()):
        self.config = config
        self._qcfg = config.config()
        # Whether zeros_cache hands out codes: exactly when _step_integer can
        # advance them -- shifts need PoT grids, a state and products that are
        # re-quantized, and an integer accumulator that holds the aligned
        # products (INT32 for INT4/INT8 codes, INT64 up to INT16, none beyond).
        self._resident = (
            config.pot_scale
            and config.quantize_state
            and config.quantize_products
            and shift_accumulator_dtype(config.bits) is not None
        )

    def _stage(  # integer-resident
        self, values: np.ndarray, out: Optional[np.ndarray] = None,
        scalar: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Fake-quantize float64 ``values`` on the configured grid, one fused round trip.

        Into ``out`` (which may be ``values``) when given, else into a new
        array; returns the result.  No integer codes are materialized.  With
        ``scalar`` the values are the products ``scalar[..., None] *
        values``, broadcast to ``out`` and formed in the same pass.
        """
        return _fake_quant_into(
            values, self._qcfg,
            np.empty(values.shape) if out is None else out, scalar,  # quant-point: fused
        )

    def _stage_product(  # integer-resident
        self, scalar: np.ndarray, values: np.ndarray, out: np.ndarray
    ) -> None:
        """``out <- requant(scalar[..., None] * values)``; requant only if ``quantize_products``."""
        if self.config.quantize_products:
            self._stage(values, out, scalar)
        else:
            np.multiply(scalar[..., None], values, out=out)

    def _qp(self, x: np.ndarray) -> np.ndarray:
        """Re-quantize an element-wise product (if enabled)."""
        return self._stage(x) if self.config.quantize_products else x

    # ------------------------------------------------------------------
    # Integer-resident state plumbing
    # ------------------------------------------------------------------
    def quantize_state_codes(self, state: np.ndarray) -> QuantizedSSMState:  # integer-resident
        """Quantize a float state into the resident codes + scales container.

        For a state that is already on the PoT grid (every state this class
        ever hands out) the quantization is exact, so converting between the
        float and resident representations never changes the carried values.
        """
        # quant-point: float state onto the resident codes + scales grid
        qt = quantize(np.asarray(state, dtype=np.float64), self._qcfg)
        return QuantizedSSMState(
            qt.codes, qt.scales, group_size=self.config.group_size, bits=self.config.bits
        )

    def _state_values(self, state) -> np.ndarray:
        """The float view of an incoming state, quantized onto the grid.

        Oracle-path plumbing only (the integer-resident step never leaves the
        codes).  A resident :class:`QuantizedSSMState` dequantizes directly
        (its codes are on the grid by construction -- no absmax / rounding
        pass); a float state goes through the fake-quant round trip when
        ``quantize_state`` is enabled, exactly as before.
        """
        if isinstance(state, QuantizedSSMState):
            return state.dequantize()
        state = np.asarray(state, dtype=np.float64)
        if self.config.quantize_state:
            state = self._stage(state)
        return state

    def zeros_cache(  # integer-resident
        self, config: Mamba2Config, batch_size: Optional[int] = None
    ) -> LayerCache:
        """A fresh zero layer cache in the representation this step decodes on.

        Integer-resident (zero codes, epsilon scales) when the configuration
        can run :meth:`_step_integer` -- every default lightmamba* model --
        and a float :class:`~repro.mamba.cache.LayerCache` otherwise (the
        Fig. 3 ablations: non-PoT scales, no state / product re-quantization,
        codes too wide for an integer accumulator).  This is the one place
        the execution is chosen; :meth:`__call__` only follows the state.

        The resident zero state is built as the quantizer would leave an
        all-zero float state -- zero codes, every group at the grid of the
        scale floor (:func:`repro.quant.pot.absmax_requant_exponents` of a
        zero absmax; see :func:`repro.quant.quantizer.compute_scales` and
        :func:`repro.quant.pot.pot_quantize_scale`) -- without making or
        quantizing one, so it decodes back to exact zeros.
        """
        if not self._resident:
            return LayerCache.zeros(config, batch_size)  # quant-point: a float state
        lead = () if batch_size is None else (batch_size,)
        conv_state = np.zeros(lead + (config.conv_dim, config.d_conv))  # quant-point: float taps
        return QuantizedLayerCache(conv_state, self._zero_state(config, lead))

    def _zero_state(  # integer-resident
        self, config: Mamba2Config, lead: Tuple[int, ...]
    ) -> QuantizedSSMState:
        """The resident all-zero state: zero codes, every group's exponent the scale floor's."""
        bits, group_size = self.config.bits, self.config.group_size
        groups = -(-config.d_state // max(1, min(group_size, config.d_state)))
        floor = absmax_requant_exponents(0.0, bits).item()  # the grid of an all-zero group
        per_head, int_codes = lead + (config.nheads,), code_storage_dtype(bits)
        codes = np.zeros(per_head + (config.d_state, config.headdim), dtype=int_codes)
        grids = np.full(per_head + (groups, config.headdim), floor, dtype=np.int8)
        return QuantizedSSMState._stored(codes, grids, group_size, bits)

    def __call__(  # integer-resident
        self,
        params: SSMParams,
        x: np.ndarray,
        B: np.ndarray,
        C: np.ndarray,
        dt: np.ndarray,
        state: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance the quantized recurrence one token (the ``SSMImpl`` step).

        The state's type selects the arithmetic: a resident
        :class:`~repro.mamba.cache.QuantizedSSMState` runs the all-integer
        iteration :meth:`_step_integer` (codes in, codes out -- no float
        tensor between the entry quantizations and the readout); a float
        array runs the fake-quant oracle :meth:`_step_oracle` (re-quantized
        on entry when ``quantize_state`` is set, floats out).  Bit-identical
        under PoT scales.  :meth:`zeros_cache` only hands out codes to
        configurations the integer iteration can run.
        """
        if isinstance(state, QuantizedSSMState):
            return self._step_integer(params, x, B, C, dt, state)
        return self._step_oracle(params, x, B, C, dt, state)

    def _step_oracle(
        self,
        params: SSMParams,
        x: np.ndarray,
        B: np.ndarray,
        C: np.ndarray,
        dt: np.ndarray,
        state: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The fake-quant reference step: floats through every integer grid.

        The numerical oracle the integer-resident iteration is pinned
        against.  Every operand and element-wise product passes through its
        quantization grid but is stored and combined as float64; with a
        resident state the returned state is re-quantized into codes at the
        exit (exact -- the new state is on-grid by construction).
        """
        resident = isinstance(state, QuantizedSSMState)
        x = self._stage(np.asarray(x, dtype=np.float64))
        B = self._stage(np.asarray(B, dtype=np.float64))
        C = self._stage(np.asarray(C, dtype=np.float64))
        state = self._state_values(state)

        # Non-linear operators stay in floating point (dedicated FPGA units);
        # the decay pair is computed once per step by the shared helper.
        delta, a_bar = ssm_decay(params, dt)

        delta_mul_b = self._qp(delta[..., :, None] * B[..., None, :])
        b_mul_x = self._qp(delta_mul_b[..., :, None, :] * x[..., :, :, None])
        a_mul_h = self._qp(a_bar[..., :, None, None] * state)
        new_state = a_mul_h + b_mul_x
        out_state = new_state
        if resident:
            # One quantization pass: the codes become the resident state and
            # their dequantized view feeds the readout below.
            out_state = self.quantize_state_codes(new_state)
            new_state = out_state.dequantize()
        elif self.config.quantize_state:
            new_state = self._stage(new_state)
            out_state = new_state

        h_mul_c = self._qp(new_state * C[..., None, None, :])
        y_ssm = np.sum(h_mul_c, axis=-1)
        x_mul_d = self._qp(params.D[:, None] * x)
        y = y_ssm + x_mul_d
        return y, out_state

    def _step_integer(  # integer-resident
        self,
        params: SSMParams,
        x: np.ndarray,
        B: np.ndarray,
        C: np.ndarray,
        dt: np.ndarray,
        state: QuantizedSSMState,
    ) -> Tuple[np.ndarray, QuantizedSSMState]:
        """The all-integer decode iteration (codes in, codes out), one call.

        From the three entry quantizations at the in-projection boundary to
        the ``d_state`` readout reduction, every tensor is an integer code
        array with its PoT scale *exponent* threaded alongside.  The per-head
        float scalars (``Delta``, ``A_bar``, ``D`` -- outputs of the
        dedicated non-linear units, the only part computed here, by
        :func:`repro.mamba.ssm.ssm_decay`) fold into the re-quantization
        multipliers; the code-by-code products (``B_bar (.) x``,
        ``h (.) C``) re-quantize by shifts alone.  Bit-identical to
        :meth:`_step_oracle` by construction: every destination exponent
        replicates the oracle's absmax -> scale derivation float-op for
        float-op (:func:`repro.quant.pot.absmax_requant_exponents`), the
        shifts round half-to-even exactly like the oracle's ``np.round``, and
        PoT rescaling commutes with float rounding.

        Everything after the decay pair is one call for the whole batch into
        ``native.c``'s ``ssmu_step`` (:func:`repro.quant.native.kernel`) --
        entry quantizations, scalar folds, the four tile stages and the new
        grids in C, on the state's ``int8`` exponents as held -- for INT8
        codes on an INT32 accumulator when this machine has built it.
        Otherwise the oracle runs, its state re-quantized into codes at the
        exit: with no compiler, for wider codes, and for a row the kernel
        answers is the oracle's (a batch it declines is stepped again row by
        row, so only the declined rows go to the oracle) -- a non-finite
        operand (fault-injected conv taps, say) or a poisoned group has no
        integer code, a new state grid past ``2**127`` no exponent byte, a
        grid past ``2**1023`` no normal double.  Those are the state's two contracts
        (:class:`~repro.mamba.cache.QuantizedSSMState`): the oracle carries a
        poison through row-independent arithmetic into the poison exponent,
        so the serving supervisor's health check attributes it to exactly
        the affected rows -- healthy rows stay bit-identical -- and a grid
        past the byte poisons its group.  A poisoned row's codes are
        undefined, hence the silenced NaN -> int cast.
        """
        library = native.kernel()
        bits, gsz = self.config.bits, self.config.group_size
        if library is not None:
            delta, a_bar = ssm_decay(params, dt)  # the non-linear units: numpy's exp / log1p
            done = library.step(x, B, C, dt, delta, a_bar, params.D, state, gsz, bits)
            if isinstance(done, tuple):
                return done
            if done is _ORACLE and x.ndim == 3 and len(x) > 1:
                # One row's poison or range need not send its batch to the
                # oracle: the entry steps each row alone, and the oracle takes
                # only the rows it still declines (rows step independently).
                rows = []
                for i in range(len(x)):
                    row = library.step(x[i], B[i], C[i], dt[i], delta[i], a_bar[i], params.D,
                                       state[i], gsz, bits)
                    if not isinstance(row, tuple):
                        with np.errstate(invalid="ignore"):
                            row = self._step_oracle(params, x[i], B[i], C[i], dt[i], state[i])
                    rows.append(row)
                return np.stack([y for y, _ in rows]), QuantizedSSMState.stack([h for _, h in rows])
        with np.errstate(invalid="ignore"):
            return self._step_oracle(params, x, B, C, dt, state)

    def prefill_scan(  # integer-resident
        self,
        params: SSMParams,
        x: np.ndarray,
        B: np.ndarray,
        C: np.ndarray,
        dt: np.ndarray,
        initial_state: Optional[np.ndarray] = None,
        chunk_size: int = 64,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the quantized recurrence over a full sequence.

        The signature matches :func:`repro.mamba.ssm.ssd_chunked_scan`:
        ``x`` is ``(seq_len, nheads, headdim)`` (optionally with a leading
        batch axis carried by every argument), ``B`` / ``C`` are
        ``(seq_len, d_state)``, ``dt`` is the raw per-head step size (before
        softplus) and ``initial_state`` an optional warm state (copied, then
        quantized at chunk entry when ``quantize_state`` is set).

        ``initial_state`` may also be a resident
        :class:`~repro.mamba.cache.QuantizedSSMState` (codes in, codes out),
        which keeps segmented serving prefills integer-resident end to end.
        The state leaves in the form it came in, for every ``chunk_size``.
        ``chunk_size=1`` is the decode step itself:
        :func:`ssm_scan <repro.mamba.ssm.ssm_scan>` drives this object's call
        token by token on the state as it came -- :meth:`_step_integer` on
        codes, :meth:`_step_oracle` on floats -- with nothing converted on
        the way in or out.  Otherwise the method is the chunked scan's three
        parts in order.  **Entry**: a resident state is dequantized once --
        on the grid already, so the chunk-entry quantization is skipped --
        and the entry all three scans share (``repro.mamba.ssm._scan_entry``)
        stages the operands and takes that array over uncopied.  A
        zero-length sequence exits, whatever the chunk size, with an empty
        ``y`` and a copy of the entry state on its grid.  **Chunk body**:
        :meth:`_chunk_body`, one tile per chunk.  **Hand-off / exit**: the
        boundary state quantization between chunks; after the last, a
        resident caller's state is quantized to codes.

        **The tiled datapath.**  ``chunk_size`` is the tile: everything the
        scan does to a tensor operand -- the x / B / C entry quantization,
        the ``D (.) x`` and ``Delta (.) B`` re-quantizations, the four chunk
        contractions, the hand-off and the boundary state quantization --
        happens inside the chunk loop on one ``(chunk, nheads, .)`` tile,
        through scratch allocated once per call (:meth:`_chunk_scratch`), so
        the working set is a few tile-sized buffers whatever the prompt
        length.  Per-group grids live on the trailing axis only, so staging
        an operand chunk by chunk is bit-identical to quantizing the whole
        sequence (or each token alone).  The tile is kept head-major
        ``(nheads, chunk, .)``: the contractions then read and write
        contiguous per-head matrices, and the output epilogue writes the
        caller's token-major layout directly.  Only the four contractions
        (BLAS: their summation order) and the decay chain's ``exp`` (numpy's)
        stay numpy passes; every other element-wise stage is one fused pass:
        the operands staged by one quantizer call each, read where they lie
        in the projection output, the products ``D (.) x`` and ``Delta (.)
        B`` formed inside their re-quantization
        (:func:`repro.quant.quantizer._fake_quant_into` with a per-row
        scalar), and the decay, gate, output and hand-off stages
        (:data:`_SCAN_STAGES`) -- each one call into the compiled library
        where it loads.  The float chunk body reads no integer codes, so none
        are materialized -- only the final resident state is quantized to
        codes.

        Unlike :func:`repro.mamba.ssm.ssd_chunked_scan`, whose FP body
        contracts one head-independent ``C B^T`` matrix per chunk, every
        contraction here is per head: folding ``Delta`` and the requant into
        ``Delta (.) B`` gives ``B`` a head axis.

        Returns ``(y, final_state)`` with ``y`` shaped like ``x``.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        # Entry.  The per-token loop takes a resident state as it came; for
        # the chunk body it becomes its float view, dequantized once.  The
        # shared entry takes either over instead of copying it.
        resident, sequential = isinstance(initial_state, QuantizedSSMState), chunk_size == 1
        # quant-point: resident entry of the chunk body
        entry = initial_state.dequantize() if resident and not sequential else initial_state
        x, B, C, dt, state = _scan_entry(  # quant-point: float entry staging, zero / copied state
            params, x, B, C, dt, entry, copy=not resident
        )
        seq_len, dims = x.shape[-3], (x.shape[:-3], *x.shape[-2:], B.shape[-1])

        if seq_len == 0:
            # Nothing to scan, whatever the chunk size: an empty y (x has no
            # tokens) and a copy of the entry state on its grid.
            return x.copy(), initial_state.copy() if resident else self._state_values(state)

        if sequential:
            # The per-token loop: ssm_scan driving this object's own step --
            # the decode step, token by token, on the state's own form.
            return ssm_scan(params, x, B, C, dt, initial_state=state, step_fn=self)

        # The decay chain stays in floating point (dedicated FPGA units); it
        # is per head and per token -- tiny -- so it is computed for the whole
        # prompt, head-major like the tiles.
        delta = np.ascontiguousarray(np.swapaxes(softplus(dt + params.dt_bias), -1, -2))
        log_decay = delta * params.A[:, None]               # (..., h, T), negative

        quantize_state = self.config.quantize_state
        if quantize_state and not resident:
            # Chunk-entry quantization (resident codes are on the grid already).
            self._stage(state, state)

        y = np.empty(x.shape)  # quant-point: the float output the gated norm consumes
        chunk = min(chunk_size, seq_len)
        tile = self._chunk_scratch(chunk, *dims)
        for start in range(0, seq_len, chunk):
            window = slice(start, min(start + chunk, seq_len))
            q_len = window.stop - start
            if q_len < chunk:
                # The ragged last chunk: its own scratch replaces the full
                # one, never beside it.
                del tile
                tile = self._chunk_scratch(q_len, *dims)
            self._chunk_body(params, tile, state, x, B, C, delta, log_decay, window, y)

            # Hand-off / exit: the chunk-boundary state quantization is a
            # fused fake-quant between chunks, while the last chunk's state
            # leaves in the form it came in (codes for a resident caller).
            if not quantize_state:
                np.copyto(state, tile.handoff)
            elif resident and window.stop == seq_len:
                # quant-point: the final resident state, quantized to codes
                return y, self.quantize_state_codes(tile.handoff)
            else:
                self._stage(tile.handoff, state)
        return y, self.quantize_state_codes(state) if resident else state

    # ------------------------------------------------------------------
    # Chunk body and tile helpers of prefill_scan
    # ------------------------------------------------------------------
    def _chunk_body(  # integer-resident
        self, params: SSMParams, tile: SimpleNamespace, state: np.ndarray, x: np.ndarray,
        B: np.ndarray, C: np.ndarray, delta: np.ndarray, log_decay: np.ndarray, window: slice,
        y: np.ndarray,
    ) -> None:
        """One chunk: its output into ``y``'s ``window``, its final state into ``tile.handoff``.

        Stages the ``window`` tokens of the whole-prompt operands (``x`` /
        ``B`` / ``C`` token-major, read where they lie; the decay chain
        ``delta`` / ``log_decay`` head-major ``(..., h, T)``) into the tile
        and contracts them with the carried-in ``state``: the output
        token-major into ``y``, the hand-off ``exp(L_last) h_in + sum_q
        exp(L_last - L_q) x_q qdB_q^T`` per head.  Between the four BLAS
        contractions and numpy's ``exp`` -- which fix the summation order and
        the decay bits -- every element-wise stage is one pass: each
        re-quantized product is formed in the quantizer's pass
        (:meth:`_stage_product`), the rest are the scan stages
        (:data:`_SCAN_STAGES`, compiled where the library loads).
        """
        library = native.kernel()
        stages = library.scan if library is not None else _SCAN_STAGES
        xq, bq, cq, db = tile.xq, tile.bq, tile.cq, tile.db
        # Operand quantization at the SSMU interfaces, on this chunk's tile.
        self._stage(np.moveaxis(x[..., window, :, :], -3, -2), xq)  # (..., h, Q, p)
        self._stage(B[..., window, :], bq)                  # (..., Q, n)
        self._stage(C[..., window, :], cq)                  # (..., Q, n)
        # D (.) x skip path, re-quantized exactly as the step's x_mul_d.
        self._stage_product(params.D[:, None], xq, tile.skip)
        # Delta (.) B, re-quantized exactly as the step's delta_mul_b.
        self._stage_delta_b(delta[..., window], bq, db)
        lc = np.cumsum(log_decay[..., window], axis=-1)     # (..., h, Q)

        # Dense decay-weighted interaction on the quantized operands:
        #   G[head, t, s] = exp(L_t - L_s) * (qC_t . qdB_s[head]), s <= t.
        # The d_state contraction runs on the MMU-style wide accumulator
        # (the float64 matmul).
        np.matmul(cq[..., None, :, :], np.swapaxes(db, -1, -2), out=tile.gate)
        stages.decay(lc, tile.decay)
        np.exp(tile.decay, out=tile.decay)
        stages.gate(tile.gate, tile.decay)
        np.matmul(tile.gate, xq, out=tile.out)              # (..., h, Q, p)
        # Carried-in state readout (h_in . C per head, decayed to t), the
        # skip term and the output; the inputs weighted for the hand-off.
        np.matmul(state, np.swapaxes(cq, -1, -2)[..., None, :, :], out=tile.readout)
        last = lc[..., -1]                                  # (..., h)
        stages.out(tile.skip, tile.out, np.exp(lc), tile.readout, np.exp(last[..., None] - lc),
                   xq, y[..., window, :, :], tile.work)

        # Chunk hand-off (the boundary quantization is the caller's).
        wx = np.swapaxes(tile.work, -1, -2)                 # (..., h, p, Q)
        np.matmul(wx, db, out=tile.handoff)                 # (..., h, p, n)
        stages.handoff(state, np.exp(last), tile.handoff)

    @staticmethod
    def _chunk_scratch(  # integer-resident
        q_len: int, lead: Tuple[int, ...], nheads: int, headdim: int, d_state: int
    ) -> SimpleNamespace:
        """The work buffers of one ``q_len``-token chunk tile, head-major.

        Registers of the chunk datapath, reused by every chunk of a scan:
        the staged operands (``xq``, ``bq``, ``cq``, ``db``), the ``D (.) x``
        skip term, the interaction matrix and its decay mask, the intra-chunk
        output, the carried-state readout, the hand-off product and the
        hand-off's weighted inputs (``work``).
        """
        per_head = lead + (nheads, q_len)
        shapes = {
            "xq": per_head + (headdim,),
            "skip": per_head + (headdim,),
            "out": per_head + (headdim,),
            "work": per_head + (headdim,),
            "bq": lead + (q_len, d_state),
            "cq": lead + (q_len, d_state),
            "db": per_head + (d_state,),
            "gate": per_head + (q_len,),
            "decay": per_head + (q_len,),
            "readout": lead + (nheads, headdim, q_len),
            "handoff": lead + (nheads, headdim, d_state),
        }
        # quant-point: float scratch of the chunk tile (wide accumulators + staged views)
        return SimpleNamespace(**{name: np.empty(shape) for name, shape in shapes.items()})

    def _stage_delta_b(  # integer-resident
        self, delta: np.ndarray, bq: np.ndarray, out: np.ndarray
    ) -> None:
        """``out <- requant(Delta (.) qB)``, head-major ``(..., h, Q, n)``.

        ``delta`` is ``(..., h, Q)`` and ``bq`` the staged ``(..., Q, n)``
        tile: the product and its re-quantization in one pass.  Its grids are
        the step's: ``Delta`` is a positive per-(head, token) scalar and
        floating-point multiplication by it is monotone, so the product's
        group absmax is ``Delta * max_j |b_j|``, the absmax the step folds.
        """
        self._stage_product(delta, bq[..., None, :, :], out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(bits={self.config.bits}, "
            f"group_size={self.config.group_size}, pot={self.config.pot_scale})"
        )
