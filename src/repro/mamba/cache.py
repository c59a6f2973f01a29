"""Inference caches for autoregressive decode.

Unlike Transformers, Mamba stores a *fixed-size* recurrent state per layer: a
convolution window and the SSM hidden state.  The paper exploits exactly this
property (Sec. I, Fig. 9a) -- decode cost does not grow with the generated
sequence length, which is also what makes large-batch decode cheap: a batch of
requests is just a leading ``(batch, ...)`` axis on the same fixed-size state.

Every cache supports an optional batch dimension.  ``zeros(config)`` builds
the single-sequence state used by the classic decode API;
``zeros(config, batch_size=b)`` prepends a batch axis to every tensor.  The
serving engine manages request lifetimes with :meth:`~LayerCache.gather`
(select / compact rows, e.g. to evict finished requests) and
:meth:`~LayerCache.scatter` (write rows back, e.g. to admit a freshly
prefilled request into a running batch); :meth:`~LayerCache.stack` /
:meth:`~LayerCache.row` convert between batched and per-request caches.

The SSM state comes in two forms, and :class:`LayerCache` implements each of
these operations once for both.  A float model's state is a float array.
Quantized lightmamba* models keep it integer-resident (the FPGA keeps ``h``
on-chip as INT codes, Sec. V of the paper): a :class:`QuantizedSSMState` --
integer codes plus per-group scales -- inside a :class:`QuantizedLayerCache`,
so admission / eviction move the codes directly and never round-trip the
state through floats.  The resident state owns only what differs from an
array: taking and putting rows, its layout, codes + scales equality and its
packed byte count.  One check refuses to mix forms, layouts or row counts
before anything is written.  The quantization logic itself lives in
:mod:`repro.quant.ssm_quant`; this module only defines the mechanical
containers (pure numpy, no quant imports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.mamba.config import Mamba2Config

__all__ = ["LayerCache", "InferenceCache", "QuantizedSSMState", "QuantizedLayerCache"]


def _resident(state) -> bool:
    return isinstance(state, QuantizedSSMState)


def _form(state) -> str:
    return "integer-resident (QuantizedSSMState)" if _resident(state) else "float (ndarray)"


def _require_compatible(op: str, target, sources: Sequence, rows: Optional[int] = None) -> None:
    """The one check a row operation makes before it writes or builds anything.

    ``target`` and each of ``sources`` is an SSM state of either form.  A
    source of the other form raises ``TypeError``; a resident source of
    another layout, or a source whose batch is not ``rows`` long, raises
    ``ValueError``.  numpy would otherwise convert, narrow (codes held wider
    than the target's wrap) or broadcast it silently.
    """
    for src in sources:
        if _form(src) != _form(target):
            raise TypeError(
                f"{op} needs one state form: {_form(target)} here but {_form(src)} in the source"
            )
        if _resident(src) and src.layout != target.layout:
            raise ValueError(
                f"{op} needs states of one layout: (codes dtype, bits, group_size) "
                f"is {target.layout} here but {src.layout} in the source"
            )
        batch = src.shape[0] if len(src.shape) == 4 else None
        if rows is not None and batch != rows:
            raise ValueError(
                f"{op} needs one src row per index: {rows} indices "
                f"but src batch size is {batch}"
            )


def _channel_minor(logical: np.ndarray) -> np.ndarray:
    """The C-contiguous array whose last two axes, swapped, are ``logical``.

    No copy when ``logical`` already is such a view (of another state's
    storage, or of the compiled step's outputs).
    """
    stored = np.swapaxes(logical, -1, -2)
    return stored if stored.flags.c_contiguous else np.ascontiguousarray(stored)


class QuantizedSSMState:
    """The SSM hidden state ``h`` resident as integer codes + scales.

    This is the software twin of the FPGA's on-chip state buffer: between
    decode steps the state exists only as ``codes`` (INT ``bits`` values
    stored at their true width: the narrowest signed integer array that
    holds ``bits``, ``int8`` for the INT8 SSM -- see
    :func:`repro.quant.dtypes.code_storage_dtype`) and ``scales`` (one
    power-of-two scale per ``group_size`` run along the trailing ``d_state``
    axis, shaped ``(..., nheads, headdim, n_groups, 1)`` so it multiplies the
    group-reshaped view of ``codes``).  The container is purely mechanical --
    producing codes from floats is the quantizer's job
    (:class:`repro.quant.ssm_quant.QuantizedSSMStep`); here we only hold,
    copy, and row-shuffle them for the serving engine's admission / eviction.

    ``codes`` has the exact shape a float ``ssm_state`` would have
    (``(nheads, headdim, d_state)``, plus an optional leading batch axis), so
    rows are taken and put like an array's: ``state[rows]`` and
    ``state[rows] = src``, the latter checked like every row write.

    **Storage order** is channel-minor: :attr:`storage` holds the codes as
    ``(..., nheads, d_state, headdim)`` and the scales as ``(..., nheads,
    n_groups, headdim)``, both C-contiguous, so a head's channels lie side by
    side -- the vector lanes the compiled decode step runs them in
    (``native.c``'s head tile), read and written in place.  ``codes`` and
    ``scales`` are views of that storage in the shapes above (writes go
    through; assigning either stores the new values channel-minor).  Every
    row operation keeps the order, so no step transposes the state.
    """

    def __init__(self, codes: np.ndarray, scales: np.ndarray, group_size: int, bits: int = 8):
        self.storage = (_channel_minor(codes), _channel_minor(scales[..., 0]))
        self.group_size = group_size
        self.bits = bits

    @classmethod
    def _stored(cls, codes: np.ndarray, scales: np.ndarray, group_size: int, bits: int):
        """A state around channel-minor storage (made C-contiguous if it is not)."""
        state = cls.__new__(cls)
        if not (codes.flags.c_contiguous and scales.flags.c_contiguous):
            codes, scales = np.ascontiguousarray(codes), np.ascontiguousarray(scales)
        state.storage, state.group_size, state.bits = (codes, scales), group_size, bits
        return state

    @property
    def codes(self) -> np.ndarray:
        return np.swapaxes(self.storage[0], -1, -2)

    @codes.setter
    def codes(self, codes: np.ndarray) -> None:
        self.storage = (_channel_minor(codes), self.storage[1])

    @property
    def scales(self) -> np.ndarray:
        return np.swapaxes(self.storage[1], -1, -2)[..., None]

    @scales.setter
    def scales(self, scales: np.ndarray) -> None:
        self.storage = (self.storage[0], _channel_minor(scales[..., 0]))

    @property
    def shape(self) -> tuple:
        *lead, d_state, headdim = self.storage[0].shape
        return (*lead, headdim, d_state)

    @property
    def size(self) -> int:
        """Scalars held by the resident state (codes plus scales)."""
        return int(self.storage[0].size + self.storage[1].size)

    @property
    def layout(self) -> tuple:
        """What two states must share to exchange rows: (codes dtype, bits, group_size)."""
        return (self.storage[0].dtype, self.bits, self.group_size)

    def dequantize(self) -> np.ndarray:
        """Reconstruct the float state (``codes * scales``, group-wise).

        This is the cheap direction -- a multiply, no absmax / rounding -- and
        the only numeric operation the container performs itself.  The
        floats come out in the logical order, C-contiguous (a view of that
        when the last group is padded), as prefill takes its entry state.
        """
        d_state = self.storage[0].shape[-2]
        group = min(self.group_size, d_state)
        n_groups = -(-d_state // group)
        pad = n_groups * group - d_state
        codes = self.codes.astype(np.float64, order="C")
        if pad:
            pad_width = [(0, 0)] * (codes.ndim - 1) + [(0, pad)]
            codes = np.pad(codes, pad_width)
        grouped = codes.reshape(*codes.shape[:-1], n_groups, group)
        values = np.multiply(grouped, self.scales, order="C").reshape(*codes.shape[:-1], -1)
        if pad:
            values = values[..., :d_state]
        return values

    def copy(self) -> "QuantizedSSMState":
        codes, scales = self.storage
        return self._stored(codes.copy(), scales.copy(), self.group_size, self.bits)

    def __getitem__(self, index) -> "QuantizedSSMState":
        """Rows ``index``, as an array indexes them: an index array copies, an int gives views."""
        codes, scales = self.storage
        return self._stored(codes[index], scales[index], self.group_size, self.bits)

    def __setitem__(self, indices, src: "QuantizedSSMState") -> None:
        """Write the rows of batched ``src`` into rows ``indices``, checked first."""
        indices = np.asarray(indices, dtype=np.int64)
        _require_compatible("scatter", self, [src], rows=indices.size)
        self.storage[0][indices] = src.storage[0]
        self.storage[1][indices] = src.storage[1]

    @classmethod
    def stack(cls, states: Sequence["QuantizedSSMState"]) -> "QuantizedSSMState":
        """Single-sequence states stacked into one batched state, checked first."""
        first = states[0]
        _require_compatible("stack", first, states[1:])
        return cls._stored(
            np.stack([s.storage[0] for s in states]),
            np.stack([s.storage[1] for s in states]),
            first.group_size,
            first.bits,
        )

    def exact_equal(self, other: "QuantizedSSMState") -> bool:
        """Bit-exact equality of the *resident* representation.

        Compares the integer codes and the stored scales directly -- never
        the dequantized floats -- so two states compare equal iff the
        hardware state buffer would hold identical bits.  This is the
        comparison the serving supervisor's rollback verification uses: a
        restored snapshot must reproduce codes and scales exactly.
        """
        return (
            self.group_size == other.group_size
            and self.bits == other.bits
            and np.array_equal(self.storage[0], other.storage[0])
            and np.array_equal(self.storage[1], other.storage[1])
        )

    def resident_bytes(self) -> float:
        """Resident footprint: packed codes plus one exponent byte per scale.

        PoT scales are stored as a signed power-of-two exponent, one byte
        each -- the hardware representation the paper's on-chip state buffer
        uses (re-quantization is a shift, so no mantissa is ever needed).
        """
        return self.storage[0].size * self.bits / 8.0 + self.storage[1].size * 1.0

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(shape={self.shape}, dtype={self.storage[0].dtype}, "
                f"group_size={self.group_size}, bits={self.bits})")


@dataclass
class LayerCache:
    """Recurrent state of one Mamba2 block, for either SSM state form.

    Attributes
    ----------
    conv_state:
        Rolling convolution window, shape ``(conv_dim, d_conv)`` -- or
        ``(batch, conv_dim, d_conv)`` for a batched cache.
    ssm_state:
        SSM hidden state ``h``, shape ``(nheads, headdim, d_state)`` -- or
        ``(batch, nheads, headdim, d_state)`` for a batched cache: a float
        array, or a :class:`QuantizedSSMState` in a
        :class:`QuantizedLayerCache`.

    Every operation below returns a cache of the caller's class that owns its
    memory, and every row write is checked before anything is written.
    """

    conv_state: np.ndarray
    ssm_state: np.ndarray

    @classmethod
    def zeros(cls, config: Mamba2Config, batch_size: Optional[int] = None) -> "LayerCache":
        lead = () if batch_size is None else (batch_size,)
        return cls(
            conv_state=np.zeros(lead + (config.conv_dim, config.d_conv), dtype=np.float64),
            ssm_state=np.zeros(
                lead + (config.nheads, config.headdim, config.d_state), dtype=np.float64
            ),
        )

    @property
    def batch_size(self) -> Optional[int]:
        """Leading batch dimension, or ``None`` for a single-sequence cache."""
        return self.conv_state.shape[0] if self.conv_state.ndim == 3 else None

    def copy(self) -> "LayerCache":
        return type(self)(self.conv_state.copy(), self.ssm_state.copy())

    def gather(self, indices) -> "LayerCache":
        """Return a new batched cache holding rows ``indices`` (in order)."""
        self._require_batched("gather")
        indices = np.asarray(indices, dtype=np.int64)
        # Indexing with an array copies: the rows are copied once.
        return type(self)(self.conv_state[indices], self.ssm_state[indices])

    def scatter(self, indices, src: "LayerCache") -> None:
        """Write the rows of batched cache ``src`` into rows ``indices`` of self."""
        self._require_batched("scatter")
        indices = np.asarray(indices, dtype=np.int64)
        _require_compatible("scatter", self.ssm_state, [src.ssm_state], rows=indices.size)
        self.conv_state[indices] = src.conv_state
        self.ssm_state[indices] = src.ssm_state

    def row(self, index: int) -> "LayerCache":
        """Extract one request's state as a single-sequence (unbatched) cache."""
        self._require_batched("row")
        return type(self)(self.conv_state[index], self.ssm_state[index]).copy()

    @classmethod
    def stack(cls, caches: Sequence["LayerCache"]) -> "LayerCache":
        """Stack single-sequence caches into one batched cache of their class."""
        if not caches:
            raise ValueError("cannot stack an empty sequence of caches")
        if any(c.batch_size is not None for c in caches):
            raise ValueError("stack expects single-sequence (unbatched) caches")
        states = [c.ssm_state for c in caches]
        _require_compatible("stack", states[0], states[1:])
        stack_states = QuantizedSSMState.stack if _resident(states[0]) else np.stack
        return type(caches[0])(np.stack([c.conv_state for c in caches]), stack_states(states))

    def _require_batched(self, op: str) -> None:
        if self.batch_size is None:
            raise ValueError(
                f"{op} requires a batched cache (see LayerCache.zeros(batch_size=...))"
            )

    def state_equal(self, other: "LayerCache") -> bool:
        """Exact value equality of the recurrent state (no tolerance).

        Float arrays compare with :func:`numpy.array_equal`; a resident state
        compares codes + scales (:meth:`QuantizedSSMState.exact_equal`), never
        dequantized floats.  ``NaN`` never compares equal, so a corrupted
        state is never "equal" to a healthy snapshot.
        """
        mine, theirs = self.ssm_state, other.ssm_state
        if type(other) is not type(self) or _form(mine) != _form(theirs):
            return False
        return np.array_equal(self.conv_state, other.conv_state) and (
            mine.exact_equal(theirs) if _resident(mine) else np.array_equal(mine, theirs)
        )

    def num_elements(self) -> int:
        """Total scalars held by this layer's recurrent state."""
        return int(self.conv_state.size + self.ssm_state.size)

    def resident_bytes(self) -> float:
        """Checkpoint footprint of this layer's state, in bytes.

        Matches the accounting of
        :class:`repro.hardware.memory.QuantizedStateMemoryModel`: the conv
        window and a float state are stored at FP16 (2 bytes per element); a
        resident state as packed codes plus one PoT exponent byte per scale
        (:meth:`QuantizedSSMState.resident_bytes`).
        """
        state = self.ssm_state
        state_bytes = state.resident_bytes() if _resident(state) else float(state.size) * 2.0
        return float(self.conv_state.size) * 2.0 + state_bytes


@dataclass
class QuantizedLayerCache(LayerCache):
    """A :class:`LayerCache` whose SSM state is integer-resident.

    ``conv_state`` stays a float array (the short convolution window is tiny
    and not quantized between steps); ``ssm_state`` holds a
    :class:`QuantizedSSMState` instead of floats.  Every default lightmamba*
    model builds these through :meth:`Mamba2Model.new_cache
    <repro.mamba.model.Mamba2Model.new_cache>` (its quantized ``ssm_impl``
    decides: :meth:`repro.quant.ssm_quant.QuantizedSSMStep.zeros_cache`), and
    holding one is what makes the decode step run on integer codes; the
    serving engine's gather / scatter / stack / row then carry codes, not
    floats, exactly like the FPGA's on-chip state buffer.  Those operations
    are :class:`LayerCache`'s own; the class exists to name the form.
    """

    @classmethod
    def zeros(cls, config: Mamba2Config, batch_size: Optional[int] = None) -> "LayerCache":
        raise TypeError(
            "a QuantizedLayerCache is built by the quantized step's "
            "zeros_cache(...) (see Mamba2Model.new_cache): only the quantizer "
            "knows the state grid, so LayerCache.zeros cannot construct one"
        )


@dataclass
class InferenceCache:
    """Recurrent state of the full model (one :class:`LayerCache` per block)."""

    layers: List[LayerCache]

    @classmethod
    def zeros(cls, config: Mamba2Config, batch_size: Optional[int] = None) -> "InferenceCache":
        return cls(
            layers=[LayerCache.zeros(config, batch_size) for _ in range(config.n_layer)]
        )

    @property
    def batch_size(self) -> Optional[int]:
        """Leading batch dimension, or ``None`` for a single-sequence cache."""
        return self.layers[0].batch_size if self.layers else None

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> LayerCache:
        return self.layers[idx]

    def copy(self) -> "InferenceCache":
        return InferenceCache(layers=[layer.copy() for layer in self.layers])

    def gather(self, indices) -> "InferenceCache":
        """Return a new batched cache holding rows ``indices`` of every layer."""
        return InferenceCache(layers=[layer.gather(indices) for layer in self.layers])

    def scatter(self, indices, src: "InferenceCache") -> None:
        """Write the rows of batched cache ``src`` into rows ``indices`` of self."""
        if len(src.layers) != len(self.layers):
            raise ValueError("layer count mismatch between caches")
        for layer, src_layer in zip(self.layers, src.layers):
            layer.scatter(indices, src_layer)

    def row(self, index: int) -> "InferenceCache":
        """Extract one request's state as a single-sequence (unbatched) cache."""
        return InferenceCache(layers=[layer.row(index) for layer in self.layers])

    @classmethod
    def stack(cls, caches: Sequence["InferenceCache"]) -> "InferenceCache":
        """Stack single-sequence caches into one batched cache."""
        if not caches:
            raise ValueError("cannot stack an empty sequence of caches")
        n_layer = len(caches[0].layers)
        if any(len(c.layers) != n_layer for c in caches):
            raise ValueError("all caches must have the same layer count")
        return cls(
            layers=[LayerCache.stack([c.layers[i] for c in caches]) for i in range(n_layer)]
        )

    # ------------------------------------------------------------------
    # Supervisor snapshot / restore API
    # ------------------------------------------------------------------
    def snapshot_rows(self, indices) -> "InferenceCache":
        """Checkpoint the state of rows ``indices`` (deep copy, all layers).

        The serving supervisor's pre-iteration snapshot: for a quantized
        cache this copies the resident integer codes + PoT scale exponents
        directly (never dequantizing), so :meth:`restore_rows` followed by
        :meth:`state_equal` round-trips bit-exactly.  Equivalent to
        :meth:`gather`; the alias documents intent and pins the contract.
        """
        return self.gather(indices)

    def restore_rows(self, indices, snapshot: "InferenceCache") -> None:
        """Roll rows ``indices`` back to a :meth:`snapshot_rows` checkpoint."""
        self.scatter(indices, snapshot)

    def state_equal(self, other: "InferenceCache") -> bool:
        """Exact state equality across all layers (see :meth:`LayerCache.state_equal`)."""
        if len(other.layers) != len(self.layers):
            return False
        return all(
            layer.state_equal(other_layer)
            for layer, other_layer in zip(self.layers, other.layers)
        )

    def num_elements(self) -> int:
        """Total scalars held by the model's recurrent state."""
        return sum(layer.num_elements() for layer in self.layers)

    def resident_state_bytes(self) -> float:
        """Checkpoint footprint in bytes, layer accounting per :meth:`LayerCache.resident_bytes`.

        For a quantized cache this matches
        :class:`repro.hardware.memory.QuantizedStateMemoryModel`'s
        quantized-footprint terms for the recurrent state (packed codes, one
        exponent byte per PoT scale, FP16 conv taps); for a float cache it is
        the FP16 baseline.  The serving supervisor uses it to account
        snapshot bytes in ``EngineStats``.  It is the one footprint figure.
        """
        return sum(layer.resident_bytes() for layer in self.layers)
