"""Off-chip memory interface and on-chip buffer models.

During decode the accelerator streams every weight from off-chip DRAM once
per token, which makes the VCK190 design memory-bound (12 GB/s LPDDR) and the
U280 design mostly compute-bound (460 GB/s HBM).  :class:`DramInterface`
converts byte counts to accelerator cycles; :class:`OnChipBufferModel`
converts activation buffer bytes to BRAM / URAM counts the way Vivado maps
them (URAM for the large SSM-state and activation buffers, BRAM for small
FIFOs and weight tiles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from repro.hardware.platforms import FPGAPlatform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mamba.config import Mamba2Config

__all__ = [
    "DramInterface",
    "OnChipBufferModel",
    "BufferAllocation",
    "QuantizedStateMemoryModel",
    "StateFootprint",
]

#: Usable bytes of one UltraRAM block (288 Kb).
URAM_BYTES = 288 * 1024 // 8
#: Usable bytes of one 36 Kb block RAM.
BRAM_BYTES = 36 * 1024 // 8


@dataclass(frozen=True)
class DramInterface:
    """Off-chip memory modelled as a bandwidth with a utilisation efficiency.

    Attributes
    ----------
    bandwidth_bytes_per_s:
        Peak interface bandwidth.
    frequency_hz:
        Accelerator clock used to express transfers in cycles.
    efficiency:
        Achievable fraction of the peak for the long sequential bursts used
        by weight streaming (DMA overhead, refresh, protocol).
    """

    bandwidth_bytes_per_s: float
    frequency_hz: float
    efficiency: float = 0.88

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0 or self.frequency_hz <= 0:
            raise ValueError("bandwidth and frequency must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")

    @classmethod
    def for_platform(cls, platform: FPGAPlatform, efficiency: float = 0.88) -> "DramInterface":
        return cls(
            bandwidth_bytes_per_s=platform.dram_bandwidth_bytes_per_s,
            frequency_hz=platform.frequency_hz,
            efficiency=efficiency,
        )

    @property
    def bytes_per_cycle(self) -> float:
        """Effective bytes delivered per accelerator cycle."""
        return self.bandwidth_bytes_per_s * self.efficiency / self.frequency_hz

    def cycles_for_bytes(self, num_bytes: float) -> float:
        """Cycles to stream ``num_bytes`` from DRAM."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return num_bytes / self.bytes_per_cycle

    def seconds_for_bytes(self, num_bytes: float) -> float:
        return self.cycles_for_bytes(num_bytes) / self.frequency_hz


@dataclass(frozen=True)
class BufferAllocation:
    """On-chip storage assigned to a named buffer."""

    name: str
    num_bytes: float
    uram: int
    bram: int


@dataclass(frozen=True)
class OnChipBufferModel:
    """Maps buffer byte requirements onto URAM / BRAM blocks.

    Buffers at least ``uram_threshold_bytes`` large are placed in URAM (as the
    implementation does for the SSM intermediate tensors, which the paper
    reports occupying >70% of URAM before tiling); smaller buffers use BRAM.
    """

    uram_threshold_bytes: int = 16 * 1024
    banking_overhead: float = 1.10  # port/banking rounding losses

    def allocate(self, name: str, num_bytes: float) -> BufferAllocation:
        """Allocate a buffer and return its URAM / BRAM block counts."""
        if num_bytes < 0:
            raise ValueError("buffer size must be non-negative")
        effective = num_bytes * self.banking_overhead
        if effective >= self.uram_threshold_bytes:
            return BufferAllocation(
                name=name,
                num_bytes=num_bytes,
                uram=math.ceil(effective / URAM_BYTES),
                bram=0,
            )
        return BufferAllocation(
            name=name,
            num_bytes=num_bytes,
            uram=0,
            bram=max(1, math.ceil(effective / BRAM_BYTES)) if num_bytes > 0 else 0,
        )

    def allocate_many(self, buffers: dict[str, float]) -> list[BufferAllocation]:
        """Allocate several named buffers at once."""
        return [self.allocate(name, size) for name, size in buffers.items()]


@dataclass(frozen=True)
class StateFootprint:
    """On-chip footprint of the decode-resident recurrent state.

    All byte counts are for the *whole model* (every layer) at the given
    batch size; ``allocations`` maps each per-layer buffer to its URAM/BRAM
    placement (the state buffers are per-layer on the accelerator -- one SSMU
    tile owns one layer's state at a time).

    ``ssm_state_bytes`` holds the state values themselves -- packed INT codes
    for a quantized footprint, FP16 floats for the baseline; the scales (the
    quantized representation's per-group exponents) are accounted separately
    in ``ssm_scale_bytes`` (zero for the baseline).  ``operand_bytes`` is the
    all-integer decode iteration's working set: the per-token ``x`` / ``B`` /
    ``C`` and folded ``delta B`` operand codes (plus their shift exponents)
    that stay resident alongside the state codes between in-projection and
    readout instead of round-tripping through float buffers.  It is zero for
    the FP16 baseline and for quantized footprints sized without operands.
    """

    ssm_state_bytes: float
    ssm_scale_bytes: float
    conv_bytes: float
    allocations: tuple
    operand_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        return (
            self.ssm_state_bytes
            + self.ssm_scale_bytes
            + self.conv_bytes
            + self.operand_bytes
        )

    @property
    def uram(self) -> int:
        """Total URAM blocks across the per-layer state buffers."""
        return sum(a.uram for a in self.allocations)

    @property
    def bram(self) -> int:
        """Total BRAM blocks across the per-layer state buffers."""
        return sum(a.bram for a in self.allocations)


@dataclass(frozen=True)
class QuantizedStateMemoryModel:
    """Sizes the on-chip footprint of the integer-resident decode state.

    The lightmamba* decode (:meth:`QuantizedSSMStep._step_integer
    <repro.quant.ssm_quant.QuantizedSSMStep._step_integer>`) keeps
    the recurrent state ``h`` on-chip as INT codes plus one power-of-two
    scale exponent per quantization group, exactly as the FPGA state buffer
    stores it; the convolution window stays FP16.  This model converts a
    :class:`~repro.mamba.config.Mamba2Config` into the per-layer byte / URAM
    / BRAM costs of that residency so the paper's tiling study (Fig. 7) can
    compare the quantized state buffer against the FP16 baseline per
    platform and batch size.

    Attributes
    ----------
    state_bits:
        Code width of the resident SSM state (the paper's SSMU uses INT8).
    group_size:
        Quantization group length along ``d_state`` (one scale per group).
    scale_bytes:
        Storage of one scale.  PoT scales are a signed shift exponent -- one
        byte -- which is what makes the resident representation cheap; a
        non-PoT ablation would need an FP16 multiplier per group (2.0).
    conv_bytes_per_element:
        Storage of one convolution-window element (FP16 by default).
    buffer_model:
        The URAM/BRAM mapping used for placements.
    """

    state_bits: int = 8
    group_size: int = 32
    scale_bytes: float = 1.0
    conv_bytes_per_element: float = 2.0
    buffer_model: OnChipBufferModel = field(default_factory=OnChipBufferModel)

    def __post_init__(self) -> None:
        if self.state_bits <= 0 or self.group_size <= 0:
            raise ValueError("state_bits and group_size must be positive")
        if self.scale_bytes < 0 or self.conv_bytes_per_element <= 0:
            raise ValueError("byte costs must be positive (scales may be 0 for ablations)")

    # ------------------------------------------------------------------
    # Element counts
    # ------------------------------------------------------------------
    def _per_layer_counts(self, config: "Mamba2Config", batch_size: int) -> Dict[str, float]:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        state_elems = batch_size * config.nheads * config.headdim * config.d_state
        group = min(self.group_size, config.d_state)
        n_groups = -(-config.d_state // group)
        scale_elems = batch_size * config.nheads * config.headdim * n_groups
        conv_elems = batch_size * config.conv_dim * config.d_conv
        return {"state": state_elems, "scales": scale_elems, "conv": conv_elems}

    def _operand_counts(self, config: "Mamba2Config", batch_size: int) -> Dict[str, float]:
        """Per-layer element counts of the decode-resident operand codes.

        One all-integer decode iteration keeps four operand tensors on codes
        between in-projection and readout: the per-token ``x``
        (``nheads * headdim``), ``B`` and ``C`` (``d_state`` each), and the
        scalar-folded ``delta B`` (``nheads * d_state``).  Each carries one
        shift exponent per quantization group along its grouped axis
        (``headdim`` for ``x``, ``d_state`` for the rest).
        """
        group_n = min(self.group_size, config.d_state)
        n_groups = -(-config.d_state // group_n)
        group_p = min(self.group_size, config.headdim)
        p_groups = -(-config.headdim // group_p)
        code_elems = batch_size * (
            config.nheads * config.headdim  # x
            + 2 * config.d_state  # B, C
            + config.nheads * config.d_state  # delta B, folded per head
        )
        scale_elems = batch_size * (
            config.nheads * p_groups  # x exponents
            + 2 * n_groups  # B, C exponents
            + config.nheads * n_groups  # delta B exponents
        )
        return {"codes": code_elems, "scales": scale_elems}

    # ------------------------------------------------------------------
    # Footprints
    # ------------------------------------------------------------------
    def quantized_footprint(
        self,
        config: "Mamba2Config",
        batch_size: int = 1,
        include_operands: bool = False,
    ) -> StateFootprint:
        """Footprint of the integer-resident state (codes + PoT exponents).

        With ``include_operands=True`` the footprint also counts the
        all-integer decode iteration's operand working set -- the per-token
        ``x`` / ``B`` / ``C`` / ``delta B`` codes and their shift exponents
        that stay resident alongside the state codes (one ``ssm_operands``
        buffer per layer) -- matching what the SSMU keeps on-chip when no
        float tensor is materialized between in-projection and readout.
        """
        counts = self._per_layer_counts(config, batch_size)
        code_bytes = counts["state"] * self.state_bits / 8.0
        scale_bytes = counts["scales"] * self.scale_bytes
        conv_bytes = counts["conv"] * self.conv_bytes_per_element
        operand_bytes = 0.0
        if include_operands:
            operands = self._operand_counts(config, batch_size)
            operand_bytes = (
                operands["codes"] * self.state_bits / 8.0
                + operands["scales"] * self.scale_bytes
            )
        allocations = []
        for layer in range(config.n_layer):
            allocations.append(
                self.buffer_model.allocate(f"ssm_state_codes[{layer}]", code_bytes + scale_bytes)
            )
            if include_operands:
                allocations.append(
                    self.buffer_model.allocate(f"ssm_operands[{layer}]", operand_bytes)
                )
            allocations.append(
                self.buffer_model.allocate(f"conv_window[{layer}]", conv_bytes)
            )
        return StateFootprint(
            ssm_state_bytes=code_bytes * config.n_layer,
            ssm_scale_bytes=scale_bytes * config.n_layer,
            conv_bytes=conv_bytes * config.n_layer,
            allocations=tuple(allocations),
            operand_bytes=operand_bytes * config.n_layer,
        )

    def fp16_footprint(self, config: "Mamba2Config", batch_size: int = 1) -> StateFootprint:
        """Footprint of the FP16-resident baseline (no codes, no scales)."""
        counts = self._per_layer_counts(config, batch_size)
        state_bytes = counts["state"] * 2.0
        conv_bytes = counts["conv"] * self.conv_bytes_per_element
        allocations = []
        for layer in range(config.n_layer):
            allocations.append(
                self.buffer_model.allocate(f"ssm_state_fp16[{layer}]", state_bytes)
            )
            allocations.append(
                self.buffer_model.allocate(f"conv_window[{layer}]", conv_bytes)
            )
        return StateFootprint(
            ssm_state_bytes=state_bytes * config.n_layer,
            ssm_scale_bytes=0.0,
            conv_bytes=conv_bytes * config.n_layer,
            allocations=tuple(allocations),
        )

    def compression_ratio(self, config: "Mamba2Config", batch_size: int = 1) -> float:
        """FP16-resident bytes over integer-resident bytes (> 1 is a win)."""
        return (
            self.fp16_footprint(config, batch_size).total_bytes
            / self.quantized_footprint(config, batch_size).total_bytes
        )

    def max_resident_batch(
        self, config: "Mamba2Config", platform: FPGAPlatform, uram_budget_fraction: float = 0.7
    ) -> int:
        """Largest batch whose quantized state fits the platform's URAM budget.

        The paper reports the SSM intermediate buffers consuming >70% of
        URAM before tiling; this inverts the model -- how many concurrent
        requests' resident state fit in ``uram_budget_fraction`` of the
        platform's URAM -- which bounds the serving engine's useful
        ``max_batch_size`` on that device.  Returns 0 when even batch 1 does
        not fit.
        """
        if not 0.0 < uram_budget_fraction <= 1.0:
            raise ValueError("uram_budget_fraction must be in (0, 1]")
        budget = platform.uram * uram_budget_fraction
        if self.quantized_footprint(config, 1).uram > budget:
            return 0
        lo, hi = 1, 2
        while self.quantized_footprint(config, hi).uram <= budget:
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.quantized_footprint(config, mid).uram <= budget:
                lo = mid
            else:
                hi = mid
        return lo
