"""The LightMamba accelerator: per-token latency, throughput and resources.

:class:`LightMambaAccelerator` composes the unit models (MMU, SSMU, HTU), the
off-chip memory interface and the block scheduler into a full-model decode
model.  It is the analytic counterpart of the paper's cycle-accurate U280
simulator: given a platform, a quantization configuration and a Mamba2 model
configuration it produces

- per-token decode latency (cycles / seconds) and throughput (tokens/s),
- a per-module resource report (Table IV / Fig. 8),
- on-chip buffer (URAM) usage with and without fine-grained tiling (Fig. 7 /
  Fig. 10),
- power and energy efficiency via :mod:`repro.hardware.power`.

The defaults are calibrated against the published VCK190 / U280 operating
points: ``tests/test_accelerator.py`` pins them to within 15%,
:func:`repro.bench.tables.table4_hardware` prints modelled next to published
throughput, and ``benchmarks/e2e`` reports ``accelerator.err_vs_paper.*`` on
every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.mamba.config import Mamba2Config
from repro.hardware.htu import HTUConfig, HadamardTransformUnit
from repro.hardware.memory import DramInterface, OnChipBufferModel
from repro.hardware.mmu import MMUConfig, MatrixMultiplyUnit
from repro.hardware.platforms import FPGAPlatform, U280, VCK190
from repro.hardware.power import FPGAPowerModel
from repro.hardware.resources import ResourceReport, ResourceUsage
from repro.hardware.scheduler import BlockPhases, BlockSchedule, ScheduleMode, schedule_block
from repro.hardware.ssmu import SSMUConfig, SSMUnit

__all__ = ["AcceleratorConfig", "AcceleratorReport", "LightMambaAccelerator"]


@dataclass(frozen=True)
class AcceleratorConfig:
    """Design-point configuration of the accelerator.

    Attributes
    ----------
    platform:
        Target FPGA board.
    weight_bits / act_bits:
        Linear-layer precision streamed from DRAM and fed to the MMU
        (16 models the unquantized FP16 baseline of the ablation).
    group_size:
        Quantization group size (adds per-group FP16 scales to the weight
        stream).
    mmu:
        MMU shape; defaults to a platform-appropriate size.
    ssm_bits:
        SSM datapath precision (8 when the SSM is quantized, 16 otherwise).
    ssm_pot_requant:
        Power-of-two re-quantization in the SSMU.
    ssm_lane_scale:
        Multiplier on the default per-operator SSMU lane counts (the U280
        design uses wider EMUs).
    use_rotation:
        Whether the online Hadamard transform is part of the layer (the
        rotation-assisted quantization is enabled).
    use_fht:
        Execute the online rotation with the FHT-based HTU; ``False`` models
        the naive matrix-multiply rotation of the ablation.
    schedule:
        Block scheduling mode (Fig. 6).
    dram_efficiency:
        Achievable fraction of peak DRAM bandwidth.
    compute_overhead:
        Multiplier on compute-phase cycles accounting for control, stalls and
        DMA re-initialisation not modelled explicitly.
    """

    platform: FPGAPlatform = VCK190
    weight_bits: int = 4
    act_bits: int = 4
    group_size: int = 128
    mmu: Optional[MMUConfig] = None
    ssm_bits: int = 8
    ssm_pot_requant: bool = True
    ssm_lane_scale: Optional[int] = None
    use_rotation: bool = True
    use_fht: bool = True
    schedule: ScheduleMode = ScheduleMode.FINE_GRAINED
    dram_efficiency: float = 0.86
    compute_overhead: float = 1.10

    def mmu_config(self) -> MMUConfig:
        """The MMU shape, defaulting to a platform-appropriate design."""
        if self.mmu is not None:
            return replace(self.mmu, weight_bits=self.weight_bits, act_bits=self.act_bits)
        if self.platform.name == U280.name:
            return MMUConfig(din=128, dout=16, weight_bits=self.weight_bits, act_bits=self.act_bits)
        return MMUConfig(din=128, dout=2, weight_bits=self.weight_bits, act_bits=self.act_bits)

    def resolved_ssm_lane_scale(self) -> int:
        """SSMU lane multiplier, defaulting to a platform-appropriate value.

        The bandwidth-bound VCK190 design keeps the SSMU narrow (it hides
        under the weight stream once reordered); the compute-bound U280 design
        widens every EMU so the SSM stays off the critical path.
        """
        if self.ssm_lane_scale is not None:
            return self.ssm_lane_scale
        return 32 if self.platform.name == U280.name else 1

    def with_overrides(self, **kwargs) -> "AcceleratorConfig":
        return replace(self, **kwargs)

    @property
    def label(self) -> str:
        return f"{self.platform.name} W{self.weight_bits}A{self.act_bits}"


@dataclass
class AcceleratorReport:
    """Summary of one accelerator evaluation (one row of Table IV)."""

    config_label: str
    model_name: str
    tokens_per_second: float
    latency_ms_per_token: float
    power_w: float
    energy_efficiency_tokens_per_j: float
    resources: ResourceReport
    uram_total: int
    utilisation: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        out = {
            "config": self.config_label,
            "model": self.model_name,
            "tokens_per_s": round(self.tokens_per_second, 2),
            "latency_ms": round(self.latency_ms_per_token, 2),
            "power_w": round(self.power_w, 2),
            "tokens_per_j": round(self.energy_efficiency_tokens_per_j, 3),
            "uram": self.uram_total,
        }
        out.update({f"util_{k}": round(v, 3) for k, v in self.utilisation.items()})
        return out


class LightMambaAccelerator:
    """Analytic decode model of the LightMamba accelerator."""

    def __init__(
        self,
        config: AcceleratorConfig,
        model_config: Mamba2Config,
        power_model: Optional[FPGAPowerModel] = None,
    ):
        self.config = config
        self.model_config = model_config
        self.power_model = power_model or FPGAPowerModel()

        self.mmu = MatrixMultiplyUnit(config.mmu_config())
        self.dram = DramInterface.for_platform(config.platform, config.dram_efficiency)
        self.buffer_model = OnChipBufferModel()

        lanes = None
        lane_scale = config.resolved_ssm_lane_scale()
        if lane_scale != 1:
            from repro.hardware.emu import DEFAULT_SSM_PARALLELISM

            lanes = {
                op: count * lane_scale for op, count in DEFAULT_SSM_PARALLELISM.items()
            }
        self.ssmu = SSMUnit(
            SSMUConfig(
                nheads=model_config.nheads,
                headdim=model_config.headdim,
                d_state=model_config.d_state,
                bits=config.ssm_bits,
                pot_requant=config.ssm_pot_requant,
                parallelism=lanes,
            ),
            buffer_model=self.buffer_model,
        )
        self.htu = (
            HadamardTransformUnit(
                HTUConfig(
                    dim=model_config.d_inner,
                    use_fht=config.use_fht,
                    tiny_mm_lanes=40,
                    bits=min(config.act_bits, 8),
                )
            )
            if config.use_rotation
            else None
        )

    # ------------------------------------------------------------------
    # Per-block phases and schedule
    # ------------------------------------------------------------------
    def block_phases(self) -> BlockPhases:
        """Cycle costs of one Mamba block for a single decode token."""
        cfg = self.config
        m = self.model_config
        overhead = cfg.compute_overhead

        in_compute = self.mmu.gemv_cycles(m.d_model, m.d_in_proj) * overhead
        out_compute = self.mmu.gemv_cycles(m.d_inner, m.d_model) * overhead

        in_bytes = self.mmu.weight_bytes(m.d_model, m.d_in_proj, cfg.group_size)
        out_bytes = self.mmu.weight_bytes(m.d_inner, m.d_model, cfg.group_size)
        other_bytes = self._other_block_bytes()
        in_memory = self.dram.cycles_for_bytes(in_bytes)
        out_memory = self.dram.cycles_for_bytes(out_bytes)
        other_memory = self.dram.cycles_for_bytes(other_bytes)

        conv_cycles = math.ceil(m.conv_dim * m.d_conv / 8) * overhead
        ssm_per_head = self.ssmu.cycles_per_head() * overhead
        htu_cycles = self.htu.transform_cycles() * overhead if self.htu else 0.0

        dbc_fraction = (2 * m.d_bc + m.nheads) / m.d_in_proj
        return BlockPhases(
            in_proj_compute=in_compute,
            in_proj_memory=in_memory,
            out_proj_compute=out_compute,
            out_proj_memory=out_memory,
            conv_cycles=conv_cycles,
            ssm_cycles_per_head=ssm_per_head,
            ssm_head_overhead=24.0,
            nheads=m.nheads,
            htu_cycles=htu_cycles,
            other_memory=other_memory,
            dbc_fraction=dbc_fraction,
        )

    def _other_block_bytes(self) -> float:
        """Non-projection per-block parameters streamed per token (FP16)."""
        m = self.model_config
        return m.block_other_params() * 2.0

    def _head_bytes(self) -> float:
        """LM-head weight bytes streamed per token."""
        m = self.model_config
        bits = self.config.weight_bits if self.config.weight_bits < 16 else 16
        return m.vocab_size * m.d_model * bits / 8.0

    def block_schedule(self) -> BlockSchedule:
        return schedule_block(self.block_phases(), self.config.schedule)

    # ------------------------------------------------------------------
    # Latency / throughput
    # ------------------------------------------------------------------
    def decode_cycles_per_token(self) -> float:
        """Total accelerator cycles to generate one token."""
        m = self.model_config
        schedule = self.block_schedule()
        block_cycles = schedule.total_cycles * m.n_layer

        head_compute = self.mmu.gemv_cycles(m.d_model, m.vocab_size) * self.config.compute_overhead
        head_memory = self.dram.cycles_for_bytes(self._head_bytes())
        head_cycles = max(head_compute, head_memory)
        return block_cycles + head_cycles

    def decode_latency_seconds(self) -> float:
        return self.decode_cycles_per_token() / self.config.platform.frequency_hz

    def tokens_per_second(self) -> float:
        return 1.0 / self.decode_latency_seconds()

    def generation_throughput(self, output_tokens: int, prompt_tokens: int = 64) -> float:
        """End-to-end tokens/s for generating ``output_tokens`` after a prompt.

        Mamba's recurrent state is fixed-size, so the per-token decode cost is
        independent of position; only the (parallelisable) prefill is
        amortised, which is why throughput stays flat with output length
        (Fig. 9a).
        """
        if output_tokens <= 0:
            raise ValueError("output_tokens must be positive")
        decode = self.decode_latency_seconds()
        # Prefill processes the prompt with the same weight stream but reuses
        # it across the whole prompt; approximate it as a single decode pass
        # plus the extra MMU compute for the additional tokens.
        m = self.model_config
        extra_macs = prompt_tokens * m.n_layer * (
            m.d_model * m.d_in_proj + m.d_inner * m.d_model
        )
        prefill = decode + extra_macs / (
            self.mmu.config.effective_macs_per_cycle * self.config.platform.frequency_hz
        )
        total_time = prefill + output_tokens * decode
        return output_tokens / total_time

    # ------------------------------------------------------------------
    # Resources, power, reporting
    # ------------------------------------------------------------------
    def uram_usage(self) -> int:
        """Total URAM blocks (SSMU buffers + staging buffers)."""
        fine = self.config.schedule is ScheduleMode.FINE_GRAINED
        ssmu_uram = self.ssmu.uram_usage(fine_grained=fine)
        staging = self._staging_buffer_allocations()
        return ssmu_uram + sum(a.uram for a in staging)

    def _staging_buffer_allocations(self):
        """Residual / activation staging buffers outside the SSMU."""
        m = self.model_config
        buffers = {
            "residual": m.d_model * 2.0,
            "norm_buffer": m.d_model * 2.0,
            "out_proj_input": m.d_inner * 2.0,
            "logit_buffer": min(m.vocab_size, 4096) * 2.0,
        }
        return self.buffer_model.allocate_many(buffers)

    def resource_report(self) -> ResourceReport:
        """Per-module resource breakdown (Fig. 8 / Table IV)."""
        fine = self.config.schedule is ScheduleMode.FINE_GRAINED
        report = ResourceReport()
        report.add("MMU", self.mmu.resources().rounded())
        report.add("SSMU", self.ssmu.resources().rounded())
        if self.htu is not None:
            report.add("HTU", self.htu.resources().rounded())
        ssmu_buffers = ResourceUsage(
            uram=self.ssmu.uram_usage(fine_grained=fine),
            bram=self.ssmu.bram_usage(fine_grained=fine),
        )
        report.add("SSMU buffers", ssmu_buffers)
        staging = self._staging_buffer_allocations()
        report.add(
            "staging buffers",
            ResourceUsage(
                uram=sum(a.uram for a in staging), bram=sum(a.bram for a in staging)
            ),
        )
        # DMA engines, AXI interconnect, control state machines.
        report.add("DMA + control", ResourceUsage(lut=21_000, ff=30_000, bram=48))
        return report

    def power_w(self) -> float:
        return self.power_model.power(
            self.resource_report().total, self.config.platform.frequency_hz
        )

    def energy_efficiency(self) -> float:
        """Tokens per joule."""
        return self.tokens_per_second() / self.power_w()

    def report(self) -> AcceleratorReport:
        schedule = self.block_schedule()
        return AcceleratorReport(
            config_label=self.config.label,
            model_name=self.model_config.name,
            tokens_per_second=self.tokens_per_second(),
            latency_ms_per_token=self.decode_latency_seconds() * 1e3,
            power_w=self.power_w(),
            energy_efficiency_tokens_per_j=self.energy_efficiency(),
            resources=self.resource_report(),
            uram_total=self.uram_usage(),
            utilisation={
                "mmu": schedule.utilisation("mmu"),
                "ssmu": schedule.utilisation("ssmu"),
                "dram": schedule.utilisation("dram"),
                "bottleneck": schedule.bottleneck_utilisation,
            },
        )
