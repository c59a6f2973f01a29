"""Generators for the paper's figures (2, 3, 4b, 6, 7, 9a, 9b, 10)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.ablation import AblationResult, ABLATION_STEPS, run_hardware_ablation
from repro.eval.harness import evaluate_model
from repro.eval.reference import ReferenceSetup, build_reference_setup
from repro.hardware.accelerator import AcceleratorConfig, LightMambaAccelerator
from repro.hardware.baselines import DFX, FLIGHTLLM
from repro.hardware.emu import ssm_operator_costs
from repro.hardware.gpu import GPUDecodeModel
from repro.hardware.platforms import RTX2070, RTX4090, U280, VCK190
from repro.hardware.scheduler import ScheduleMode
from repro.mamba.config import get_preset
from repro.quant.error import quantization_error
from repro.quant.hadamard import apply_hadamard
from repro.quant.qmodel import quantize_model
from repro.quant.rotation import RotationConfig, rotate_model
from repro.quant.rtn import rtn_quantize_weight

__all__ = [
    "fig2_activation_distribution",
    "fig3_ssm_requant_cost",
    "fig4b_fusion_error",
    "fig6_pipeline_schedules",
    "fig7_tiling_uram",
    "fig9a_throughput_vs_seqlen",
    "fig9b_energy_efficiency",
    "fig10_ablation",
]


def fig2_activation_distribution(
    setup: Optional[ReferenceSetup] = None,
    layer: Optional[int] = None,
    num_bins: int = 40,
) -> Dict[str, object]:
    """Fig. 2: out-proj activation distribution before and after rotation.

    Returns histogram arrays plus the summary statistics that characterise
    the scattered-outlier phenomenon: peak-to-RMS ratio, kurtosis, and how
    many distinct channels host the per-token maximum (scattered outliers
    move between channels; after rotation the distribution is near-Gaussian).
    """
    setup = setup or build_reference_setup()
    layer = setup.config.n_layer // 2 if layer is None else layer

    chunks = []
    for seq in setup.evaluation_sequences:
        collect: list = []
        setup.model.forward(seq, collect=collect)
        chunks.append(collect[layer]["out_proj_input"])
    before = np.concatenate(chunks, axis=0)
    after = apply_hadamard(before)

    def summarise(acts: np.ndarray) -> Dict[str, float]:
        rms = float(np.sqrt(np.mean(acts**2)))
        kurtosis = float(np.mean(acts**4) / np.mean(acts**2) ** 2)
        outlier_channels = np.argmax(np.abs(acts), axis=1)
        return {
            "absmax": float(np.max(np.abs(acts))),
            "rms": rms,
            "peak_to_rms": float(np.max(np.abs(acts)) / rms),
            "kurtosis": kurtosis,
            "distinct_outlier_channels": int(len(np.unique(outlier_channels))),
        }

    limit = float(np.max(np.abs(before)))
    edges = np.linspace(-limit, limit, num_bins + 1)
    return {
        "layer": layer,
        "bin_edges": edges,
        "histogram_before": np.histogram(before, bins=edges)[0],
        "histogram_after": np.histogram(after, bins=edges)[0],
        "before": summarise(before),
        "after": summarise(after),
    }


def fig3_ssm_requant_cost(bits: int = 8) -> List[Dict[str, object]]:
    """Fig. 3: per-operator SSM hardware cost, naive vs PoT re-quantization."""
    pot = ssm_operator_costs(bits=bits, pot_requant=True)
    non_pot = ssm_operator_costs(bits=bits, pot_requant=False)
    rows = []
    for op in pot:
        rows.append(
            {
                "operator": op,
                "dsp_non_pot": non_pot[op].dsp,
                "dsp_pot": pot[op].dsp,
                "lut_non_pot": int(non_pot[op].lut),
                "lut_pot": int(pot[op].lut),
            }
        )
    return rows


def fig4b_fusion_error(
    setup: Optional[ReferenceSetup] = None,
    bits: int = 4,
    group_size: int = 128,
    rotation_seed: int = 0,
    norm_scale_sigma: float = 1.0,
) -> List[Dict[str, object]]:
    """Fig. 4b: per-layer out-proj weight quantization error.

    Compares "only rotate" (the paper's choice: the gated-RMSNorm scale stays
    separate) against "fuse and rotate" (the scale folded into the weight
    before rotation), which inflates the weight's dynamic range and its
    absolute quantization error.

    Real Mamba2 checkpoints have heavy-tailed gated-RMSNorm scales -- that is
    what makes the fusion harmful.  The synthetic reference model initialises
    those scales near 1, so this generator re-scales them with a deterministic
    log-normal draw of width ``norm_scale_sigma`` before rotating (set it to 0
    to study the unmodified model).
    """
    setup = setup or build_reference_setup()
    source = setup.model
    if norm_scale_sigma > 0:
        source = source.copy()
        rng = np.random.default_rng(rotation_seed + 1234)
        for block in source.blocks:
            block.gated_norm.weight = block.gated_norm.weight * rng.lognormal(
                0.0, norm_scale_sigma, size=block.gated_norm.weight.shape
            )
    only = rotate_model(source, RotationConfig(seed=rotation_seed, fuse_gated_norm=False)).model
    fused = rotate_model(source, RotationConfig(seed=rotation_seed, fuse_gated_norm=True)).model
    rows = []
    for layer, (block_only, block_fused) in enumerate(zip(only.blocks, fused.blocks)):
        w_only = block_only.out_proj.weight
        w_fused = block_fused.out_proj.weight
        rows.append(
            {
                "layer": layer,
                "only_rotate": quantization_error(
                    w_only, rtn_quantize_weight(w_only, bits, group_size)
                ),
                "fuse_and_rotate": quantization_error(
                    w_fused, rtn_quantize_weight(w_fused, bits, group_size)
                ),
            }
        )
    return rows


def fig6_pipeline_schedules(
    model_preset: str = "mamba2-2.7b",
    config: Optional[AcceleratorConfig] = None,
) -> List[Dict[str, object]]:
    """Fig. 6: block latency and utilisation under the three schedules."""
    base = config or AcceleratorConfig(platform=VCK190)
    model_config = get_preset(model_preset)
    naive_cycles = None
    rows = []
    for mode in (ScheduleMode.SEQUENTIAL, ScheduleMode.REORDERED, ScheduleMode.FINE_GRAINED):
        accelerator = LightMambaAccelerator(base.with_overrides(schedule=mode), model_config)
        schedule = accelerator.block_schedule()
        if naive_cycles is None:
            naive_cycles = schedule.total_cycles
        rows.append(
            {
                "schedule": mode.value,
                "block_cycles": int(schedule.total_cycles),
                "latency_reduction_vs_naive_%": round(
                    100.0 * (1.0 - schedule.total_cycles / naive_cycles), 1
                ),
                "tokens_per_s": round(accelerator.tokens_per_second(), 2),
                "bottleneck_utilisation_%": round(100.0 * schedule.bottleneck_utilisation, 1),
                "mmu_utilisation_%": round(100.0 * schedule.utilisation("mmu"), 1),
                "ssmu_utilisation_%": round(100.0 * schedule.utilisation("ssmu"), 1),
            }
        )
    return rows


def fig7_tiling_uram(
    model_preset: str = "mamba2-2.7b",
    config: Optional[AcceleratorConfig] = None,
) -> Dict[str, object]:
    """Fig. 7: SSMU URAM with tensor-by-tensor vs tile-by-tile buffers."""
    base = config or AcceleratorConfig(platform=VCK190)
    model_config = get_preset(model_preset)
    coarse = LightMambaAccelerator(
        base.with_overrides(schedule=ScheduleMode.REORDERED), model_config
    )
    fine = LightMambaAccelerator(
        base.with_overrides(schedule=ScheduleMode.FINE_GRAINED), model_config
    )
    before = coarse.uram_usage()
    after = fine.uram_usage()
    return {
        "tensor_by_tensor_uram": before,
        "tile_by_tile_uram": after,
        "reduction_factor": round(before / max(after, 1), 2),
        "paper_before": 246,
        "paper_after": 61,
    }


def fig9a_throughput_vs_seqlen(
    seq_lens: Sequence[int] = (128, 1024, 4096, 8192),
    model_preset: str = "mamba2-2.7b",
) -> Dict[str, Dict[int, float]]:
    """Fig. 9a: decode throughput vs output sequence length.

    Series: LightMamba on U280 (flat -- fixed-size recurrent state), the RTX
    2070 running the same Mamba2 model (flat), and the prior Transformer
    accelerators FlightLLM / DFX on their own models (declining with length
    because of the KV cache).
    """
    model_config = get_preset(model_preset)
    ours = LightMambaAccelerator(AcceleratorConfig(platform=U280), model_config)
    gpu = GPUDecodeModel(RTX2070)
    series: Dict[str, Dict[int, float]] = {
        "LightMamba U280 (Mamba2-2.7B)": {},
        "RTX 2070 (Mamba2-2.7B)": {},
        "FlightLLM (LLaMA2-7B)": {},
        "DFX (GPT2-1.5B)": {},
    }
    for length in seq_lens:
        series["LightMamba U280 (Mamba2-2.7B)"][length] = round(
            ours.generation_throughput(output_tokens=length), 2
        )
        series["RTX 2070 (Mamba2-2.7B)"][length] = round(
            gpu.decode_tokens_per_second(model_config.num_parameters()), 2
        )
        series["FlightLLM (LLaMA2-7B)"][length] = round(FLIGHTLLM.tokens_per_second(length), 2)
        series["DFX (GPT2-1.5B)"][length] = round(DFX.tokens_per_second(length), 2)
    return series


def fig9b_energy_efficiency(
    model_presets: Sequence[str] = (
        "mamba2-130m",
        "mamba2-370m",
        "mamba2-780m",
        "mamba2-1.3b",
        "mamba2-2.7b",
    ),
) -> Dict[str, Dict[str, float]]:
    """Fig. 9b: energy efficiency (tokens/J) vs model size.

    Series: LightMamba on VCK190 (W4A4) and the two GPU baselines, plus the
    improvement ratios the paper headlines (6.06x over the RTX 2070, 4.65x
    over the RTX 4090 on average).
    """
    series: Dict[str, Dict[str, float]] = {
        "LightMamba VCK190": {},
        "RTX 2070": {},
        "RTX 4090": {},
        "ratio vs RTX 2070": {},
        "ratio vs RTX 4090": {},
    }
    for preset in model_presets:
        model_config = get_preset(preset)
        ours = LightMambaAccelerator(
            AcceleratorConfig(platform=VCK190), model_config
        ).energy_efficiency()
        gpu2070 = GPUDecodeModel(RTX2070).mamba_result(model_config).energy_efficiency
        gpu4090 = GPUDecodeModel(RTX4090).mamba_result(model_config).energy_efficiency
        series["LightMamba VCK190"][preset] = round(ours, 3)
        series["RTX 2070"][preset] = round(gpu2070, 3)
        series["RTX 4090"][preset] = round(gpu4090, 3)
        series["ratio vs RTX 2070"][preset] = round(ours / gpu2070, 2)
        series["ratio vs RTX 4090"][preset] = round(ours / gpu4090, 2)
    return series


def fig10_ablation(
    include_accuracy: bool = False,
    setup: Optional[ReferenceSetup] = None,
    model_preset: str = "mamba2-2.7b",
) -> List[Dict[str, object]]:
    """Fig. 10: throughput / accuracy / URAM as the techniques are added.

    The hardware columns come from the analytic accelerator model on the
    full-size target; the (optional, slower) accuracy column quantizes the
    reference evaluation model with each step's quantization configuration
    and runs the synthetic task suite.
    """
    accuracies: Dict[str, float] = {}
    if include_accuracy:
        setup = setup or build_reference_setup()
        cache: Dict[str, float] = {}
        for step in ABLATION_STEPS:
            if step.quant is None:
                key = "fp16"
                if key not in cache:
                    cache[key] = evaluate_model(setup.model, setup.tasks).average_accuracy
            else:
                key = step.quant.label
                if key not in cache:
                    quantized = quantize_model(
                        setup.model, step.quant, calibration=setup.calibration
                    )
                    cache[key] = evaluate_model(quantized, setup.tasks).average_accuracy
            accuracies[step.name] = cache[key]

    results: List[AblationResult] = run_hardware_ablation(
        model_config=get_preset(model_preset), accuracies=accuracies
    )
    return [result.as_dict() for result in results]
