#!/usr/bin/env python3
"""Quickstart: quantize a Mamba2 model with LightMamba and size the accelerator.

This example walks the public API end to end:

1. build a small synthetic Mamba2 model and generate a few tokens with it;
2. quantize it to W4A4 with the rotation-assisted + PoT scheme (LightMamba*)
   and check how closely the quantized model tracks the FP reference;
3. instantiate the paper's VCK190 accelerator design for the full-size
   Mamba2-2.7B target and print its throughput / energy / resource report.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations


from repro.core import CoDesignConfig, LightMambaPipeline
from repro.eval import ZipfCorpusGenerator, mean_kl_divergence, top1_agreement
from repro.mamba import InitConfig, Mamba2Model, get_preset, greedy_decode
from repro.quant import QuantConfig, QuantMethod, quantize_model


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A small Mamba2 model; prompts are token ids.
    # ------------------------------------------------------------------
    config = get_preset("mamba2-tiny")
    model = Mamba2Model.from_config(config, InitConfig(seed=0))
    print(f"built {config.name}: {model.num_parameters():,} parameters, "
          f"{config.n_layer} layers, d_model={config.d_model}")

    prompt = [0, 79, 108, 105, 103, 104, 116, 77, 97, 109, 98, 97]  # any ids below vocab_size
    generated = greedy_decode(model, prompt, max_new_tokens=16)
    print(f"FP16 sample ({len(generated)} tokens): {list(generated.tokens)}")

    # ------------------------------------------------------------------
    # 2. Quantize to W4A4 with the full LightMamba* scheme.
    # ------------------------------------------------------------------
    quant_config = QuantConfig.w4a4(QuantMethod.LIGHTMAMBA_STAR, group_size=32)
    quantized = quantize_model(model, quant_config)
    q_generated = greedy_decode(quantized, prompt, max_new_tokens=16)
    print(f"{quant_config.label} sample: {list(q_generated.tokens)}")

    eval_sequences = ZipfCorpusGenerator(config.vocab_size, seed=1).sequences(4, 32)
    agreement = top1_agreement(model, quantized, eval_sequences)
    kl = mean_kl_divergence(model, quantized, eval_sequences)
    print(f"fidelity vs FP16: top-1 agreement = {agreement:.1%}, KL divergence = {kl:.4f} nats")

    # ------------------------------------------------------------------
    # 3. The accelerator design point of the paper (Mamba2-2.7B on VCK190).
    # ------------------------------------------------------------------
    design = CoDesignConfig.vck190_w4a4()
    report = LightMambaPipeline(design).run()
    hw = report.hardware
    print(f"\naccelerator design point: {design.label}")
    print(f"  decode throughput : {hw.tokens_per_second:.2f} tokens/s "
          f"(paper: 7.21 tokens/s)")
    print(f"  decode latency    : {hw.latency_ms_per_token:.1f} ms/token")
    print(f"  board power       : {hw.power_w:.2f} W")
    print(f"  energy efficiency : {hw.energy_efficiency_tokens_per_j:.2f} tokens/J "
          f"(paper: 2.25 tokens/J)")
    print(f"  URAM usage        : {hw.uram_total} blocks")
    print("\nper-module resources:")
    print(hw.resources.format_table(design.accelerator.platform))


if __name__ == "__main__":
    main()
