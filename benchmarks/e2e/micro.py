"""Direct micro-calls at fixed shapes, the analytic accelerator, and counted work.

Times are medians of repeated calls after warm-up, made on the untraced
model.  ``.b1`` / ``.b4`` / ``.b8`` are batch sizes.  Element, MAC and byte
figures are *computed from tensor shapes*, not measured.  The accelerator
figures are simulated time from ``repro.hardware`` and deterministic: they
move only when that package does.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Tuple

import numpy as np

from repro.hardware import U280, VCK190, AcceleratorConfig, LightMambaAccelerator
from repro.mamba import get_preset, greedy_select, sample_select
from repro.quant import QuantizedLinear, grouped_integer_matmul, shift_requantize

from benchmarks.e2e.measures import Metric
from benchmarks.e2e.stats import median

#: The abstract's U280 W4A4 throughput on Mamba2-2.7B -- the only reference
#: figure in the repo; the VCK190 points are not validated against anything.
PAPER_U280_W4A4_TOK_PER_S = 93.0


def timed_median(fn: Callable[[], Any], quick: bool) -> Tuple[float, int]:
    """Median seconds per call: up to 200 calls or ~1 s, whichever ends first (min 20)."""
    max_reps, min_reps, budget = (20, 5, 0.2) if quick else (200, 20, 1.0)
    fn()
    fn()
    samples = []
    began = time.perf_counter()
    while len(samples) < max_reps:
        start = time.perf_counter()
        fn()
        end = time.perf_counter()
        samples.append(end - start)
        if len(samples) >= min_reps and end - began >= budget:
            break
    return median(samples), len(samples)


def _decode_lane(model, batch: int, rng) -> Callable[[], Any]:
    """A closure advancing a warm batched cache by one ``model.step``."""
    prompts = rng.integers(1, model.config.vocab_size, size=(batch, 8))
    logits, cache = model.prefill(prompts)
    lane = {"tokens": np.argmax(logits, axis=-1)}

    def step():
        lane["tokens"] = np.argmax(model.step(lane["tokens"], cache), axis=-1)

    return step


def model_micro(model, w8a8_model, quick: bool) -> Dict[str, Metric]:
    cfg = model.config
    rng = np.random.default_rng(0)
    out: Dict[str, Metric] = {}

    def put(name: str, fn: Callable[[], Any], scale: float, unit: str) -> float:
        seconds, n = timed_median(fn, quick)
        out[name] = (seconds * scale, unit, n)
        return seconds

    step_s = {b: put(f"model.step_ms_p50.b{b}", _decode_lane(model, b, rng), 1e3, "ms")
              for b in (1, 4, 8)}
    out["model.batch8_scaling"] = (8 * step_s[1] / step_s[8], "x", None)
    put("model.step_ms_p50.w8a8.b1", _decode_lane(w8a8_model, 1, rng), 1e3, "ms")

    prompt = rng.integers(1, cfg.vocab_size, size=512)
    put("model.prefill_ms_per_tok", lambda: model.prefill(prompt), 1e3 / prompt.size, "ms")

    pool = model.new_cache(batch_size=8)
    rows = [0, 2, 4, 6]
    put("cache.gather_scatter_us.b4of8", lambda: pool.scatter(rows, pool.gather(rows)), 1e6, "us")
    out["cache.state_bytes_per_slot"] = (
        float(model.new_cache(batch_size=1).resident_state_bytes()), "B", None
    )

    conv = model.blocks[0].conv
    for b in (1, 8):
        x_t = rng.normal(size=(b, cfg.conv_dim))
        window = rng.normal(size=(b, cfg.conv_dim, cfg.d_conv))
        put(f"conv1d.step_us.b{b}", lambda x_t=x_t, window=window: conv.step(x_t, window),
            1e6, "us")

    # shift_requantize as the integer step calls it: products grouped along
    # d_state, one source/destination exponent per group of 32.
    group = 32
    for b in (1, 8):
        shape = (b, cfg.nheads, cfg.headdim, cfg.d_state // group, group)
        values = rng.integers(-127 * 127, 127 * 127, size=shape)
        src = rng.integers(-20, -8, size=shape[:-1] + (1,))
        dst = src + rng.integers(5, 9, size=src.shape)
        put(f"pot.shift_requantize_us.b{b}",
            lambda values=values, src=src, dst=dst: shift_requantize(
                values, src, dst, 8, "half_even"),
            1e6, "us")
    elems = cfg.nheads * cfg.headdim * cfg.d_state
    out["pot.shift_requantize.elems_per_call.b1"] = (float(elems), "count", None)
    # int64 codes read + int64 codes written + two int64 exponents per group.
    out["pot.shift_requantize.bytes_per_call.b1"] = (
        float(elems * 16 + 2 * 8 * elems // group), "B", None
    )

    # The in-projection shape: (B, d_model) x (d_in_proj, d_model), W4A4, groups of 128.
    weight = model.blocks[0].in_proj_weight
    n_out, n_in = weight.shape
    linear = QuantizedLinear.from_weight(weight, 4, 4, 128)
    for b in (1, 8):
        x = rng.normal(size=(b, n_in))
        put(f"qlinear.forward_integer_us.b{b}", lambda x=x: linear.forward_integer(x), 1e6, "us")
    out["qlinear.forward_integer.elems_per_call.b1"] = (float(n_out * n_in), "MAC", None)
    # 4-bit weight codes + FP16 group scales streamed, float64 activations in and out.
    out["qlinear.forward_integer.bytes_per_call.b1"] = (
        float(n_out * n_in / 2 + 2 * n_out * n_in / 128 + 8 * (n_in + n_out)), "B", None
    )
    n_groups = n_in // 128
    x_codes = rng.integers(-7, 8, size=(1, n_in))
    w_codes = rng.integers(-7, 8, size=(n_out, n_in))
    x_scales = np.exp2(rng.integers(-6, 0, size=(1, n_groups)).astype(np.float64))
    w_scales = np.exp2(rng.integers(-6, 0, size=(n_out, n_groups)).astype(np.float64))
    put("qlinear.grouped_int_matmul_us",
        lambda: grouped_integer_matmul(x_codes, x_scales, w_codes, w_scales,
                                       group_size=128, x_qmax=7, w_qmax=7),
        1e6, "us")
    out["qlinear.grouped_int_matmul.elems_per_call"] = (float(n_out * n_in), "MAC", None)
    # int64 code arrays as passed in, plus the float64 scales and output.
    out["qlinear.grouped_int_matmul.bytes_per_call"] = (
        float(8 * (n_in + n_out * n_in) + 8 * n_groups * (1 + n_out) + 8 * n_out), "B", None
    )

    logits = rng.normal(size=cfg.vocab_size)
    put("sampling.greedy_us", lambda: greedy_select(logits), 1e6, "us")
    draw = np.random.default_rng(1)
    put("sampling.sample_topk_us",
        lambda: sample_select(logits[None, :], [draw], temperature=0.8, top_k=32), 1e6, "us")
    return out


def accelerator_metrics(bench_config) -> Dict[str, Metric]:
    """Simulated accelerator figures and per-token counted work."""
    out: Dict[str, Metric] = {}
    published = get_preset("mamba2-2.7b")
    points = {
        "u280_w4a4": AcceleratorConfig(platform=U280, weight_bits=4, act_bits=4),
        "vck190_w4a4": AcceleratorConfig(platform=VCK190, weight_bits=4, act_bits=4),
        "vck190_w8a8": AcceleratorConfig(platform=VCK190, weight_bits=8, act_bits=8),
    }
    began = time.perf_counter()
    reports = {
        label: LightMambaAccelerator(config, published).report()
        for label, config in points.items()
    }
    out["accelerator.report_ms"] = ((time.perf_counter() - began) * 1e3 / len(points), "ms", 3)
    for label, report in reports.items():
        out[f"accelerator.sim_tok_per_s.{label}"] = (report.tokens_per_second, "tok/s", None)
    out["accelerator.sim_tok_per_j.vck190_w4a4"] = (
        reports["vck190_w4a4"].energy_efficiency_tokens_per_j, "tok/J", None
    )
    out["accelerator.err_vs_paper.u280_w4a4"] = (
        reports["u280_w4a4"].tokens_per_second / PAPER_U280_W4A4_TOK_PER_S - 1.0, "share", None
    )

    # Busy cycles per unit on the benchmark's own dims, beside the host
    # block.*_share.decode.  The units overlap in the schedule, so these are
    # shares of summed work, not of the makespan.
    m = bench_config
    accelerator = LightMambaAccelerator(points["u280_w4a4"], m)
    phases = accelerator.block_phases()
    head = accelerator.decode_cycles_per_token() - (
        accelerator.block_schedule().total_cycles * m.n_layer
    )
    cycles = {
        "mmu": (phases.in_proj_compute + phases.out_proj_compute) * m.n_layer,
        "ssmu": phases.ssm_cycles_per_head * phases.nheads * m.n_layer,
        "conv": phases.conv_cycles * m.n_layer,
        "head": head,
    }
    whole = sum(cycles.values())
    for unit, value in cycles.items():
        out[f"accelerator.cycle_share.{unit}"] = (value / whole, "share", None)

    state_elems = m.nheads * m.headdim * m.d_state
    out["work.macs_per_token.proj"] = (
        float(m.n_layer * (m.d_model * m.d_in_proj + m.d_inner * m.d_model)), "MAC", None
    )
    # B_bar (.) x, A_bar (.) h and h (.) C over the state, D (.) x over the heads.
    out["work.macs_per_token.ssm"] = (
        float(m.n_layer * (3 * state_elems + m.nheads * m.headdim)), "MAC", None
    )
    # INT8 state codes read and written once per layer per token.
    out["work.state_bytes_per_token"] = (float(2 * m.n_layer * state_elems), "B", None)
    return out
