"""All-integer decode iteration throughput vs fake-quant decode.

The fake-quant decode round-trips every per-token tensor through floats:
quantize the incoming float state, compute in float, quantize the outgoing
state, store floats -- what a lightmamba* model does when it is handed a
float cache.  On the cache it builds for itself (``model.new_cache()``) the
same model runs the *all-integer* iteration:
the recurrent state ``h`` stays resident as INT codes + PoT shift exponents
between steps (the FPGA's on-chip state buffer execution model), and every
per-token requantization is a shift on resident codes instead of a
dequantize / absmax / round pass over float tensors.  The iteration is the
paper's tiled, fused SSMU datapath: the state-sized work is one call into the
compiled tile (``src/repro/quant/ssmu_tile.c``; the record is taken on it, so
the regression gate's floor fails a silent fallback to the numpy tile), one
line of INT8 codes at a time, the small operand of each code-by-code product
pre-aligned so the whole line takes one uniform half-even right shift on its
INT32 accumulator.  No
float tensor is materialized between in-projection and readout (enforced by
the ``repro.analysis`` DT20x lint and its sanction-budget ratchet).  Outputs
are bit-identical to the fake-quant oracle under PoT scaling (scaling
commutes with rounding for power-of-two grids; pinned by
``tests/test_int_state.py``), so the entire difference between the two
series is decode speed -- and, because the oracle streams whole-batch float64
tensors while the integer step stays in cache, the ratio grows with batch.

This benchmark measures pure decode tokens/sec (prefill excluded: the prompt
is summarised once untimed, then a fresh copy of the cache is advanced
``decode_tokens`` steps) for the lightmamba* configurations at paper-scale
SSM dims, one model per bit width timed on a float cache (the oracle) and on
its own integer-resident cache, across batch sizes.  Speedups are ratios
on the same machine, so the committed record is portable and feeds the CI
regression gate (``check_regression.py``).

Run directly::

    PYTHONPATH=src python benchmarks/bench_int_decode.py [--smoke]

or through the benchmark harness
(``pytest benchmarks/bench_int_decode.py``).
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.bench import format_series
from repro.mamba import InitConfig, Mamba2Config, Mamba2Model
from repro.mamba.cache import InferenceCache
from repro.quant import QuantConfig, QuantMethod, native, quantize_model

#: Decode benchmark configuration with the published-scale SSM state dims
#: (d_state 128, headdim 64): the recurrent state is the largest per-step
#: tensor, which is exactly what the resident codes stop re-quantizing.
INT_DECODE_BENCH_CONFIG = Mamba2Config(
    name="int-decode-bench",
    d_model=256,
    n_layer=2,
    vocab_size=512,
    d_state=128,
    headdim=64,
)

#: The quantized configurations under test (the paper's lightmamba* points).
#: The SSM itself is INT8 in both.
QUANT_CONFIGS = (
    ("W8A8", QuantConfig.w8a8(QuantMethod.LIGHTMAMBA_STAR)),
    ("W4A4", QuantConfig.w4a4(QuantMethod.LIGHTMAMBA_STAR)),
)


def _paired_best_step(model, batch_size, decode_tokens, repeats, seed=0):
    """Best per-step decode seconds on a float and on a resident cache.

    The state's type selects the arithmetic, so one model gives both series:
    a float cache runs the fake-quant oracle, ``model.new_cache()`` the
    all-integer iteration.  The prompt batch is prefilled once into each
    cache (untimed), which then advances continuously; the timed region is
    exactly one ``model.step`` call.  The two caches take turns *every step*
    (A, B, A, B, ...), so both sample the same machine conditions at
    millisecond granularity and sustained CPU-frequency / scheduler drift
    divides out of the ratio.  One untimed warmup step per cache precedes
    the clock (allocator and BLAS thread-pool state otherwise bias whichever
    path is measured first).  Returns ``(float_seconds, resident_seconds)``.
    """
    rng = np.random.default_rng(seed)
    prompts = np.stack(
        [rng.integers(0, model.config.vocab_size, size=8) for _ in range(batch_size)]
    )
    lanes = []
    for cache in (InferenceCache.zeros(model.config, batch_size), model.new_cache(batch_size)):
        logits, cache = model.prefill(prompts, cache=cache)
        lanes.append({"tokens": np.argmax(logits, axis=-1), "cache": cache})
    for lane in lanes:  # untimed warmup
        model.step(lane["tokens"], lane["cache"])
    best = [np.inf] * len(lanes)
    for _ in range(repeats * decode_tokens):
        for i, lane in enumerate(lanes):
            start = time.perf_counter()
            logits = model.step(lane["tokens"], lane["cache"])
            best[i] = min(best[i], time.perf_counter() - start)
            lane["tokens"] = np.argmax(logits, axis=-1)
    return best


def bench_int_decode(
    batch_sizes=(1, 4, 8),
    decode_tokens=32,
    config: Mamba2Config = INT_DECODE_BENCH_CONFIG,
    repeats: int = 3,
):
    """Measure fake-quant vs resident integer-state decode tokens/sec.

    Returns a dict with a ``series`` entry per measurement (tokens/sec keyed
    by batch size) and a ``speedup`` entry per quantized configuration
    (resident over fake-quant at equal batch size).
    """
    fp_model = Mamba2Model.from_config(config, InitConfig(seed=0))

    series: dict = {}
    speedup: dict = {}
    for label, quant_config in QUANT_CONFIGS:
        model = quantize_model(fp_model, quant_config)
        fake_tps, persistent_tps = {}, {}
        for batch_size in batch_sizes:
            fake_s, persistent_s = _paired_best_step(
                model, batch_size, decode_tokens, repeats
            )
            # Steady-state decode throughput: batch tokens per best step.
            fake_tps[batch_size] = batch_size / fake_s
            persistent_tps[batch_size] = batch_size / persistent_s
        series[f"decode {label} fake-quant state (tok/s)"] = fake_tps
        series[f"decode {label} persistent int state (tok/s)"] = persistent_tps
        speedup[f"decode {label}"] = {
            b: persistent_tps[b] / fake_tps[b] for b in batch_sizes
        }

    return {
        "config": config.name,
        "decode_tokens": decode_tokens,
        "series": series,
        "speedup": speedup,
    }


def format_results(results) -> str:
    series = dict(results["series"])
    for name, speedups in results["speedup"].items():
        series[f"{name} speedup (x)"] = speedups
    return format_series(
        series,
        x_label="batch",
        title=(
            "Quantized decode: persistent integer state vs fake-quant state "
            f"({results['config']}, {results['decode_tokens']} decode tokens)"
        ),
    )


#: Measurement shape of the CI smoke runs; the committed JSON carries a
#: smoke-shaped ``smoke_speedup`` section so the regression gate compares
#: like-shaped runs.
SMOKE_BATCH_SIZES = (1, 4, 8)
SMOKE_DECODE_TOKENS = 12
SMOKE_REPEATS = 1


def write_json(results, path, smoke_speedup=None) -> None:
    path = Path(path)
    payload = {
        "benchmark": "int_decode",
        "config": results["config"],
        "decode_tokens": results["decode_tokens"],
        # Which SSMU tile the integer series ran on ("compiled" in the
        # committed record; a "numpy: ..." run is several times slower).
        "ssmu_kernel": native.status(),
        "series": {
            name: {str(k): v for k, v in points.items()}
            for name, points in results["series"].items()
        },
        "speedup": {
            name: {str(k): v for k, v in points.items()}
            for name, points in results["speedup"].items()
        },
    }
    if smoke_speedup is not None:
        payload["smoke_speedup"] = {
            name: {str(k): v for k, v in points.items()}
            for name, points in smoke_speedup.items()
        }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def test_int_decode(benchmark, save_output):
    results = benchmark.pedantic(bench_int_decode, rounds=1, iterations=1)
    text = format_results(results)
    save_output("int_decode", text)
    smoke = bench_int_decode(
        batch_sizes=SMOKE_BATCH_SIZES,
        decode_tokens=SMOKE_DECODE_TOKENS,
        repeats=SMOKE_REPEATS,
    )
    write_json(
        results,
        Path(__file__).parent.parent / "BENCH_int_decode.json",
        smoke_speedup=smoke["speedup"],
    )

    # Acceptance bar: the tiled integer step must beat the fake-quant decode
    # at every configuration and batch size, and by more at batch 8 than at
    # batch 1 (the oracle's whole-batch float tensors spill the cache, the
    # integer tile does not).
    for label, _ in QUANT_CONFIGS:
        speedups = results["speedup"][f"decode {label}"]
        assert min(speedups.values()) >= 1.2, results["speedup"]
        assert speedups[8] > speedups[1], results["speedup"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: fewer batches and decode tokens, single repeat",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).parent.parent / "BENCH_int_decode.json",
        help="where to write the JSON record",
    )
    args = parser.parse_args()

    if args.smoke:
        results = bench_int_decode(
            batch_sizes=SMOKE_BATCH_SIZES,
            decode_tokens=SMOKE_DECODE_TOKENS,
            repeats=SMOKE_REPEATS,
        )
        smoke_speedup = results["speedup"]
    else:
        results = bench_int_decode()
        smoke_speedup = bench_int_decode(
            batch_sizes=SMOKE_BATCH_SIZES,
            decode_tokens=SMOKE_DECODE_TOKENS,
            repeats=SMOKE_REPEATS,
        )["speedup"]
    print(format_results(results))
    # Smoke runs keep their artifacts next to their JSON (benchmarks/output/
    # fresh/ in CI) so they never clobber the committed full-run records.
    out_dir = args.output.parent if args.smoke else Path(__file__).parent / "output"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "int_decode.txt").write_text(format_results(results) + "\n")
    args.output.parent.mkdir(parents=True, exist_ok=True)
    write_json(results, args.output, smoke_speedup=smoke_speedup)
    print(f"[saved to {args.output}]")
