"""Deterministic serving load: admission policies, in process and live.

LightMamba's claim is end-to-end serving efficiency -- latency and tokens/s
under real request streams, not single-prompt microbenchmarks.  Its hardware
pipeline overlaps prefill and decode so the SSMU/MMU units never idle; the
serving layer's equivalent knob is the *admission policy* -- which waiting
request gets the next prompt tokens, and how many.  This benchmark drives
the three shipped policies
(:class:`~repro.serving.scheduler.FIFOScheduler`,
:class:`~repro.serving.scheduler.PriorityScheduler`,
:class:`~repro.serving.scheduler.PagedScheduler`) through seeded workloads
from :func:`repro.serving.loadgen.make_traffic` -- Poisson and bursty
arrivals with heavy-tailed prompt/output lengths, priority mixes, admission
deadlines and mid-stream client disconnects, and the ``mix`` of short
high-priority interactive prompts with a tail of long low-priority batch
prompts -- through two drivers:

- **in-process** (``smoke_*`` / ``full_*`` modes): the engine is called
  directly, one workload per policy per arrival shape;
- **live** (``live_smoke`` mode): a real :class:`~repro.serving.server.
  MambaServer` on an ephemeral localhost port, spoken to over raw TCP
  sockets with SSE streaming -- submissions are ``POST /v1/generate`` with
  priority/deadline headers, disconnects are sockets closed mid-stream, and
  the engine advances in lockstep via ``POST /bench/step``.  The live leg
  runs **twice per policy** and fails unless both runs produce bit-identical
  admission/completion traces (the determinism acceptance criterion).

Per mode and policy it reports p50/p99 TTFT, p50/p99 queue wait (engine
iterations), p50/p99 time-per-output-token in *token time* (model tokens the
engine processed between consecutive tokens of a request), finish-reason
counts, trace hashes and total engine steps.  The in-process modes add TTFT
in token time, the short-prompt (interactive) class's TTFT, and
**decode-stall iterations**: iterations that took more than one page of
prompt tokens while rows were decoding (unbounded FIFO admission stalls the
running batch for a whole prompt; the paged ledger bounds it).  All of it is
deterministic given the seed, so the committed ``BENCH_serving_load.json``
(smoke modes beside full ones) is an exact regression baseline:
``tests/test_bench_records.py`` re-runs the smoke modes and compares them
with the record field for field, and checks the committed full modes against
:func:`check_claims`.  Wall-clock throughput belongs to ``benchmarks/e2e``.
Every run is also checked token-for-token against the single-sequence
reference decoders (:func:`~repro.serving.loadgen.verify_against_solo`):
completed requests must match solo decode exactly and disconnected requests
must be exact prefixes, end to end through the wire path.

Re-record directly::

    PYTHONPATH=src python benchmarks/bench_serving_load.py

or through the benchmark harness
(``pytest benchmarks/bench_serving_load.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Sequence

from repro.bench import format_rows
from repro.mamba import InitConfig, Mamba2Model, get_preset
from repro.serving import (
    FIFOScheduler,
    InferenceEngine,
    PagedScheduler,
    PriorityScheduler,
)
from repro.serving.loadgen import (
    STALL_PREFILL_TOKENS,
    HarnessResult,
    LoadItem,
    make_traffic,
    run_inprocess,
    run_live,
    verify_against_solo,
)
from repro.serving.resilience import ManualClock
from repro.serving.server import ServerConfig, serve_in_thread

#: The paged policy's page: the prompt tokens one iteration may take, and
#: the decode-stall threshold every policy is judged against.
PAGE_TOKENS = STALL_PREFILL_TOKENS
MAX_BATCH_SIZE = 4
WORKLOAD_SEED = 0

#: Live-leg repeat count: every live mode runs each policy this many times
#: and requires bit-identical traces across runs.
LIVE_RUNS = 2

#: mode name -> (driver, arrival shape, request count).  The record test
#: replays ``SMOKE_MODES``; the committed record carries them beside
#: ``full_*``.
SMOKE_MODES = {
    "smoke_poisson": ("inprocess", "poisson", 24),
    "smoke_bursty": ("inprocess", "bursty", 24),
    "smoke_mix": ("inprocess", "mix", 12),
    "live_smoke": ("live", "poisson", 12),
}
FULL_MODES = {
    **SMOKE_MODES,
    "full_poisson": ("inprocess", "poisson", 96),
    "full_bursty": ("inprocess", "bursty", 96),
    "full_mix": ("inprocess", "mix", 48),
}

RECORD = Path(__file__).parent.parent / "BENCH_serving_load.json"


def _policies() -> Dict[str, object]:
    return {
        "fifo": FIFOScheduler(),
        "priority": PriorityScheduler(),
        "paged": PagedScheduler(page_tokens=PAGE_TOKENS),
    }


def _verify_solo(
    model: Mamba2Model, items: Sequence[LoadItem], result: HarnessResult, where: str
) -> None:
    mismatches = verify_against_solo(model, items, result.records)
    if mismatches:
        raise RuntimeError(
            f"{where}: {len(mismatches)} request(s) diverged from solo decode: "
            + "; ".join(mismatches[:3])
        )


def _run_live_policy(
    model: Mamba2Model, scheduler_name: str, items: Sequence[LoadItem]
) -> HarnessResult:
    """One live-server run: fresh engine + server on an ephemeral port."""
    engine = InferenceEngine(
        model,
        max_batch_size=MAX_BATCH_SIZE,
        scheduler=_policies()[scheduler_name],
        clock=ManualClock(),
    )
    config = ServerConfig(bench_mode=True, manual_clock_step=1.0)
    with serve_in_thread(engine, config=config) as handle:
        return run_live(handle.host, handle.port, items, max_batch_size=MAX_BATCH_SIZE)


def bench_serving_load(
    modes: Dict[str, tuple], seed: int = WORKLOAD_SEED
) -> Dict[str, object]:
    """Run every policy over every mode; see module docstring for the modes."""
    model = Mamba2Model.from_config(get_preset("mamba2-tiny"), InitConfig(seed=0))
    results: Dict[str, object] = {
        "benchmark": "serving_load",
        "seed": seed,
        "max_batch_size": MAX_BATCH_SIZE,
        "page_tokens": PAGE_TOKENS,
        "live_runs": LIVE_RUNS,
        "modes": {},
    }
    for mode, (driver, arrival, n_requests) in modes.items():
        items = make_traffic(arrival, n_requests, model.config.vocab_size, seed=seed)
        policies: Dict[str, object] = {}
        for name in _policies():
            if driver == "live":
                runs = [_run_live_policy(model, name, items) for _ in range(LIVE_RUNS)]
                hashes = {run.trace_hash for run in runs}
                if len(hashes) != 1:
                    raise RuntimeError(
                        f"{mode}/{name}: live traces diverged across same-seed "
                        f"runs: {sorted(hashes)}"
                    )
                result = runs[0]
            else:
                result = run_inprocess(
                    model, _policies()[name], items, max_batch_size=MAX_BATCH_SIZE
                )
            _verify_solo(model, items, result, f"{mode}/{name}")
            policies[name] = {
                "metrics": result.metrics,
                "trace_hash": result.trace_hash,
                "tokens_per_slot_iteration": result.info["tokens_per_slot_iteration"],
                "finish_reasons": result.info["finish_reasons"],
            }
        results["modes"][mode] = {
            "n_requests": n_requests,
            "driver": driver,
            "arrival": arrival,
            "policies": policies,
        }
    return results


def format_results(results) -> str:
    blocks = []
    for mode, payload in results["modes"].items():
        rows = []
        for policy, entry in payload["policies"].items():
            row = {"policy": policy}
            row.update(entry["metrics"])
            row["tok/slot-iter"] = entry["tokens_per_slot_iteration"]
            rows.append(row)
        blocks.append(
            format_rows(
                rows,
                title=(
                    f"Serving load, {mode} ({payload['driver']} driver, "
                    f"{payload['arrival']} arrivals, {payload['n_requests']} requests, "
                    f"seed {results['seed']}, {results['max_batch_size']} slots)"
                ),
            )
        )
    return "\n\n".join(blocks)


def check_claims(results) -> None:
    """The claims a full-mode record must keep, whatever its numbers."""
    for mode, payload in results["modes"].items():
        policies = payload["policies"]
        for policy, entry in policies.items():
            # Exactly-once: every arrival retires with a terminal reason.
            reasons = entry["finish_reasons"]
            assert sum(reasons.values()) == payload["n_requests"], (mode, policy)
        if payload["arrival"] != "mix":
            # The seeded disconnect mix must actually exercise the cancel path.
            assert any(
                entry["metrics"]["cancelled_count"] > 0 for entry in policies.values()
            ), mode
    full = {
        policy: entry["metrics"]
        for policy, entry in results["modes"]["full_mix"]["policies"].items()
    }
    # The paged ledger bounds per-iteration prompt work to the page, so it
    # never stalls a running decode; unbounded FIFO admission does.
    assert full["paged"]["decode_stall_iterations"] == 0, full["paged"]
    assert full["paged"]["max_prefill_tokens_per_iteration"] <= PAGE_TOKENS, full["paged"]
    assert full["fifo"]["decode_stall_iterations"] > 0, full["fifo"]
    # Priorities front-run the long batch prompts: the short (interactive)
    # class sees no worse tail latency than arrival-order admission.
    assert (
        full["priority"]["ttft_short_p99_iters"] <= full["fifo"]["ttft_short_p99_iters"]
    ), (full["priority"], full["fifo"])


def test_serving_load(benchmark, save_output):
    results = benchmark.pedantic(
        lambda: bench_serving_load(FULL_MODES), rounds=1, iterations=1
    )
    save_output("serving_load", format_results(results))
    RECORD.write_text(json.dumps(results, indent=2) + "\n")
    check_claims(results)

    # Cross-driver parity: the wire path adds no scheduling perturbation --
    # the live server run of a workload matches the in-process run of the
    # same workload on every gated latency metric (engine_steps may differ
    # by trailing drain iterations around a final disconnect).
    model = Mamba2Model.from_config(get_preset("mamba2-tiny"), InitConfig(seed=0))
    live_mode = results["modes"]["live_smoke"]
    items = make_traffic(
        live_mode["arrival"],
        live_mode["n_requests"],
        model.config.vocab_size,
        seed=results["seed"],
    )
    for policy, entry in live_mode["policies"].items():
        reference = run_inprocess(
            model, _policies()[policy], items, max_batch_size=MAX_BATCH_SIZE
        )
        for metric, value in entry["metrics"].items():
            if metric == "engine_steps":
                assert abs(value - reference.metrics[metric]) <= 2, (policy, metric)
            else:
                assert value == reference.metrics[metric], (policy, metric, value)


if __name__ == "__main__":
    results = bench_serving_load(FULL_MODES)
    print(format_results(results))
    RECORD.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[saved to {RECORD}]")
