"""Admission scheduling: FIFO vs priority vs paged under a mixed workload.

LightMamba's hardware pipeline overlaps prefill and decode so the SSMU/MMU
units never idle; the serving layer's equivalent knob is the *admission
policy* -- which waiting request gets the next prompt tokens, and how many.
This benchmark drives the three shipped policies
(:class:`~repro.serving.scheduler.FIFOScheduler`,
:class:`~repro.serving.scheduler.PriorityScheduler`,
:class:`~repro.serving.scheduler.PagedScheduler`) through an identical
*seeded* mixed workload -- mostly short high-priority "interactive" prompts
with a tail of long low-priority "batch" prompts arriving over time -- and
measures, per policy:

- **p50 / p99 time-to-first-token**, both in engine iterations and in *token
  time* -- the number of model tokens (prompt + decode) the engine processed
  between submission and the request's first generated token.  Token time is
  the wall-time proxy on hardware where every token costs one datapath beat:
  iteration counts flatter unbounded admission (one iteration may hide a
  300-token prompt), token time does not.  Both are deterministic: they
  depend only on the workload seed and the policy, never the machine;
- **p50 / p99 queue wait** in engine iterations, plus short-request-class
  splits (the latency class interactive serving cares about);
- **decode-stall iterations** -- iterations that charged more than one page of
  prompt tokens while decodes were in flight (an unbounded FIFO admission
  stalls the running batch for the whole prompt; the paged ledger bounds it).

Results are printed as a table and recorded in the repo-root
``BENCH_scheduler.json``, which holds the smoke mode beside the full one.
Because every recorded metric is deterministic, the committed JSON is an
exact regression baseline: ``tests/test_bench_records.py`` re-runs the smoke
mode and compares it with the record field for field.  Wall-clock throughput
belongs to ``benchmarks/e2e``.

Re-record directly::

    PYTHONPATH=src python benchmarks/bench_scheduler.py

or through the benchmark harness
(``pytest benchmarks/bench_scheduler.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.bench import format_rows
from repro.mamba import InitConfig, Mamba2Model, get_preset
from repro.serving import (
    FIFOScheduler,
    InferenceEngine,
    PagedScheduler,
    PriorityScheduler,
    Request,
)

#: Page budget of the paged policy, and the stall threshold all policies are
#: judged against: an iteration that consumes more prompt tokens than this
#: while decodes are in flight counts as a decode stall.
PAGE_TOKENS = 64

#: Prompts shorter than this belong to the "short" (interactive) class.
SHORT_PROMPT_TOKENS = 32

MAX_BATCH_SIZE = 4
WORKLOAD_SEED = 0

#: mode name -> request count.  The record test replays ``SMOKE_MODES``; the
#: committed record carries them beside the full mode.
SMOKE_MODES = {"smoke": 12}
FULL_MODES = {**SMOKE_MODES, "full": 48}

RECORD = Path(__file__).parent.parent / "BENCH_scheduler.json"


@dataclass(frozen=True)
class WorkloadItem:
    """One arrival: submit ``request`` once the engine reaches ``submit_step``."""

    submit_step: int
    request: Request
    priority: int


def make_workload(
    vocab_size: int,
    n_requests: int,
    seed: int = WORKLOAD_SEED,
    short_fraction: float = 0.75,
) -> List[WorkloadItem]:
    """Seeded mixed short/long workload (deterministic for a given seed).

    Short requests model interactive traffic: small prompts (4-12 tokens),
    moderate decode budgets, high priority.  Long requests model batch
    traffic: 96-192 token prompts, small decode budgets, low priority.
    Arrivals are spread over engine iterations with seeded inter-arrival gaps.
    """
    rng = np.random.default_rng(seed)
    items: List[WorkloadItem] = []
    step = 0
    for _ in range(n_requests):
        step += int(rng.integers(0, 3))
        if rng.random() < short_fraction:
            size = int(rng.integers(4, 13))
            budget = int(rng.integers(6, 17))
            priority = 2
        else:
            size = int(rng.integers(96, 193))
            budget = int(rng.integers(3, 9))
            priority = 0
        prompt = tuple(int(t) for t in rng.integers(0, vocab_size, size=size))
        items.append(
            WorkloadItem(
                submit_step=step,
                request=Request(prompt=prompt, max_new_tokens=budget),
                priority=priority,
            )
        )
    return items


def run_policy(
    model: Mamba2Model,
    scheduler,
    workload: Sequence[WorkloadItem],
    max_batch_size: int = MAX_BATCH_SIZE,
    stall_page_tokens: int = PAGE_TOKENS,
) -> Dict[str, object]:
    """Serve one workload under one policy; returns metrics + admission trace.

    Both are iteration-space (machine-independent) quantities.
    """
    engine = InferenceEngine(model, max_batch_size=max_batch_size, scheduler=scheduler)
    idx = 0
    stall_iterations = 0
    max_prefill_per_iteration = 0
    # token_clock[s] = cumulative model tokens (prompt + decode) after step s;
    # differences of it convert engine-step intervals into token time.
    token_clock = [0]
    latency_of = {}
    while idx < len(workload) or engine.has_work:
        while idx < len(workload) and workload[idx].submit_step <= engine.stats.engine_steps:
            engine.submit(workload[idx].request, priority=workload[idx].priority)
            idx += 1
        decoding_before = engine.num_active
        prefilled_before = engine.stats.prefilled_tokens
        for completion in engine.step():
            latency_of[completion.request_id] = completion.latency
        token_clock.append(engine.stats.prefilled_tokens + engine.stats.decoded_tokens)
        prefill_delta = engine.stats.prefilled_tokens - prefilled_before
        if decoding_before > 0:
            max_prefill_per_iteration = max(max_prefill_per_iteration, prefill_delta)
            if prefill_delta > stall_page_tokens:
                stall_iterations += 1

    latencies = [latency_of[item_id] for item_id in range(len(workload))]
    short = [
        lat
        for lat, item in zip(latencies, workload)
        if len(item.request.prompt) < SHORT_PROMPT_TOKENS
    ]

    def pct(values: List[int], q: float) -> float:
        return float(np.percentile(np.asarray(values, dtype=np.float64), q))

    def token_time(lat) -> int:
        return token_clock[lat.first_token_step] - token_clock[lat.submitted_step]

    ttft = [lat.ttft_iterations for lat in latencies]
    wait = [lat.queue_wait_iterations for lat in latencies]
    ttft_short = [lat.ttft_iterations for lat in short]
    ttft_tok = [token_time(lat) for lat in latencies]
    ttft_tok_short = [token_time(lat) for lat in short]
    metrics = {
        "ttft_p50_iters": pct(ttft, 50),
        "ttft_p99_iters": pct(ttft, 99),
        "ttft_short_p50_iters": pct(ttft_short, 50),
        "ttft_short_p99_iters": pct(ttft_short, 99),
        "ttft_p50_tokens": pct(ttft_tok, 50),
        "ttft_p99_tokens": pct(ttft_tok, 99),
        "ttft_short_p50_tokens": pct(ttft_tok_short, 50),
        "ttft_short_p99_tokens": pct(ttft_tok_short, 99),
        "queue_wait_p50_iters": pct(wait, 50),
        "queue_wait_p99_iters": pct(wait, 99),
        "decode_stall_iterations": stall_iterations,
        "max_prefill_tokens_per_iteration": max_prefill_per_iteration,
        "engine_steps": engine.stats.engine_steps,
    }
    return {
        "metrics": metrics,
        "admission_trace": [
            (lat.request_id, lat.admitted_step, lat.first_token_step)
            for lat in latencies
        ],
    }


def _policies() -> Dict[str, object]:
    return {
        "fifo": FIFOScheduler(),
        "priority": PriorityScheduler(),
        "paged": PagedScheduler(page_tokens=PAGE_TOKENS),
    }


def bench_scheduler(modes: Dict[str, int], seed: int = WORKLOAD_SEED) -> Dict[str, object]:
    """Run every policy over every mode's workload size.

    ``modes`` maps a mode name to its request count (``SMOKE_MODES``,
    ``FULL_MODES``).
    """
    model = Mamba2Model.from_config(get_preset("mamba2-tiny"), InitConfig(seed=0))
    results: Dict[str, object] = {
        "benchmark": "scheduler",
        "seed": seed,
        "max_batch_size": MAX_BATCH_SIZE,
        "page_tokens": PAGE_TOKENS,
        "short_prompt_tokens": SHORT_PROMPT_TOKENS,
        "modes": {},
    }
    for mode, n_requests in modes.items():
        workload = make_workload(model.config.vocab_size, n_requests, seed=seed)
        policies = {
            name: {"metrics": run_policy(model, scheduler, workload)["metrics"]}
            for name, scheduler in _policies().items()
        }
        results["modes"][mode] = {"n_requests": n_requests, "policies": policies}
    return results


def format_results(results) -> str:
    blocks = []
    for mode, payload in results["modes"].items():
        rows = []
        for policy, entry in payload["policies"].items():
            row = {"policy": policy}
            row.update(entry["metrics"])
            rows.append(row)
        blocks.append(
            format_rows(
                rows,
                title=(
                    f"Scheduler policies, {mode} workload "
                    f"({payload['n_requests']} requests, seed {results['seed']}, "
                    f"page {results['page_tokens']} tokens, "
                    f"{results['max_batch_size']} slots)"
                ),
            )
        )
    return "\n\n".join(blocks)


def test_scheduler_policies(benchmark, save_output):
    results = benchmark.pedantic(
        lambda: bench_scheduler(FULL_MODES), rounds=1, iterations=1
    )
    save_output("scheduler_policies", format_results(results))
    RECORD.write_text(json.dumps(results, indent=2) + "\n")

    full = results["modes"]["full"]["policies"]
    # The paged ledger bounds per-iteration prompt work to the page, so it
    # never stalls a running decode; unbounded FIFO admission does.
    assert full["paged"]["metrics"]["decode_stall_iterations"] == 0
    assert full["paged"]["metrics"]["max_prefill_tokens_per_iteration"] <= PAGE_TOKENS
    assert full["fifo"]["metrics"]["decode_stall_iterations"] > 0
    # Priorities front-run the long batch prompts: the short (interactive)
    # class sees no worse tail latency than arrival-order admission.
    assert (
        full["priority"]["metrics"]["ttft_short_p99_iters"]
        <= full["fifo"]["metrics"]["ttft_short_p99_iters"]
    )


if __name__ == "__main__":
    results = bench_scheduler(FULL_MODES)
    print(format_results(results))
    RECORD.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[saved to {RECORD}]")
