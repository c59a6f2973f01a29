#!/usr/bin/env python3
"""Serving demo: batched generation, continuous batching, and scheduling.

This example exercises the ``repro.serving`` subsystem:

1. decode a fixed batch of ragged prompts in one shot -- an
   ``InferenceEngine`` with one slot per request -- greedy and sampled, and
   verify the results are identical to per-request single-sequence decoding;
2. serve a stream of requests through the continuous-batching
   ``InferenceEngine`` with fewer batch slots than requests, streaming the
   first request's tokens as they are generated and showing the batching
   efficiency counters plus per-request latency records;
3. contrast the admission policies: priorities (a late urgent request
   front-runs the queue), a paged token-budget ledger (a long prompt cannot
   stall in-flight decodes by more than one page), cancellation, and
   deadlines;
4. compare wall-clock throughput of the batched path against looping the
   single-sequence decoder.

Run with:  python examples/serving_demo.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.mamba import InitConfig, Mamba2Model, get_preset, greedy_decode
from repro.serving import (
    InferenceEngine,
    PagedScheduler,
    PriorityScheduler,
    Request,
)


#: The token id that ends a generation early in the demo's greedy requests.
EOS = 1


def ids(length: int, seed: int) -> tuple:
    """A prompt of ``length`` token ids, drawn per ``seed``."""
    return tuple(int(t) for t in np.random.default_rng(seed).integers(3, 512, size=length))


def main() -> None:
    config = get_preset("mamba2-tiny")
    model = Mamba2Model.from_config(config, InitConfig(seed=0))
    print(f"model: {config.name}, {model.num_parameters():,} parameters")

    # ------------------------------------------------------------------
    # 1. Batched generation over ragged prompts.
    # ------------------------------------------------------------------
    prompts = [ids(length, seed) for seed, length in enumerate((11, 19, 14, 6))]

    def decode_batch(requests):
        """One fixed batch: an engine with a slot per request, drained."""
        done = InferenceEngine(model, max_batch_size=len(requests)).run(requests)
        return [completion.result for completion in done]

    results = decode_batch(
        [Request(prompt=p, max_new_tokens=12, stop_token=EOS) for p in prompts]
    )
    print("\nbatched greedy generation:")
    for i, (prompt, result) in enumerate(zip(prompts, results)):
        solo = greedy_decode(model, prompt, 12, stop_token=EOS)
        match = "matches" if solo.tokens == result.tokens else "MISMATCH vs"
        print(f"  prompt {i} ({len(prompt):2d} ids) -> {list(result.tokens)}  "
              f"({match} single-sequence decode)")

    sampled = decode_batch(
        [
            Request(prompt=p, max_new_tokens=12, temperature=0.9, top_k=32, seed=seed)
            for p, seed in zip(prompts, (7, 8, 9, 10))
        ]
    )
    print("\nbatched sampling (temperature 0.9, exact top-32, per-request seeds):")
    for i, result in enumerate(sampled):
        print(f"  prompt {i} -> {list(result.tokens)} "
              f"(mean logprob {np.mean(result.logprobs):.2f})")

    # ------------------------------------------------------------------
    # 2. Continuous batching: 8 requests through 3 slots, streamed.
    # ------------------------------------------------------------------
    engine = InferenceEngine(model, max_batch_size=3)
    rng = np.random.default_rng(0)
    for i in range(8):
        engine.submit(
            Request(prompt=ids(10 + i, 100 + i), max_new_tokens=int(rng.integers(4, 14)))
        )
    streamed = []
    completions = engine.run(
        on_token=lambda rid, tok, lp: streamed.append(tok) if rid == 0 else None
    )
    stats = engine.stats
    print(f"\ncontinuous batching: {stats.completed} requests through "
          f"{engine.max_batch_size} slots in {stats.engine_steps} engine steps")
    print(f"  decode calls           : {stats.decode_calls}")
    print(f"  tokens per decode call : {stats.tokens_per_decode_call:.2f} "
          f"(batching efficiency)")
    print(f"  request 0 streamed     : {streamed} "
          f"(token-by-token, via on_token)")
    for completion in completions[:3]:
        lat = completion.latency
        print(f"  request {completion.request_id}: "
              f"{list(completion.result.tokens)} "
              f"[{completion.finish_reason}; waited {lat.queue_wait_iterations} iters, "
              f"ttft {lat.ttft_iterations} iters, {lat.decode_iterations} decode iters]")

    # ------------------------------------------------------------------
    # 3. Admission policies: priority, paged budget, cancel, deadline.
    # ------------------------------------------------------------------
    print("\npriority scheduling (1 slot, urgent request front-runs the queue):")
    engine = InferenceEngine(model, max_batch_size=1, scheduler=PriorityScheduler())
    running = engine.submit(Request(prompt=ids(8, 200), max_new_tokens=6))
    engine.step()
    batch_id = engine.submit(Request(prompt=ids(10, 201), max_new_tokens=4), priority=0)
    urgent_id = engine.submit(Request(prompt=ids(7, 202), max_new_tokens=4), priority=10)
    latency = {c.request_id: c.latency for c in engine.run()}
    order = sorted((running, batch_id, urgent_id),
                   key=lambda rid: latency[rid].first_token_step)
    names = {running: "running", batch_id: "batch(prio 0)", urgent_id: "urgent(prio 10)"}
    print("  first-token order      : " + " -> ".join(names[rid] for rid in order))

    print("\npaged admission (page = 16 tokens: a 160-token prompt cannot stall decodes):")
    engine = InferenceEngine(model, max_batch_size=2,
                             scheduler=PagedScheduler(page_tokens=16))
    engine.submit(Request(prompt=ids(12, 300), max_new_tokens=12))
    engine.step()
    long_prompt = ids(160, 301)
    engine.submit(Request(prompt=long_prompt, max_new_tokens=2))
    max_prefill_per_step = 0
    while engine.has_work:
        before = engine.stats.prefilled_tokens
        engine.step()
        max_prefill_per_step = max(
            max_prefill_per_step, engine.stats.prefilled_tokens - before
        )
    print(f"  longest prompt chunk in one iteration: {max_prefill_per_step} tokens "
          f"(bounded by the page)")

    print("\ncancellation and deadlines:")
    engine = InferenceEngine(model, max_batch_size=1)
    busy = engine.submit(Request(prompt=ids(5, 400), max_new_tokens=10))
    engine.step()
    doomed = engine.submit(Request(prompt=ids(11, 401), max_new_tokens=5), timeout=0.0)
    unwanted = engine.submit(Request(prompt=ids(10, 402), max_new_tokens=5))
    engine.cancel(unwanted)
    done = {c.request_id: c.finish_reason for c in engine.run()}
    print(f"  busy request           : {done[busy]}")
    print(f"  zero-timeout request   : {done[doomed]}")
    print(f"  cancelled request      : {done[unwanted]}")

    # ------------------------------------------------------------------
    # 4. Throughput: batched vs looping the single-sequence decoder.
    # ------------------------------------------------------------------
    bench_prompts = [ids(13, 500 + i) for i in range(8)]
    start = time.perf_counter()
    for prompt in bench_prompts:
        greedy_decode(model, prompt, 32)
    seq_time = time.perf_counter() - start
    start = time.perf_counter()
    decode_batch([Request(prompt=tuple(p), max_new_tokens=32) for p in bench_prompts])
    batch_time = time.perf_counter() - start
    total = 8 * 32
    print(f"\nthroughput (8 requests x 32 tokens):")
    print(f"  sequential loop : {total / seq_time:8.0f} tokens/s")
    print(f"  batched         : {total / batch_time:8.0f} tokens/s "
          f"({seq_time / batch_time:.1f}x)")


if __name__ == "__main__":
    main()
