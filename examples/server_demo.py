#!/usr/bin/env python3
"""Server demo: the asyncio HTTP/SSE front-end under generated traffic.

This example boots the real wire stack from ``repro.serving``:

1. start a ``MambaServer`` on an ephemeral localhost port
   (``serve_in_thread``) and talk to it like any HTTP client: ``/healthz``,
   a streaming ``POST /v1/generate`` whose Server-Sent Events arrive
   token-by-token and match single-sequence decoding exactly, and a client
   that hangs up mid-stream (the server turns the disconnect into a
   ``cancel`` and frees the slot);
2. run the seeded load harness (``repro.serving.loadgen``) against the live
   server over real sockets -- Poisson arrivals, heavy-tailed lengths,
   priority mixes, deadlines and mid-stream disconnects -- and print the
   deterministic latency report (p50/p99 TTFT, queue wait,
   time-per-output-token) plus the ``/stats`` counter surface;
3. gracefully drain: in-flight requests complete on the wire before the
   listener goes away.

Run with:  python examples/server_demo.py
"""

from __future__ import annotations

import time

from repro.mamba import InitConfig, Mamba2Model, get_preset, greedy_decode
from repro.serving import (
    FIFOScheduler,
    InferenceEngine,
    ManualClock,
    ServerConfig,
    make_traffic,
    run_live,
    serve_in_thread,
    verify_against_solo,
)
from repro.serving.loadgen import _Conn, _request_json


def main() -> None:
    model = Mamba2Model.from_config(get_preset("mamba2-tiny"), InitConfig(seed=0))
    print(f"model: {model.config.name}, {model.num_parameters():,} parameters")

    # ------------------------------------------------------------------
    # 1. A live server, one streaming request, one mid-stream hang-up.
    # ------------------------------------------------------------------
    engine = InferenceEngine(model, max_batch_size=4)
    with serve_in_thread(engine) as handle:
        host, port = handle.host, handle.port
        print(f"\nserver listening on http://{host}:{port}")
        _, health = _request_json(host, port, "GET", "/healthz")
        print(f"  /healthz               : {health}")

        prompt = [3, 1, 4, 1, 5, 9, 2, 6]
        conn = _Conn(host, port)
        conn.send(
            "POST", "/v1/generate",
            payload={"prompt": prompt, "max_new_tokens": 10},
        )
        conn.read_head()
        tokens, done = [], None
        while done is None:
            event, data = conn.next_event()
            if event == "token":
                tokens.append(data["token"])
            elif event == "done":
                done = data
        conn.close()
        reference = greedy_decode(model, prompt, 10)
        match = "matches" if tokens == list(reference.tokens) else "MISMATCH vs"
        print(f"  streamed generate      : {len(tokens)} tokens over SSE, "
              f"{match} single-sequence decode")
        lat = done["latency"]
        print(f"  finish/latency         : {done['finish_reason']}; "
              f"ttft {lat['ttft_iterations']} iters, "
              f"{lat['decode_iterations']} decode iters")

        # A client that goes away mid-generation: close the socket after two
        # tokens; the server cancels the request and frees the slot.
        conn = _Conn(host, port)
        conn.send(
            "POST", "/v1/generate",
            payload={"prompt": prompt, "max_new_tokens": 500},
        )
        conn.read_head()
        got = 0
        while got < 2:
            event, data = conn.next_event()
            got += event == "token"
        conn.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            _, stats = _request_json(host, port, "GET", "/stats")
            if stats["disconnect_cancels"] >= 1:
                break
            time.sleep(0.005)
        print(f"  mid-stream disconnect  : observed as cancel "
              f"(disconnect_cancels={stats['disconnect_cancels']}, "
              f"active_slots={stats['active_slots']})")
        # Context exit drains gracefully: accepted work completes exactly once.

    # ------------------------------------------------------------------
    # 2. The load harness against a live server, in lockstep bench mode.
    # ------------------------------------------------------------------
    items = make_traffic("poisson", 16, model.config.vocab_size, seed=0)
    engine = InferenceEngine(
        model, max_batch_size=4, scheduler=FIFOScheduler(), clock=ManualClock()
    )
    config = ServerConfig(bench_mode=True, manual_clock_step=1.0)
    with serve_in_thread(engine, config=config) as handle:
        result = run_live(handle.host, handle.port, items)
        _, stats = _request_json(handle.host, handle.port, "GET", "/stats")
    mismatches = verify_against_solo(model, items, result.records)
    print(f"\nload harness, live driver ({len(items)} seeded requests over "
          f"real sockets):")
    print(f"  trace hash             : {result.trace_hash} "
          f"(same seed -> same hash, any machine)")
    for key in ("ttft_p50_iters", "ttft_p99_iters", "queue_wait_p99_iters",
                "tpot_p50_tokens", "cancelled_count", "engine_steps"):
        print(f"  {key:22s} : {result.metrics[key]:g}")
    print(f"  tokens/slot-iteration  : "
          f"{result.info['tokens_per_slot_iteration']:.3f}")
    print(f"  finish reasons         : {result.info['finish_reasons']}")
    print(f"  solo-decode check      : "
          f"{'all requests bit-identical' if not mismatches else mismatches}")
    print(f"  server counters        : accepted={stats['requests_accepted']}, "
          f"disconnect_cancels={stats['disconnect_cancels']}, "
          f"open_streams={stats['open_streams']}")


if __name__ == "__main__":
    main()
