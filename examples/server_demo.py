#!/usr/bin/env python3
"""Server demo: the asyncio HTTP/SSE front-end, spoken to as any client would.

This example boots the real wire stack from ``repro.serving``:

1. start a ``MambaServer`` on an ephemeral localhost port
   (``serve_in_thread``) and talk to it with the standard library's
   ``http.client``: ``/healthz``, a streaming ``POST /v1/generate`` whose
   Server-Sent Events arrive token-by-token and match single-sequence
   decoding exactly, and a client that hangs up mid-stream (the server turns
   the disconnect into a ``cancel`` and frees the slot);
2. gracefully drain: in-flight requests complete on the wire before the
   listener goes away.

The seeded load harness that drives the same server under generated traffic
is ``benchmarks/bench_serving_load.py``.

Run with:  python examples/server_demo.py
"""

from __future__ import annotations

import http.client
import json
import time

from repro.mamba import InitConfig, Mamba2Model, get_preset, greedy_decode
from repro.serving import InferenceEngine, serve_in_thread


def get_json(host: str, port: int, path: str) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def generate(host: str, port: int, payload: dict) -> http.client.HTTPResponse:
    """``POST /v1/generate``; the response streams Server-Sent Events."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    conn.request(
        "POST", "/v1/generate", body=json.dumps(payload),
        headers={"Content-Type": "application/json"},
    )
    return conn.getresponse()


def events(response: http.client.HTTPResponse):
    """Yield ``(event, data)`` for each Server-Sent Event of a response."""
    event = None
    for line in response:
        line = line.rstrip(b"\r\n")
        if line.startswith(b"event:"):
            event = line[len(b"event:"):].strip().decode("utf-8")
        elif line.startswith(b"data:") and event is not None:
            yield event, json.loads(line[len(b"data:"):])
            event = None


def main() -> None:
    model = Mamba2Model.from_config(get_preset("mamba2-tiny"), InitConfig(seed=0))
    print(f"model: {model.config.name}, {model.num_parameters():,} parameters")

    engine = InferenceEngine(model, max_batch_size=4)
    with serve_in_thread(engine) as handle:
        host, port = handle.host, handle.port
        print(f"\nserver listening on http://{host}:{port}")
        print(f"  /healthz               : {get_json(host, port, '/healthz')}")

        prompt = [3, 1, 4, 1, 5, 9, 2, 6]
        response = generate(host, port, {"prompt": prompt, "max_new_tokens": 10})
        tokens, done = [], None
        for event, data in events(response):
            if event == "token":
                tokens.append(data["token"])
            elif event == "done":
                done = data
                break
        response.close()
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
        response = generate(host, port, {"prompt": prompt, "max_new_tokens": 500})
        got = 0
        for event, _ in events(response):
            got += event == "token"
            if got == 2:
                break
        response.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            stats = get_json(host, port, "/stats")
            if stats["disconnect_cancels"] >= 1:
                break
            time.sleep(0.005)
        print(f"  mid-stream disconnect  : observed as cancel "
              f"(disconnect_cancels={stats['disconnect_cancels']}, "
              f"active_slots={stats['active_slots']})")
        # Context exit drains gracefully: accepted work completes exactly once.


if __name__ == "__main__":
    main()
