"""The four workloads and their seeded request scripts.

A script is an endless, deterministic sequence of request specs derived from
``(workload, seed, stream)``; the program under test only ever sees the
generated prompts.  Timed runs consume a script until ``--seconds`` elapse;
traced runs consume a fixed prefix (``trace_requests``) so their counts repeat
exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Tuple

#: Token ids are drawn from ``[1, VOCAB_SIZE)``; ``target.CONFIG`` is built on it.
VOCAB_SIZE = 512

#: A request spec is a plain dict (it crosses the process boundary as JSON):
#: ``id``, ``cls``, ``prompt``, ``max_new_tokens``, ``stream`` and, when
#: sampled, ``temperature``, ``top_k``, ``seed``.
Spec = Dict[str, Any]


@dataclass(frozen=True)
class RequestClass:
    prompt_len: Tuple[int, int]   # uniform, inclusive
    new_tokens: Tuple[int, int]   # uniform, inclusive
    stream: bool = True           # SSE (wire only)
    sampled_share: float = 0.0    # rest greedy
    think_s: float = 0.0          # wire only: uniform [0, think_s) pause before sending


CLASSES: Dict[str, RequestClass] = {
    # Interactive turn: short prompt, streamed reply, a quarter sampled.  Reply
    # lengths differ so the two closed-loop clients do not phase-lock (equal
    # lengths make both finish in one engine step and resubmit together, and
    # TTFT then flips between an idle-engine and a busy-engine mode).
    "chat": RequestClass((16, 48), (24, 40), stream=True, sampled_share=0.25, think_s=0.05),
    # Long document with a short non-streamed answer: one whole-prompt
    # prefill that stalls whoever else is decoding.
    "long": RequestClass((384, 640), (4, 4), stream=False, think_s=0.05),
    # Offline generation: output lengths differ so slots free at different
    # iterations and partial batches (cache gather/scatter) occur.
    "offline": RequestClass((16, 48), (24, 40)),
    # Prefill only: the second token costs one decode step.
    "prefill": RequestClass((384, 640), (2, 2)),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                          # "wire": live server + socket clients; "engine": in-process
    slots: int                         # engine batch slots
    callers: int                       # closed-loop callers (client threads / in-process)
    mix: Tuple[Tuple[str, float], ...]  # (request class, share)
    latency_class: str                 # latency metrics are over this class
    trace_requests: int                # fixed request count of a traced pass
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "wire_chat", "wire", slots=4, callers=2, mix=(("chat", 1.0),),
            latency_class="chat", trace_requests=16,
            why="interactive streaming over the socket: batch 1-2 decode and SSE delivery "
                "dominate, prefill is small; a batch-8 change should not show here",
        ),
        Workload(
            "wire_mixed", "wire", slots=4, callers=2, mix=(("chat", 0.7), ("long", 0.3)),
            latency_class="chat", trace_requests=20,
            why="same server, 30% long non-streamed prompts: a whole-prompt prefill stalls the "
                "other stream's decode, so prefill and admission changes show in ttft_ms_mean "
                "and tpot_ms_p50",
        ),
        Workload(
            "engine_offline_b8", "engine", slots=8, callers=8, mix=(("offline", 1.0),),
            latency_class="offline", trace_requests=16,
            why="in-process engine kept at 8 rows: batched integer decode and cache "
                "gather/scatter do the work, the wire none; where batch scaling shows",
        ),
        Workload(
            "engine_prefill_long", "engine", slots=4, callers=4, mix=(("prefill", 1.0),),
            latency_class="prefill", trace_requests=32,
            why="in-process engine, long prompts and 2 new tokens: prefill is >90% of the work, "
                "so a decode or server optimisation predicts no change here",
        ),
    )
}

#: The small wire script a traced ``engine_*`` run plays after its workload so
#: that the ``server.*`` layer metrics are measured, not reported as zero.
SERVER_PROBE = Workload(
    "server_probe", "wire", slots=4, callers=2, mix=(("chat", 1.0),),
    latency_class="chat", trace_requests=6,
    why="server.* layer metrics on workloads that bypass the wire",
)


def script(workload: Workload, seed: int, stream: int = 0) -> Iterator[Spec]:
    """Endless request specs for one caller's stream of ``workload``."""
    rng = random.Random(f"{workload.name}/{seed}/{stream}")
    # The mix is dealt in shuffled blocks of ten, so every window of a run
    # holds the declared shares and only the order depends on the seed.
    block = [name for name, share in workload.mix for _ in range(round(share * 10))]
    index = 0
    while True:
        if index % len(block) == 0:
            rng.shuffle(block)
        name = block[index % len(block)]
        cls = CLASSES[name]
        spec: Spec = {
            "id": f"{stream}.{index}",
            "cls": name,
            "prompt": [
                rng.randrange(1, VOCAB_SIZE)
                for _ in range(rng.randint(*cls.prompt_len))
            ],
            "max_new_tokens": rng.randint(*cls.new_tokens),
            "stream": cls.stream,
            "think_s": rng.uniform(0.0, cls.think_s),
        }
        if rng.random() < cls.sampled_share:
            spec.update(temperature=0.8, top_k=32, seed=rng.randrange(2**31))
        yield spec
        index += 1
