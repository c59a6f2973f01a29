"""Metrics computed from request records (pure functions over plain dicts).

A record carries client-clock times in seconds since the pass began:
``written`` (wire) or ``submit`` (in-process) when the request left the
caller, one entry of ``times`` per token received, ``done``.  Requests
answered without streaming have no token times and contribute to throughput
at their ``done`` time only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from benchmarks.e2e.stats import median, tail

Metric = Tuple[float, str, Any]   # value, unit, sample count (None = counted or computed)
Record = Dict[str, Any]

#: Consecutive tokens of one request come from different engine steps, so a
#: gap shorter than this between them is delivery in a burst, not generation.
BURST_GAP_S = 1e-3


def _sent_at(record: Record) -> float:
    return record["written"] if "written" in record else record["submit"]


def token_gaps(records: Sequence[Record]) -> List[Tuple[float, bool]]:
    """Pooled inter-token gaps ``(seconds, engine step stamps differ)``."""
    gaps = []
    for record in records:
        times, steps = record["times"], record.get("steps")
        for i in range(1, len(times)):
            differ = steps is None or steps[i] != steps[i - 1]
            gaps.append((times[i] - times[i - 1], differ))
    return gaps


def end_to_end(
    records: Sequence[Record], specs: Dict[str, Dict[str, Any]], latency_class: str,
    opens_s: float, window_s: float,
) -> Tuple[Dict[str, Metric], str]:
    """The latency and throughput metrics of one untraced timed pass, and a note.

    The window is ``[opens_s, opens_s + window_s]`` on the pass's clock; what
    ran before it is warm-up.  Throughput counts what was delivered inside the
    window; latency is over successful ``latency_class`` requests handed over
    inside it that delivered token times.
    """
    closes_s = opens_s + window_s
    good = [r for r in records if "error" not in r]
    timed = [
        r for r in good
        if specs[r["id"]]["cls"] == latency_class and r["times"]
        and opens_s <= _sent_at(r) < closes_s
    ]
    ttft_ms = [(r["times"][0] - _sent_at(r)) * 1e3 for r in timed]
    tpot_ms = [
        (r["times"][-1] - r["times"][0]) * 1e3 / (len(r["times"]) - 1)
        for r in timed
        if len(r["times"]) > 1
    ]
    gaps_ms = [gap * 1e3 for gap, _ in token_gaps(timed)]
    pauses_ms = [gap for gap in gaps_ms if gap >= BURST_GAP_S * 1e3]
    if not pauses_ms:
        raise RuntimeError(f"no {latency_class!r} request delivered tokens inside the window")
    out_tokens = prompt_tokens = 0
    for r in good:
        if r["times"]:
            out_tokens += sum(1 for t in r["times"] if opens_s < t <= closes_s)
            first = r["times"][0]
        else:
            out_tokens += len(r["tokens"]) if opens_s < r["done"] <= closes_s else 0
            first = r["done"]
        if opens_s < first <= closes_s:
            prompt_tokens += len(specs[r["id"]]["prompt"])
    return {
        "ttft_ms_mean": (sum(ttft_ms) / len(ttft_ms), "ms", len(ttft_ms)),
        "tpot_ms_p50": (median(tpot_ms), "ms", len(tpot_ms)),
        "burst_gap_ms_mean": (sum(pauses_ms) / len(pauses_ms), "ms", len(pauses_ms)),
        "out_tok_per_s": (out_tokens / window_s, "tok/s", out_tokens),
        "prompt_tok_per_s": (prompt_tokens / window_s, "tok/s", prompt_tokens),
    }, _higher_tails(ttft_ms, gaps_ms)


def _higher_tails(ttft_ms: Sequence[float], gaps_ms: Sequence[float]) -> str:
    """Informational line: the tails the sample supports but the gate does not use.

    On this server both distributions are multi-modal (event-loop turns, one
    or two prefills per step), so a high percentile sits between two modes in
    some runs and inside one in others; it is printed, not bounded.
    """
    parts = []
    for label, values, wanted in (("ttft", ttft_ms, (50, 75, 90)), ("itl", gaps_ms, (50, 90, 99))):
        for p in wanted:
            value, used = tail(values, p)
            parts.append(f"{label} p{used:.4g} {value:.1f} ms")
    return "informational percentiles (>=10 samples beyond each): " + ", ".join(parts)


def engine_counts(stats: Dict[str, Any], records: Sequence[Record]) -> Dict[str, Metric]:
    """``EngineStats`` counters of one pass plus the queue wait from the completions."""
    waits = [r["queue_wait_iters"] for r in records if r.get("queue_wait_iters") is not None]
    calls = stats["decode_calls"]
    return {
        "engine.steps": (stats["engine_steps"], "count", None),
        "engine.decode_calls": (calls, "count", None),
        "engine.batch_rows_mean": (
            stats["decode_call_rows"] / calls if calls else 0.0, "rows", calls
        ),
        "engine.prefill_calls": (stats["prefill_calls"], "count", None),
        "engine.prefilled_tokens": (stats["prefilled_tokens"], "count", None),
        "engine.decoded_tokens": (stats["decoded_tokens"], "count", None),
        "engine.queue_wait_iters_p50": (median(waits) if waits else 0.0, "iters", len(waits)),
    }


def server_layer(
    records: Sequence[Record], health_s: Sequence[float], stats: Dict[str, Any]
) -> Dict[str, Metric]:
    """The ``server.*`` layer metrics from one wire pass and its ``/stats`` snapshot."""
    streamed = [r for r in records if "error" not in r and r["times"] and "start" in r]
    gaps = token_gaps(streamed)
    gaps_ms = [gap * 1e3 for gap, _ in gaps]
    bursts = sum(1 for gap, differ in gaps if gap < BURST_GAP_S and differ)
    connect_ms = [(r["start"] - r["begin"]) * 1e3 for r in streamed]
    done_lag_ms = [(r["done"] - r["times"][-1]) * 1e3 for r in streamed]
    health_ms = [h * 1e3 for h in health_s]
    return {
        "server.itl_ms_p50": (median(gaps_ms), "ms", len(gaps_ms)),
        "server.stream_burst_share": (bursts / len(gaps), "share", len(gaps)),
        "server.connect_ms_p50": (median(connect_ms), "ms", len(connect_ms)),
        "server.done_lag_ms_p50": (median(done_lag_ms), "ms", len(done_lag_ms)),
        "server.healthz_ms_p50": (median(health_ms), "ms", len(health_ms)),
        "server.requests_accepted": (stats["requests_accepted"], "count", None),
        "server.requests_rejected": (stats["requests_rejected"], "count", None),
        "server.disconnect_cancels": (stats["disconnect_cancels"], "count", None),
    }


def delivered_tokens(records: Sequence[Record]) -> int:
    return sum(len(r.get("tokens", ())) for r in records)
