"""Seeded traffic-scale load generation for the serving front-end.

One seeded workload, two interchangeable drivers:

- :func:`run_inprocess` drives an :class:`~repro.serving.engine.InferenceEngine`
  directly (no sockets) -- the fastest way to compare scheduler policies
  under load;
- :func:`run_live` drives a live :class:`~repro.serving.server.MambaServer`
  over real localhost TCP sockets, submitting via ``POST /v1/generate``,
  reading SSE token streams, disconnecting mid-stream by closing sockets,
  and advancing the engine in lockstep via ``POST /bench/step``.

:func:`make_traffic` models what "millions of users" looks like in
miniature: Poisson or bursty (Markov-modulated) arrival processes,
heavy-tailed (lognormal) prompt and output lengths, a priority mix, seeded
mid-stream client disconnects, and admission deadlines -- or the ``"mix"``
of short interactive and long batch prompts the admission policies are
judged on.  Everything is derived from one seed, so a given ``(arrival,
n_requests, seed)`` triple is exactly the same workload everywhere.

Determinism is the point: both drivers express time in *engine iterations*
(the live driver holds the engine in bench mode and steps it explicitly, and
deadlines ride an iteration-granular
:class:`~repro.serving.resilience.ManualClock`), so every gated metric --
p50/p99 TTFT, queue wait, time-per-output-token in token time, finish-reason
counts, and for the in-process driver token-time TTFT and decode stalls --
is bit-reproducible across machines.  Wall-clock tokens/sec per slot is
reported as information only.  :func:`verify_against_solo` closes the loop
by checking each request's token stream (including disconnected prefixes)
against the single-sequence reference decoders, end to end through the wire
path.
"""

from __future__ import annotations

import hashlib
import json
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mamba.generation import greedy_decode, sample_decode
from repro.mamba.model import Mamba2Model
from repro.serving.engine import InferenceEngine, Request
from repro.serving.resilience import ManualClock

__all__ = [
    "HarnessResult",
    "LoadItem",
    "RequestRecord",
    "make_traffic",
    "run_inprocess",
    "run_live",
    "verify_against_solo",
]


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
# The "poisson" / "bursty" workload, in engine iterations.  Bursty traffic
# modulates the Poisson process with a two-state phase chain whose burst
# phase multiplies the arrival rate -- the flash-crowd shape.
MEAN_INTERARRIVAL_ITERS = 2.0
BURST_RATE_MULTIPLIER = 6.0
MEAN_PHASE_ITERS = 12.0
# Lognormal (heavy-tailed) prompt and output lengths, clipped to [1, max].
PROMPT_LOG_MEAN, PROMPT_LOG_SIGMA, MAX_PROMPT_TOKENS = 2.4, 0.9, 160
OUTPUT_LOG_MEAN, OUTPUT_LOG_SIGMA, MAX_OUTPUT_TOKENS = 1.9, 0.6, 24
HIGH_PRIORITY_FRACTION, HIGH_PRIORITY = 0.35, 5
SAMPLED_FRACTION, TEMPERATURE, TOP_K = 0.25, 0.8, 32
DISCONNECT_FRACTION = 0.15
DEADLINE_FRACTION, DEADLINE_MIN_ITERS, DEADLINE_MAX_ITERS = 0.1, 6, 48


@dataclass(frozen=True)
class LoadItem:
    """One arrival of the workload, in engine-iteration time.

    ``disconnect_after`` (when set) is the number of streamed tokens after
    which the client hangs up -- strictly less than the request's budget, so
    the disconnect always lands mid-generation.  ``deadline_iters`` is an
    admission deadline relative to submission, in iterations.
    """

    submit_step: int
    request: Request
    priority: int = 0
    deadline_iters: Optional[int] = None
    disconnect_after: Optional[int] = None


def make_traffic(
    arrival: str,
    n_requests: int,
    vocab_size: int,
    seed: int = 0,
) -> List[LoadItem]:
    """Generate one seeded workload; identical for identical arguments.

    ``arrival`` is ``"poisson"``, ``"bursty"`` or ``"mix"`` (see
    :func:`_mix_traffic`).
    """
    if arrival not in ("poisson", "bursty", "mix"):
        raise ValueError(f"unknown arrival process {arrival!r}")
    rng = np.random.default_rng(seed)
    if arrival == "mix":
        return _mix_traffic(rng, n_requests, vocab_size)
    items: List[LoadItem] = []
    t = 0.0
    in_burst = False
    phase_left = float(rng.exponential(MEAN_PHASE_ITERS))
    for _ in range(n_requests):
        rate = 1.0
        if arrival == "bursty":
            if phase_left <= 0.0:
                in_burst = not in_burst
                phase_left = float(rng.exponential(MEAN_PHASE_ITERS))
            if in_burst:
                rate = BURST_RATE_MULTIPLIER
        gap = float(rng.exponential(MEAN_INTERARRIVAL_ITERS / rate))
        t += gap
        phase_left -= gap
        prompt_len = _lognormal_length(rng, PROMPT_LOG_MEAN, PROMPT_LOG_SIGMA, MAX_PROMPT_TOKENS)
        budget = _lognormal_length(rng, OUTPUT_LOG_MEAN, OUTPUT_LOG_SIGMA, MAX_OUTPUT_TOKENS)
        prompt = tuple(int(x) for x in rng.integers(0, vocab_size, size=prompt_len))
        sampled = rng.random() < SAMPLED_FRACTION
        request = Request(
            prompt=prompt,
            max_new_tokens=budget,
            temperature=TEMPERATURE if sampled else None,
            top_k=TOP_K if sampled else None,
            # Explicit seeds keep sampled streams identical no matter which
            # request ids the drivers hand out.
            seed=int(rng.integers(0, 2**31)) if sampled else None,
        )
        priority = HIGH_PRIORITY if rng.random() < HIGH_PRIORITY_FRACTION else 0
        disconnect_after = None
        if budget >= 2 and rng.random() < DISCONNECT_FRACTION:
            disconnect_after = int(rng.integers(1, budget))
        deadline_iters = None
        if rng.random() < DEADLINE_FRACTION:
            deadline_iters = int(rng.integers(DEADLINE_MIN_ITERS, DEADLINE_MAX_ITERS + 1))
        items.append(
            LoadItem(
                submit_step=int(t),
                request=request,
                priority=priority,
                deadline_iters=deadline_iters,
                disconnect_after=disconnect_after,
            )
        )
    return items


def _lognormal_length(
    rng: np.random.Generator, log_mean: float, log_sigma: float, cap: int
) -> int:
    return min(max(round(float(rng.lognormal(log_mean, log_sigma))), 1), cap)


def _mix_traffic(
    rng: np.random.Generator, n_requests: int, vocab_size: int
) -> List[LoadItem]:
    """Mostly short interactive prompts with a tail of long batch ones.

    Three in four requests are interactive: 4-12 prompt tokens, 6-16 new
    tokens, priority 2.  The rest are batch: 96-192 prompt tokens, 3-8 new
    tokens, priority 0.  Arrivals are 0-2 iterations apart.  Every request
    is greedy and runs to completion: no deadlines, no disconnects.
    """
    items: List[LoadItem] = []
    step = 0
    for _ in range(n_requests):
        step += int(rng.integers(0, 3))
        if rng.random() < 0.75:
            size = int(rng.integers(4, 13))
            budget = int(rng.integers(6, 17))
            priority = 2
        else:
            size = int(rng.integers(96, 193))
            budget = int(rng.integers(3, 9))
            priority = 0
        prompt = tuple(int(t) for t in rng.integers(0, vocab_size, size=size))
        items.append(
            LoadItem(
                submit_step=step,
                request=Request(prompt=prompt, max_new_tokens=budget),
                priority=priority,
            )
        )
    return items


# ----------------------------------------------------------------------
# Records and metrics
# ----------------------------------------------------------------------
@dataclass
class RequestRecord:
    """What one request did, in iteration space (driver-independent)."""

    item_index: int
    request_id: int
    finish_reason: str
    submitted_step: int
    admitted_step: Optional[int]
    first_token_step: Optional[int]
    finished_step: Optional[int]
    n_tokens: int
    tokens: Tuple[int, ...]
    queue_wait_iterations: Optional[int]
    ttft_iterations: Optional[int]
    #: token-clock stamps (cumulative prompt+decode tokens the engine had
    #: processed) at this request's first and last generated token
    first_processed: Optional[int] = None
    last_processed: Optional[int] = None


@dataclass
class HarnessResult:
    """One driver run: per-request records plus aggregate metrics.

    ``metrics`` holds only deterministic, lower-is-better iteration-space
    quantities (what the CI gate compares); ``info`` holds everything else,
    including the wall-clock throughput numbers.
    """

    driver: str
    n_requests: int
    records: List[RequestRecord]
    metrics: Dict[str, float]
    info: Dict[str, object]
    trace: List[Tuple] = field(default_factory=list)
    trace_hash: str = ""


#: An iteration that takes more prompt tokens than this while rows are
#: decoding stalls them: a decode stall.
STALL_PREFILL_TOKENS = 64
#: Prompts shorter than this are the short (interactive) latency class.
SHORT_PROMPT_TOKENS = 32


def _pct(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _token_time_metrics(
    items: Sequence[LoadItem],
    records: List[RequestRecord],
    clock: List[int],
    stalling: List[int],
) -> Dict[str, float]:
    """Token-time TTFT, the short class's TTFT and decode stalls.

    ``clock[s]`` is the model tokens (prompt + decode) processed after engine
    step ``s``; ``stalling`` holds the prompt tokens of each step that began
    with rows decoding.  Token time -- the tokens the engine processed
    between two steps -- is the wall-time proxy on hardware where every token
    costs one datapath beat: an iteration count hides a 300-token prompt in
    one iteration, token time does not.
    """
    started = [r for r in records if r.ttft_iterations is not None]
    short = [
        r for r in started
        if len(items[r.item_index].request.prompt) < SHORT_PROMPT_TOKENS
    ]

    def token_time(group: List[RequestRecord]) -> List[int]:
        return [clock[r.first_token_step] - clock[r.submitted_step] for r in group]

    ttft_tokens, short_tokens = token_time(started), token_time(short)
    short_iters = [r.ttft_iterations for r in short]
    return {
        "ttft_p50_tokens": _pct(ttft_tokens, 50),
        "ttft_p99_tokens": _pct(ttft_tokens, 99),
        "ttft_short_p50_iters": _pct(short_iters, 50),
        "ttft_short_p99_iters": _pct(short_iters, 99),
        "ttft_short_p50_tokens": _pct(short_tokens, 50),
        "ttft_short_p99_tokens": _pct(short_tokens, 99),
        "decode_stall_iterations": float(
            sum(prefill > STALL_PREFILL_TOKENS for prefill in stalling)
        ),
        "max_prefill_tokens_per_iteration": float(max(stalling, default=0)),
    }


def _finalize(
    driver: str,
    records: List[RequestRecord],
    *,
    engine_steps: int,
    decoded_tokens: int,
    max_batch_size: int,
    elapsed_s: float,
) -> HarnessResult:
    """Aggregate records into metrics + info."""
    records = sorted(records, key=lambda r: r.item_index)
    ttft = [r.ttft_iterations for r in records if r.ttft_iterations is not None]
    wait = [
        r.queue_wait_iterations
        for r in records
        if r.queue_wait_iterations is not None and r.finish_reason != "cancelled"
    ]
    tpot = [
        (r.last_processed - r.first_processed) / (r.n_tokens - 1)
        for r in records
        if r.n_tokens >= 2
        and r.first_processed is not None
        and r.last_processed is not None
    ]
    reasons: Dict[str, int] = {}
    for r in records:
        reasons[r.finish_reason] = reasons.get(r.finish_reason, 0) + 1
    metrics = {
        "ttft_p50_iters": _pct(ttft, 50),
        "ttft_p99_iters": _pct(ttft, 99),
        "queue_wait_p50_iters": _pct(wait, 50),
        "queue_wait_p99_iters": _pct(wait, 99),
        "tpot_p50_tokens": _pct(tpot, 50),
        "tpot_p99_tokens": _pct(tpot, 99),
        "cancelled_count": float(reasons.get("cancelled", 0)),
        "expired_count": float(reasons.get("expired", 0)),
        "error_count": float(reasons.get("error", 0)),
        "engine_steps": float(engine_steps),
    }
    slot_iters = engine_steps * max_batch_size
    info = {
        "finish_reasons": reasons,
        "decoded_tokens": decoded_tokens,
        "tokens_per_slot_iteration": (
            decoded_tokens / slot_iters if slot_iters else 0.0
        ),
        "wallclock_tokens_per_sec_per_slot": (
            decoded_tokens / elapsed_s / max_batch_size if elapsed_s > 0 else 0.0
        ),
        "wallclock_seconds": elapsed_s,
    }
    trace = [
        (
            r.item_index,
            r.finish_reason,
            r.submitted_step,
            r.admitted_step,
            r.first_token_step,
            r.finished_step,
            list(r.tokens),
        )
        for r in records
    ]
    trace_hash = hashlib.sha256(
        json.dumps(trace, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return HarnessResult(
        driver=driver,
        n_requests=len(records),
        records=records,
        metrics=metrics,
        info=info,
        trace=trace,
        trace_hash=trace_hash,
    )


# ----------------------------------------------------------------------
# In-process driver
# ----------------------------------------------------------------------
def run_inprocess(
    model: Mamba2Model,
    scheduler,
    items: Sequence[LoadItem],
    *,
    max_batch_size: int = 4,
) -> HarnessResult:
    """Serve one workload directly against an engine (no sockets).

    Time is engine iterations throughout: a :class:`ManualClock` advances
    one tick per step, so admission deadlines expire deterministically, and
    client disconnects are modelled as :meth:`InferenceEngine.cancel` calls
    issued from the streaming ``on_token`` callback after the scheduled
    number of tokens -- the exact hang-up point a live SSE client produces.
    After each step the driver reads the step's prompt work off the engine's
    events, for the token-time metrics (:func:`_token_time_metrics`).
    """
    clock = ManualClock()
    engine = InferenceEngine(
        model, max_batch_size=max_batch_size, scheduler=scheduler, clock=clock
    )
    id_to_index: Dict[int, int] = {}
    token_counts: Dict[int, int] = {}
    first_processed: Dict[int, int] = {}
    last_processed: Dict[int, int] = {}
    disconnect_at: Dict[int, int] = {}

    def on_token(request_id: int, token: int, logprob: float) -> None:
        stats = engine.stats
        processed = stats.prefilled_tokens + stats.decoded_tokens
        token_counts[request_id] = token_counts.get(request_id, 0) + 1
        first_processed.setdefault(request_id, processed)
        last_processed[request_id] = processed
        cut = disconnect_at.get(request_id)
        if cut is not None and token_counts[request_id] == cut:
            engine.cancel(request_id)

    completions = []
    token_clock = [0]  # model tokens processed after each step
    stalling: List[int] = []  # prompt tokens of each step begun with rows decoding
    idx = 0
    start = time.perf_counter()
    while idx < len(items) or engine.has_work:
        while idx < len(items) and items[idx].submit_step <= engine.stats.engine_steps:
            item = items[idx]
            request_id = engine.submit(
                item.request,
                priority=item.priority,
                timeout=(
                    float(item.deadline_iters)
                    if item.deadline_iters is not None
                    else None
                ),
            )
            id_to_index[request_id] = idx
            if item.disconnect_after is not None:
                disconnect_at[request_id] = item.disconnect_after
            idx += 1
        decoding = engine.num_active
        completions.extend(engine.step(on_token=on_token))
        clock.advance(1.0)
        token_clock.append(engine.stats.prefilled_tokens + engine.stats.decoded_tokens)
        if decoding:
            stalling.append(
                sum(event.n for event in engine.events.this_step() if event.kind == "prefill")
            )
    elapsed = time.perf_counter() - start

    records = []
    for completion in completions:
        latency = completion.latency
        records.append(
            RequestRecord(
                item_index=id_to_index[completion.request_id],
                request_id=completion.request_id,
                finish_reason=completion.finish_reason,
                submitted_step=latency.submitted_step,
                admitted_step=latency.admitted_step,
                first_token_step=latency.first_token_step,
                finished_step=latency.finished_step,
                n_tokens=len(completion.result.tokens),
                tokens=tuple(completion.result.tokens),
                queue_wait_iterations=latency.queue_wait_iterations,
                ttft_iterations=latency.ttft_iterations,
                first_processed=first_processed.get(completion.request_id),
                last_processed=last_processed.get(completion.request_id),
            )
        )
    if len(records) != len(items):
        raise RuntimeError(
            f"exactly-once violated: {len(records)} completions for {len(items)} requests"
        )
    result = _finalize(
        "inprocess",
        records,
        engine_steps=engine.stats.engine_steps,
        decoded_tokens=engine.stats.decoded_tokens,
        max_batch_size=max_batch_size,
        elapsed_s=elapsed,
    )
    result.metrics.update(_token_time_metrics(items, records, token_clock, stalling))
    return result


# ----------------------------------------------------------------------
# Live driver: a minimal blocking HTTP/SSE client on raw sockets
# ----------------------------------------------------------------------
class _Conn:
    """One blocking HTTP/1.1 connection (connection-per-request protocol)."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.host = host
        self.port = port
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.file = self.sock.makefile("rb")
        self._events = self._event_stream()

    def send(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
        lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.sock.sendall(head + body)

    def read_head(self) -> Tuple[int, Dict[str, str]]:
        status_line = self.file.readline()
        if not status_line:
            raise ConnectionError("server closed the connection before responding")
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = self.file.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    def read_json_body(self, headers: Dict[str, str]) -> dict:
        length = int(headers.get("content-length", "0") or "0")
        body = self.file.read(length) if length else self.file.read()
        return json.loads(body or b"{}")

    def _event_stream(self):
        event_name = None
        data = None
        while True:
            line = self.file.readline()
            if not line:
                return
            line = line.rstrip(b"\r\n")
            if not line:
                if event_name is not None:
                    yield event_name, json.loads(data)
                    event_name, data = None, None
                continue
            if line.startswith(b"event:"):
                event_name = line.split(b":", 1)[1].strip().decode("utf-8")
            elif line.startswith(b"data:"):
                data = line.split(b":", 1)[1].strip()

    def next_event(self) -> Tuple[str, dict]:
        return next(self._events)

    def close(self) -> None:
        for closer in (self.file.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


def _request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[dict] = None,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, dict]:
    conn = _Conn(host, port)
    try:
        conn.send(method, path, payload=payload, headers=headers)
        status, resp_headers = conn.read_head()
        return status, conn.read_json_body(resp_headers)
    finally:
        conn.close()


@dataclass
class _LiveStream:
    """Client-side state of one open SSE generation stream."""

    conn: _Conn
    item_index: int
    request_id: int
    submitted_step: int
    tokens: List[int] = field(default_factory=list)
    first_token_step: Optional[int] = None
    first_processed: Optional[int] = None
    last_processed: Optional[int] = None
    done: Optional[dict] = None


def _request_payload(request: Request) -> dict:
    payload: dict = {
        "prompt": list(request.prompt),
        "max_new_tokens": request.max_new_tokens,
        "stream": True,
    }
    if request.temperature is not None:
        payload["temperature"] = request.temperature
        payload["top_k"] = request.top_k
        payload["seed"] = request.seed
    if request.stop_token is not None:
        payload["stop_token"] = request.stop_token
    return payload


def _pump_stream(stream: _LiveStream, upto_step: int, item: LoadItem) -> str:
    """Read one stream until this step's lockstep marker; returns its state.

    Consumes everything the engine emitted for the stream up to and
    including engine iteration ``upto_step`` (tokens, possibly the terminal
    ``done``), executing the item's scheduled mid-stream disconnect by
    closing the socket the moment the cut token arrives.
    """
    while True:
        try:
            event, data = stream.conn.next_event()
        except StopIteration:
            raise ConnectionError(
                f"stream for item {stream.item_index} ended without a done event"
            ) from None
        if event == "step" and data["step"] >= upto_step:
            return "open"
        if event == "token":
            stream.tokens.append(data["token"])
            if stream.first_token_step is None:
                stream.first_token_step = data["step"]
                stream.first_processed = data["processed_tokens"]
            stream.last_processed = data["processed_tokens"]
            if (
                item.disconnect_after is not None
                and len(stream.tokens) == item.disconnect_after
            ):
                # The mid-stream hang-up: close the socket without reading
                # the rest; the server observes EOF and cancels.
                stream.conn.close()
                return "disconnected"
        elif event == "done":
            stream.done = data
            stream.conn.close()
            return "done"


def _await_counter(
    host: str, port: int, key: str, minimum: int, timeout_s: float = 30.0
) -> None:
    """Poll ``/stats`` until an engine counter reaches ``minimum``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _, stats = _request_json(host, port, "GET", "/stats")
        if stats["engine"][key] >= minimum:
            return
        time.sleep(0.002)
    raise TimeoutError(f"engine counter {key!r} never reached {minimum}")


def run_live(
    host: str,
    port: int,
    items: Sequence[LoadItem],
    *,
    max_batch_size: int = 4,
) -> HarnessResult:
    """Serve one workload against a live server over real sockets.

    The server must be in bench mode (``ServerConfig(bench_mode=True,
    manual_clock_step=1.0)`` with a :class:`ManualClock`-driven engine): the
    driver submits the arrivals scheduled for the current iteration, advances
    the engine exactly one iteration with ``POST /bench/step``, then reads
    every open SSE stream up to that step's lockstep marker.  Scheduled
    disconnects close the raw socket mid-stream and wait (via ``/stats``)
    until the engine has observed the cancellation -- so the admission /
    completion trace is a pure function of the workload seed, despite real
    network I/O.
    """
    records: List[Optional[RequestRecord]] = [None] * len(items)
    open_streams: List[_LiveStream] = []
    expected_cancels = 0
    current_step = 0
    idx = 0
    start = time.perf_counter()
    while True:
        while idx < len(items) and items[idx].submit_step <= current_step:
            item = items[idx]
            conn = _Conn(host, port)
            headers = {"X-Priority": str(item.priority)}
            if item.deadline_iters is not None:
                headers["X-Deadline-S"] = str(float(item.deadline_iters))
            conn.send(
                "POST", "/v1/generate", payload=_request_payload(item.request),
                headers=headers,
            )
            status, _ = conn.read_head()
            if status != 200:
                raise ConnectionError(f"generate returned HTTP {status}")
            event, data = conn.next_event()
            if event != "start":
                raise ConnectionError(f"expected start event, got {event!r}")
            open_streams.append(
                _LiveStream(
                    conn=conn,
                    item_index=idx,
                    request_id=data["request_id"],
                    submitted_step=data["submitted_step"],
                )
            )
            idx += 1
        if idx >= len(items) and not open_streams:
            break
        status, step_resp = _request_json(host, port, "POST", "/bench/step")
        if status != 200:
            raise ConnectionError(f"/bench/step returned HTTP {status}")
        current_step = step_resp["engine_step"]
        still_open: List[_LiveStream] = []
        disconnected: List[_LiveStream] = []
        for stream in open_streams:
            state = _pump_stream(stream, current_step, items[stream.item_index])
            if state == "open":
                still_open.append(stream)
            elif state == "disconnected":
                disconnected.append(stream)
            else:
                records[stream.item_index] = _record_from_done(stream)
        if disconnected:
            expected_cancels += len(disconnected)
            # Lockstep barrier: the next /bench/step must not run until the
            # engine has freed every hung-up slot, or the trace would depend
            # on socket timing.
            _await_counter(host, port, "cancelled", expected_cancels)
            for stream in disconnected:
                records[stream.item_index] = _record_from_disconnect(
                    stream, current_step
                )
        open_streams = still_open
    elapsed = time.perf_counter() - start
    missing = [i for i, r in enumerate(records) if r is None]
    if missing:
        raise RuntimeError(f"exactly-once violated: no terminal record for {missing}")
    _, stats = _request_json(host, port, "GET", "/stats")
    return _finalize(
        "live",
        [r for r in records if r is not None],
        engine_steps=int(stats["engine"]["engine_steps"]),
        decoded_tokens=int(stats["engine"]["decoded_tokens"]),
        max_batch_size=max_batch_size,
        elapsed_s=elapsed,
    )


def _record_from_done(stream: _LiveStream) -> RequestRecord:
    done = stream.done
    latency = done.get("latency") or {}
    return RequestRecord(
        item_index=stream.item_index,
        request_id=stream.request_id,
        finish_reason=done["finish_reason"],
        submitted_step=latency.get("submitted_step", stream.submitted_step),
        admitted_step=latency.get("admitted_step"),
        first_token_step=latency.get("first_token_step"),
        finished_step=latency.get("finished_step"),
        n_tokens=done["n_tokens"],
        tokens=tuple(done["tokens"]),
        queue_wait_iterations=latency.get("queue_wait_iterations"),
        ttft_iterations=latency.get("ttft_iterations"),
        first_processed=stream.first_processed,
        last_processed=stream.last_processed,
    )


def _record_from_disconnect(stream: _LiveStream, cancel_step: int) -> RequestRecord:
    ttft = None
    if stream.first_token_step is not None:
        # Mirrors RequestLatency.ttft_iterations.
        ttft = stream.first_token_step - stream.submitted_step - 1
    return RequestRecord(
        item_index=stream.item_index,
        request_id=stream.request_id,
        finish_reason="cancelled",
        submitted_step=stream.submitted_step,
        admitted_step=None,
        first_token_step=stream.first_token_step,
        finished_step=cancel_step,
        n_tokens=len(stream.tokens),
        tokens=tuple(stream.tokens),
        queue_wait_iterations=None,
        ttft_iterations=ttft,
        first_processed=stream.first_processed,
        last_processed=stream.last_processed,
    )


# ----------------------------------------------------------------------
# End-to-end verification against the single-sequence decoders
# ----------------------------------------------------------------------
def verify_against_solo(
    model: Mamba2Model,
    items: Sequence[LoadItem],
    records: Sequence[RequestRecord],
) -> List[str]:
    """Check every token stream against its solo-decode reference.

    Completed requests must match the single-sequence decoder exactly;
    requests cancelled mid-stream (client disconnects) must be an exact
    *prefix* of it.  Returns human-readable mismatch descriptions (empty ==
    the bit-identical invariant survived the wire path).
    """
    mismatches: List[str] = []
    for record in records:
        if record.n_tokens == 0:
            continue
        request = items[record.item_index].request
        if request.temperature is None:
            reference = greedy_decode(
                model,
                list(request.prompt),
                request.max_new_tokens,
                stop_token=request.stop_token,
            )
        else:
            reference = sample_decode(
                model,
                list(request.prompt),
                request.max_new_tokens,
                temperature=request.temperature,
                top_k=request.top_k,
                seed=request.seed,
                stop_token=request.stop_token,
            )
        expected = list(reference.tokens)
        got = list(record.tokens)
        if record.finish_reason == "cancelled":
            expected = expected[: record.n_tokens]
        if got != expected:
            mismatches.append(
                f"item {record.item_index} ({record.finish_reason}): "
                f"got {got}, expected {expected}"
            )
    return mismatches
