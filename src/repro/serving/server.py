"""Asyncio HTTP + SSE serving front-end for the continuous-batching engine.

:class:`MambaServer` turns the :class:`~repro.serving.engine.InferenceEngine`
into an actual network service using nothing but stdlib ``asyncio`` streams --
no web framework, no new dependencies.  Connections speak a small HTTP/1.1
subset; generation responses stream tokens as Server-Sent Events (SSE) the
moment the engine selects them, riding the engine's existing ``on_token``
hook.  The wire protocol is documented in ``src/repro/serving/README.md``.

Endpoints
---------
``POST /v1/generate``
    JSON body ``{"prompt": [ids], "max_new_tokens": n, ...}``.  With
    ``"stream": true`` (the default) the response is an SSE stream:
    ``start`` -> ``token``* -> ``done``; otherwise a single JSON object once
    the request finishes.  ``X-Priority`` and ``X-Deadline-S`` headers (or
    the equivalent body fields) map onto :meth:`InferenceEngine.submit`'s
    ``priority`` / ``timeout``.
``POST /v1/cancel/<id>``
    Explicit cancellation; the request's stream (if any) receives its
    ``done`` event with ``finish_reason="cancelled"``.
``GET /healthz`` / ``GET /stats``
    Liveness and the full :class:`~repro.serving.engine.EngineStats` counter
    surface plus queue/slot occupancy.
``POST /bench/step``
    Only with ``ServerConfig(bench_mode=True)``: advances the engine by
    exactly one iteration and reports what retired.  The load harness uses
    this to drive the live server in *iteration space*, which is what makes
    its latency metrics deterministic and machine-independent (see
    ``benchmarks/bench_serving_load.py``).

Concurrency model
-----------------
Two threads, one direction each (the split is declared to ``python -m
repro.analysis`` with ``# loop-thread-only`` / ``# engine-thread-only`` /
``# guarded-by:``, not just described here).  The **engine thread**
(``mamba-engine``) owns every engine-consumer call -- ``step``, ``cancel``,
the manual-clock advance -- and blocks on a condition when idle.  The **event
loop** does only I/O: it calls the thread-safe
:meth:`InferenceEngine.submit` itself and posts everything else
(cancels, bench-mode "step once", stop) to an inbox the engine thread drains
between steps; each command's future is resolved back on the loop.

Tokens travel the other way as they are selected: ``on_token`` encodes the SSE
frame on the engine thread and hands it to the loop *per token* (a prefill's
first token does not wait for the same step's decode), where a callback writes
it straight to the stream's transport -- no per-stream queue, no relay task.
``call_soon_threadsafe`` is FIFO, which is every ordering guarantee the
protocol needs: a request's frames arrive in selection order with ``done``
last; frames posted before a stream is registered still find it (``submit``
and registration share one loop turn); and in bench mode every token /
``step`` marker / ``done`` frame of step N is on its transport before the
``/bench/step`` reply, posted after them by the same thread, is written --
which keeps the live load harness bit-reproducible.

The transport's write buffer is the only per-stream buffer, so policy bounds
it: past ``_MAX_STREAM_BUFFER_BYTES`` unsent bytes the stream is a slow
consumer -- request cancelled (``slow_consumer_cancels``), connection aborted.
A client disconnect is EOF on the request socket and cancels the same way
(``disconnect_cancels``), so neither leaks a slot; the engine keeps nothing
of a request once its completion is out.  Malformed request heads get ``400``
and oversize bodies ``413`` without touching the engine.

Graceful drain
--------------
:meth:`MambaServer.shutdown` stops accepting work (new generates get 503) and
posts a stop command: the engine thread keeps stepping -- in bench mode too --
until in-flight requests retire (bounded by ``drain_grace_s``), reports idle
and exits.  The report queues behind every frame the thread produced, so when
``shutdown`` resumes each ``done`` event is on its transport; it joins the
thread, lets the handlers close their sockets and only then tears the listener
down -- every accepted request completes exactly once, on the wire.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.quant import native
from repro.serving.engine import Completion, InferenceEngine, Request, _integral, _real

__all__ = ["MambaServer", "ServerConfig", "serve_in_thread"]


@dataclass(frozen=True)
class ServerConfig:
    """Front-end configuration (the engine itself is passed separately).

    ``bench_mode`` stops the engine thread free-running: the engine only
    advances via ``POST /bench/step`` (and during drain), giving the load
    harness lockstep control over iteration timing.  ``manual_clock_step``
    advances the engine queue's injected clock by that many ticks after every
    step -- pair it with a :class:`~repro.serving.resilience.ManualClock` so
    deadlines submitted over the wire are measured in engine iterations
    (deterministic) instead of wall seconds.
    """

    host: str = "127.0.0.1"
    port: int = 0
    bench_mode: bool = False
    manual_clock_step: Optional[float] = None
    drain_grace_s: float = 30.0
    max_body_bytes: int = 1 << 20


_REASON = {200: "OK", 400: "Bad Request", 404: "Not Found", 409: "Conflict",
           413: "Payload Too Large", 503: "Service Unavailable"}
_SSE_HEAD = (b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
             b"Cache-Control: no-cache\r\nConnection: close\r\n\r\n")
_LATENCY_FIELDS = ("submitted_step", "admitted_step", "first_token_step", "finished_step",
                   "decode_iterations", "queue_wait_iterations", "ttft_iterations")
#: Slow-consumer bound: unsent bytes one stream's transport may hold.
_MAX_STREAM_BUFFER_BYTES = 1 << 18


class _HttpError(Exception):
    """``(status, message)``: a request head answered with an error and closed."""


@dataclass
class _Stream:
    """Loop-side sink of one accepted request; ``transport`` is None when the
    reply is not streamed (token events collect in ``events`` instead)."""

    transport: Optional[asyncio.Transport]
    done: asyncio.Future
    events: List[Dict[str, Any]] = field(default_factory=list)


def _sse_frame(event: str, data: Dict[str, Any]) -> bytes:
    return f"event: {event}\ndata: {json.dumps(data)}\n\n".encode("utf-8")


def _settle(future: asyncio.Future, result: Any, error: Optional[BaseException] = None) -> None:
    """Resolve a command future on the loop (its waiter may be gone already)."""
    if future.done():
        return
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(result)


class MambaServer:
    """HTTP/SSE front-end over one :class:`InferenceEngine`.

    Use :meth:`start` / :meth:`shutdown` from a running event loop, or the
    synchronous :func:`serve_in_thread` helper which hosts the loop on a
    daemon thread (what the benchmarks, tests and demo use).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        config: Optional[ServerConfig] = None,
    ):
        # The loop may submit and read occupancy; consumer calls are the engine thread's.
        self.engine = engine  # engine-thread-only: step, cancel, events
        self.config = config or ServerConfig()
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._engine_thread: Optional[threading.Thread] = None  # loop-thread-only
        self._cond = threading.Condition()
        # Commands for the engine thread: (kind, argument, future).
        self._inbox: List[Tuple[str, Any, asyncio.Future]] = []  # guarded-by: _cond
        self._gone: Optional[BaseException] = None  # guarded-by: _cond
        self._streams: Dict[int, _Stream] = {}  # loop-thread-only
        self._connections: set = set()  # loop-thread-only
        self._accepting = False  # loop-thread-only
        self._started_at = 0.0
        self.requests_accepted = 0  # loop-thread-only
        self.requests_rejected = 0  # loop-thread-only
        self.disconnect_cancels = 0  # loop-thread-only
        self.slow_consumer_cancels = 0  # loop-thread-only
        self.finish_reasons: Dict[str, int] = {}  # loop-thread-only

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:  # loop-thread-only
        """Bind the listener and start the engine thread."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._accepting = True
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._engine_thread = threading.Thread(
            target=self._engine_main, name="mamba-engine", daemon=True
        )
        self._engine_thread.start()
        return self.address

    async def shutdown(self, drain: bool = True) -> None:  # loop-thread-only
        """Stop accepting, drain in-flight work, flush streams, tear down.

        With ``drain=True`` (default) the engine thread keeps stepping until
        every in-flight and queued request retires (bounded by
        ``config.drain_grace_s``); their SSE streams receive their ``done``
        events before sockets close.  With ``drain=False`` outstanding
        requests are cancelled first, which still delivers exactly one
        terminal event per accepted request (``finish_reason="cancelled"``).
        The engine thread has been joined when this returns.
        """
        self._accepting = False
        if self._server is not None:
            self._server.close()
        deadline = time.monotonic() + self.config.drain_grace_s
        thread, self._engine_thread = self._engine_thread, None
        try:
            if thread is not None:
                if not drain:
                    for request_id in list(self._streams):
                        self._post("cancel", request_id)
                await self._post("stop", deadline)  # resolves once the thread is idle
        finally:
            if thread is not None:
                thread.join()
            if self._connections:
                grace = max(0.0, deadline - time.monotonic()) + 1.0
                await asyncio.wait(list(self._connections), timeout=grace)
            if self._server is not None:
                await self._server.wait_closed()

    def _post(self, kind: str, arg: Any = None) -> asyncio.Future:  # loop-thread-only
        """Queue one command for the engine thread; the future gets its result."""
        future = self._loop.create_future()
        with self._cond:
            if self._gone is not None:
                future.set_exception(self._gone)
            else:
                self._inbox.append((kind, arg, future))
                self._cond.notify()
        return future

    # ------------------------------------------------------------------
    # Engine thread
    # ------------------------------------------------------------------
    def _engine_main(self) -> None:  # engine-thread-only
        """Drain the inbox, step while there is work, block when idle."""
        post = self._loop.call_soon_threadsafe
        free_running = not self.config.bench_mode
        commands: List[Tuple[str, Any, asyncio.Future]] = []
        stop = None  # the stop command, once received: (kind, deadline, future)
        gone: BaseException = RuntimeError("the engine thread has stopped")
        try:
            while True:
                with self._cond:
                    while stop is None and not (
                        self._inbox or (free_running and self.engine.has_work)
                    ):
                        self._cond.wait()
                    commands, self._inbox = self._inbox, []
                for command in commands:
                    kind, arg, future = command
                    if kind == "stop":  # drain: free-run, in bench mode too
                        stop, free_running = command, True
                    elif kind == "cancel":
                        post(_settle, future, self.engine.cancel(arg))
                    else:  # bench-mode "step once"
                        completed = [c.request_id for c in self._step_once()]
                        post(_settle, future, {
                            "engine_step": self.engine.stats.engine_steps,
                            "completed": completed, "has_work": self.engine.has_work,
                        })
                if stop is not None and not (
                    self.engine.has_work and time.monotonic() < stop[1]
                ):
                    post(_settle, stop[2], None)  # idle: behind every frame posted
                    return
                if free_running and self.engine.has_work:
                    self._step_once()
        except BaseException as exc:  # a raising model without a supervisor
            gone = exc
            raise
        finally:  # whatever is (or will be) posted gets the reason, not a hang
            with self._cond:
                self._gone = gone
                commands, self._inbox = commands + self._inbox, []
            # Commands already answered settle first (FIFO); this one is a no-op for them.
            for _, _, future in commands + ([stop] if stop else []):
                post(_settle, future, None, gone)

    def _step_once(self) -> List[Completion]:  # engine-thread-only
        """One engine iteration + completion fan-out to the loop."""
        post = self._loop.call_soon_threadsafe
        # `engine.step` is looked up per call: tracers wrap it on the instance.
        completions = self.engine.step(on_token=self._on_token)
        for completion in completions:
            payload = self._done_payload(completion)
            post(self._deliver_done, completion.request_id, payload, _sse_frame("done", payload))
        if self.config.bench_mode:
            # Lockstep marker: clients read each open stream up to this step's
            # marker, so "everything emitted by step N" needs no timeouts.
            post(self._deliver_marker,
                 _sse_frame("step", {"step": self.engine.stats.engine_steps}))
        clock_step = self.config.manual_clock_step
        if clock_step is not None:
            self.engine.queue.clock.advance(clock_step)
        return completions

    def _on_token(self, request_id, token, logprob) -> None:  # engine-thread-only
        stats = self.engine.stats
        data = {"token": int(token), "logprob": float(logprob), "step": stats.engine_steps,
                "processed_tokens": stats.prefilled_tokens + stats.decoded_tokens}
        self._loop.call_soon_threadsafe(
            self._deliver_token, request_id, data, _sse_frame("token", data)
        )

    def _done_payload(self, completion: Completion) -> dict:  # engine-thread-only
        latency = completion.latency
        stats = self.engine.stats
        payload: Dict[str, Any] = {
            "request_id": completion.request_id,
            "finish_reason": completion.finish_reason,
            "tokens": list(completion.result.tokens),
            "n_tokens": len(completion.result.tokens),
            "processed_tokens": stats.prefilled_tokens + stats.decoded_tokens,
        }
        if completion.error is not None:
            payload["error"] = completion.error
        if latency is not None:
            payload["latency"] = {name: getattr(latency, name) for name in _LATENCY_FIELDS}
        return payload

    # ------------------------------------------------------------------
    # Loop-side delivery (call_soon_threadsafe targets: keep them tiny)
    # ------------------------------------------------------------------
    def _deliver_token(self, request_id, data, frame) -> None:  # loop-thread-only
        stream = self._streams.get(request_id)
        if stream is None:
            return  # disconnected, or cancelled as a slow consumer
        transport = stream.transport
        if transport is None:
            stream.events.append(data)
            return
        transport.write(frame)
        if transport.get_write_buffer_size() > _MAX_STREAM_BUFFER_BYTES:
            # Slow consumer: the write buffer is the only buffer, so bound it.
            self.slow_consumer_cancels += 1
            self._drop(request_id)
            transport.abort()
            stream.done.set_result(None)

    def _deliver_done(self, request_id, payload, frame) -> None:  # loop-thread-only
        reason = payload["finish_reason"]
        self.finish_reasons[reason] = self.finish_reasons.get(reason, 0) + 1
        stream = self._streams.pop(request_id, None)
        if stream is not None:
            if stream.transport is not None:
                stream.transport.write(frame)
            stream.done.set_result(payload)

    def _deliver_marker(self, frame: bytes) -> None:  # loop-thread-only
        for stream in self._streams.values():
            if stream.transport is not None:
                stream.transport.write(frame)

    def _drop(self, request_id: int) -> None:  # loop-thread-only
        """Forget a stream whose client is gone (or too slow); cancel its request."""
        if self._streams.pop(request_id, None) is not None:
            # Fire and forget; a stopped engine's refusal counts as retrieved.
            self._post("cancel", request_id).add_done_callback(asyncio.Future.exception)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:  # loop-thread-only
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            parsed = await self._read_request(reader)
            if parsed is not None:
                await self._route(*parsed, reader, writer)
        except _HttpError as exc:
            status, message = exc.args
            with contextlib.suppress(ConnectionError):
                await self._send_json(writer, status, {"error": message})
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(self, reader):
        """Parse one request head + body; :class:`_HttpError` on a hostile one."""
        try:
            request_line = await reader.readline()
            if not request_line:
                return None
            method, path, _ = request_line.decode("latin-1").split(" ", 2)
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:  # over-limit line, bad request line, bad length
            raise _HttpError(400, "malformed request head") from None
        if not 0 <= length <= self.config.max_body_bytes:
            raise _HttpError(400 if length < 0 else 413, f"Content-Length {length} not accepted")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _route(self, method, path, headers, body, reader, writer):  # loop-thread-only
        if method == "GET" and path == "/healthz":
            await self._send_json(writer, 200, self._health())
        elif method == "GET" and path == "/stats":
            await self._send_json(writer, 200, self.stats_snapshot())
        elif method == "POST" and path == "/v1/generate":
            await self._handle_generate(headers, body, reader, writer)
        elif method == "POST" and path.startswith("/v1/cancel/"):
            await self._handle_cancel(path, writer)
        elif method == "POST" and path == "/bench/step":
            await self._handle_bench_step(writer)
        else:
            await self._send_json(writer, 404, {"error": f"no route {method} {path}"})

    def _health(self) -> Dict[str, Any]:  # loop-thread-only
        return {
            "status": "ok" if self._accepting else "draining",
            "waiting": self.engine.num_waiting,
            "active": self.engine.num_active,
            "prefilling": self.engine.num_prefilling,
        }

    def stats_snapshot(self) -> Dict[str, Any]:  # loop-thread-only
        """The ``/stats`` payload (from other threads: only once :meth:`shutdown` returned)."""
        return {
            "uptime_s": time.monotonic() - self._started_at,
            "accepting": self._accepting,
            "engine": dict(vars(self.engine.stats)),
            "queue_depth": self.engine.num_waiting,
            "active_slots": self.engine.num_active,
            "prefilling": self.engine.num_prefilling,
            "open_streams": len(self._streams),
            "requests_accepted": self.requests_accepted,
            "requests_rejected": self.requests_rejected,
            "disconnect_cancels": self.disconnect_cancels,
            "slow_consumer_cancels": self.slow_consumer_cancels,
            "finish_reasons": dict(self.finish_reasons),
            # Which executor the integer decode step runs: "compiled", or
            # "numpy: <why not>" (the oracle) -- a silent fallback would make
            # a decode step ~4x slower at batch 1 and ~11x at batch 8.
            "ssmu_kernel": native.status(),
        }

    def _build_request(self, payload: Dict[str, Any]) -> Request:
        if "prompt" not in payload:
            raise ValueError('body must carry "prompt" (token ids)')
        # Numbers go to Request as sent: it rejects a bool, a string or (for
        # an integer field) a float instead of converting it.
        return Request(
            prompt=tuple(payload["prompt"]),
            max_new_tokens=payload.get("max_new_tokens", 16),
            temperature=payload.get("temperature"),
            top_k=payload.get("top_k"),
            stop_token=payload.get("stop_token"),
            seed=payload.get("seed"),
        )

    async def _handle_generate(self, headers, body, reader, writer):  # loop-thread-only
        if not self._accepting:
            self.requests_rejected += 1
            await self._send_json(writer, 503, {"error": "server is draining"})
            return
        try:
            payload = json.loads(body or b"{}")
            request = self._build_request(payload)
            # Headers are strings and parse as such; body fields keep their JSON types.
            header = headers.get("x-priority")
            priority = (int(header) if header is not None
                        else _integral("priority", payload.get("priority", 0)))
            header = headers.get("x-deadline-s")
            deadline_s = float(header) if header is not None else payload.get("deadline_s")
            timeout = None if deadline_s is None else _real("deadline_s", deadline_s)
            streamed = payload.get("stream", True)
            if not isinstance(streamed, bool):
                raise TypeError(f'"stream" must be a JSON bool, got {streamed!r}')
            request_id = self.engine.submit(request, priority=priority, timeout=timeout)
        except (ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
            return
        # No await between submit and registration: frames the engine thread
        # has already posted for this request run as later loop callbacks, so
        # the stream never misses a token.
        done = self._loop.create_future()
        stream = _Stream(writer.transport if streamed else None, done)
        self._streams[request_id] = stream
        self.requests_accepted += 1
        with self._cond:
            self._cond.notify()
        start = {"request_id": request_id, "submitted_step": self.engine.stats.engine_steps}
        if streamed:
            writer.write(_SSE_HEAD + _sse_frame("start", start))
        # The delivery callbacks write the frames; this task only holds the
        # connection.  EOF on the request socket is the disconnect signal: a
        # client that goes away mid-generation cancels its request.
        watcher = asyncio.ensure_future(reader.read(1))
        watcher.add_done_callback(lambda t: t.cancelled() or t.exception())
        try:
            await asyncio.wait({done, watcher}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            watcher.cancel()
        if not done.done():
            self.disconnect_cancels += 1
            self._drop(request_id)
        elif not streamed:
            reply = dict(done.result(), token_events=stream.events, **start)
            await self._send_json(writer, 200, reply)

    async def _handle_cancel(self, path: str, writer) -> None:  # loop-thread-only
        try:
            request_id = int(path.rsplit("/", 1)[1])
        except ValueError:
            await self._send_json(writer, 400, {"error": "bad request id"})
            return
        cancelled = await self._post("cancel", request_id)
        await self._send_json(writer, 200, {"request_id": request_id, "cancelled": cancelled})

    async def _handle_bench_step(self, writer) -> None:  # loop-thread-only
        if not self.config.bench_mode:
            await self._send_json(writer, 409, {"error": "bench stepping requires bench_mode=True"})
            return
        await self._send_json(writer, 200, await self._post("step"))

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    @staticmethod
    async def _send_json(writer, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASON.get(status, 'OK')}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


@dataclass
class ServerHandle:
    """A live server hosted on a background thread (see :func:`serve_in_thread`)."""

    server: MambaServer
    host: str
    port: int
    _loop: asyncio.AbstractEventLoop = field(repr=False, default=None)
    _thread: threading.Thread = field(repr=False, default=None)

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Gracefully shut the server down and join its thread."""
        future = asyncio.run_coroutine_threadsafe(self.server.shutdown(drain=drain), self._loop)
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)


@contextlib.contextmanager
def serve_in_thread(
    engine: InferenceEngine,
    config: Optional[ServerConfig] = None,
    startup_timeout_s: float = 10.0,
) -> Iterator[ServerHandle]:
    """Run a :class:`MambaServer` on a daemon thread; yields its handle.

    The sockets are real localhost TCP -- this is how the load harness, the
    end-to-end tests and the demo drive the server from synchronous code.
    The context manager guarantees a graceful drain-and-join on exit.
    """
    server = MambaServer(engine, config=config)
    started = threading.Event()
    box: Dict[str, Any] = {}

    def _run() -> None:
        loop = box["loop"] = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            box["address"] = loop.run_until_complete(server.start())
            started.set()
            loop.run_forever()
        finally:
            with contextlib.suppress(Exception):
                loop.close()

    thread = threading.Thread(target=_run, name="mamba-server", daemon=True)
    thread.start()
    if not started.wait(timeout=startup_timeout_s):
        raise RuntimeError("server failed to start within the startup timeout")
    host, port = box["address"]
    handle = ServerHandle(server=server, host=host, port=port, _loop=box["loop"], _thread=thread)
    try:
        yield handle
    finally:
        if thread.is_alive():
            handle.stop()
