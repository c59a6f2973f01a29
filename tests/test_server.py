"""End-to-end tests for the asyncio HTTP/SSE serving front-end.

Every test here talks to a real :class:`~repro.serving.server.MambaServer`
over localhost TCP sockets (via :func:`~repro.serving.server.serve_in_thread`),
using the same minimal blocking HTTP/SSE client the load harness uses -- so
the wire protocol, the disconnect-cancel path, and the graceful-drain
contract are exercised exactly as a real client would.

The overlap tests at the end pin the engine-thread / event-loop split.  Their
model is a stub whose batched decode call blocks until the test releases it,
so "a step is in progress" is a fact the test holds still rather than a
window it has to hit: no sleeps, no timing thresholds (socket and semaphore
timeouts only turn a hang into a failure).
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import threading
import time

import pytest

from repro.mamba.generation import greedy_decode
from repro.quant import native
from repro.serving import FIFOScheduler, InferenceEngine, PriorityScheduler
from repro.serving import server as server_module
from repro.serving.loadgen import _Conn, _request_json
from repro.serving.resilience import ManualClock
from repro.serving.server import MambaServer, ServerConfig, serve_in_thread

PROMPT = [3, 1, 4, 1, 5]


def _bench_config():
    return ServerConfig(bench_mode=True, manual_clock_step=1.0)


def _bench_engine(model, *, max_batch_size=4, scheduler=None):
    return InferenceEngine(
        model,
        max_batch_size=max_batch_size,
        scheduler=scheduler or FIFOScheduler(),
        clock=ManualClock(),
    )


def _generate(host, port, payload, headers=None):
    """Open a streaming generate; returns the connection + start event data."""
    conn = _Conn(host, port)
    conn.send("POST", "/v1/generate", payload=payload, headers=headers)
    status, _ = conn.read_head()
    assert status == 200
    event, data = conn.next_event()
    assert event == "start"
    return conn, data


def _step(host, port):
    status, payload = _request_json(host, port, "POST", "/bench/step")
    assert status == 200
    return payload


def _stats(host, port):
    status, payload = _request_json(host, port, "GET", "/stats")
    assert status == 200
    return payload


def _read_to_done(conn):
    """Drain one SSE stream; returns (token list, done payload)."""
    tokens = []
    while True:
        event, data = conn.next_event()
        if event == "token":
            tokens.append(data["token"])
        elif event == "done":
            return tokens, data


class TestWireProtocol:
    def test_streamed_tokens_match_solo_decode(self, tiny_model):
        reference = greedy_decode(tiny_model, PROMPT, 8)
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            conn, _ = _generate(
                handle.host, handle.port, {"prompt": PROMPT, "max_new_tokens": 8}
            )
            tokens, done = _read_to_done(conn)
            conn.close()
        assert tokens == list(reference.tokens)
        assert done["finish_reason"] == "length"
        assert done["tokens"] == list(reference.tokens)
        assert done["latency"]["ttft_iterations"] >= 0

    def test_non_streaming_response(self, tiny_model):
        reference = greedy_decode(tiny_model, PROMPT, 6)
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            status, payload = _request_json(
                handle.host,
                handle.port,
                "POST",
                "/v1/generate",
                payload={"prompt": PROMPT, "max_new_tokens": 6, "stream": False,
                         "priority": 2, "deadline_s": 30},
            )
        assert status == 200
        assert payload["finish_reason"] == "length"
        assert payload["tokens"] == list(reference.tokens)
        assert len(payload["token_events"]) == 6

    def test_healthz_and_stats_surface(self, tiny_model):
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            status, health = _request_json(handle.host, handle.port, "GET", "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            stats = _stats(handle.host, handle.port)
            for key in (
                "engine",
                "queue_depth",
                "active_slots",
                "open_streams",
                "requests_accepted",
                "disconnect_cancels",
                "finish_reasons",
            ):
                assert key in stats
            assert stats["accepting"] is True
            # Which SSMU tile decodes, and why: top level, not an engine counter.
            assert stats["ssmu_kernel"] == native.status()
            assert stats["ssmu_kernel"] == "compiled" or stats["ssmu_kernel"].startswith("numpy: ")
            assert "ssmu_kernel" not in stats["engine"]
            status, payload = _request_json(handle.host, handle.port, "GET", "/nope")
            assert status == 404
            assert "error" in payload

    def test_bad_request_bodies(self, tiny_model):
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            status, payload = _request_json(
                handle.host, handle.port, "POST", "/v1/generate", payload={"nope": 1}
            )
            assert status == 400
            assert "prompt" in payload["error"]
            # token id outside the model vocabulary: rejected by submit
            status, payload = _request_json(
                handle.host,
                handle.port,
                "POST",
                "/v1/generate",
                payload={"prompt": [10**9], "max_new_tokens": 2},
            )
            assert status == 400
            # Non-finite sampling / deadline input: json.dumps writes NaN and
            # Infinity literals, and json.loads accepts them.  Prompts are
            # token ids only: a text prompt is a bad body too.
            nan, inf = float("nan"), float("inf")
            for body, headers in (
                ({"text": "hi"}, None),
                ({"prompt": [1, 2, 3], "temperature": nan, "seed": 1}, None),
                ({"prompt": [1, 2, 3], "temperature": inf, "seed": 1}, None),
                ({"prompt": [1, 2, 3]}, {"X-Deadline-S": "nan"}),
                ({"prompt": [1, 2, 3], "deadline_s": inf}, None),
                # Integers only: a float id, an object, a bool budget or stop
                # token, a string seed are bad bodies, never truncated.
                ({"prompt": [1.9]}, None),
                ({"prompt": {"1": 2}}, None),
                ({"prompt": "12"}, None),
                ({"prompt": [1, True]}, None),
                ({"prompt": [1, 2], "max_new_tokens": True}, None),
                ({"prompt": [1, 2], "max_new_tokens": 2.5}, None),
                ({"prompt": [1, 2], "stop_token": -3}, None),
                ({"prompt": [1, 2], "stop_token": False}, None),
                ({"prompt": [1, 2], "temperature": 0.8, "seed": "7"}, None),
                # Each body field keeps its JSON type: a bool or string
                # temperature, a float or bool priority, a bool or string
                # deadline, a stream flag that is no JSON bool.
                ({"prompt": [1, 2], "temperature": True}, None),
                ({"prompt": [1, 2], "temperature": "0.8", "seed": 1}, None),
                ({"prompt": [1, 2], "priority": 1.5}, None),
                ({"prompt": [1, 2], "priority": True}, None),
                ({"prompt": [1, 2], "deadline_s": True}, None),
                ({"prompt": [1, 2], "deadline_s": "5"}, None),
                ({"prompt": [1, 2], "stream": "false"}, None),
                ({"prompt": [1, 2], "stream": 0}, None),
            ):
                status, payload = _request_json(
                    handle.host, handle.port, "POST", "/v1/generate", payload=body, headers=headers
                )
                assert status == 400, (body, headers)
            assert _stats(handle.host, handle.port)["requests_accepted"] == 0

    def test_bench_step_requires_bench_mode(self, tiny_model):
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            status, payload = _request_json(
                handle.host, handle.port, "POST", "/bench/step"
            )
        assert status == 409
        assert "bench_mode" in payload["error"]


class TestDisconnectCancels:
    def test_disconnect_mid_generation_frees_slot_and_records(self, tiny_model):
        engine = _bench_engine(tiny_model)
        with serve_in_thread(engine, config=_bench_config()) as handle:
            host, port = handle.host, handle.port
            conn, _ = _generate(host, port, {"prompt": PROMPT, "max_new_tokens": 100})
            # Advance two iterations; read the two streamed tokens.
            tokens = []
            for _ in range(2):
                _step(host, port)
                while True:
                    event, data = conn.next_event()
                    if event == "token":
                        tokens.append(data["token"])
                    elif event == "step":
                        break
            assert len(tokens) == 2
            # Hang up mid-generation: close the socket without reading on.
            conn.close()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = _stats(host, port)
                if stats["engine"]["cancelled"] == 1:
                    break
                time.sleep(0.002)
            else:
                pytest.fail("engine never observed the disconnect as a cancel")
            # The slot is freed immediately; the pending cancelled completion
            # retires on the next step, and the engine keeps nothing of it.
            assert stats["active_slots"] == 0
            assert stats["open_streams"] == 0
            assert stats["disconnect_cancels"] == 1
            _step(host, port)
            stats = _stats(host, port)
            assert stats["finish_reasons"].get("cancelled") == 1
            assert not engine.has_work

    def test_cancel_endpoint_for_waiting_request(self, tiny_model):
        engine = _bench_engine(tiny_model)
        with serve_in_thread(engine, config=_bench_config()) as handle:
            host, port = handle.host, handle.port
            conn, start = _generate(
                host, port, {"prompt": PROMPT, "max_new_tokens": 4}
            )
            status, payload = _request_json(
                host, port, "POST", f"/v1/cancel/{start['request_id']}"
            )
            assert status == 200
            assert payload["cancelled"] is True
            _step(host, port)  # delivers the pending cancelled completion
            tokens, done = _read_to_done(conn)
            conn.close()
        assert tokens == []
        assert done["finish_reason"] == "cancelled"


class TestHeaders:
    def test_priority_header_reorders_admission(self, tiny_model):
        engine = _bench_engine(
            tiny_model, max_batch_size=1, scheduler=PriorityScheduler()
        )
        with serve_in_thread(engine, config=_bench_config()) as handle:
            host, port = handle.host, handle.port
            occupant, _ = _generate(
                host, port, {"prompt": PROMPT, "max_new_tokens": 3}
            )
            # One step so the occupant is actually holding the single slot
            # before the contenders arrive.
            _step(host, port)
            low, _ = _generate(host, port, {"prompt": PROMPT, "max_new_tokens": 2})
            high, _ = _generate(
                host,
                port,
                {"prompt": PROMPT, "max_new_tokens": 2},
                headers={"X-Priority": "5"},
            )
            results = {}

            def drain(name, conn):
                results[name] = _read_to_done(conn)

            threads = [
                threading.Thread(target=drain, args=(name, conn))
                for name, conn in (("occupant", occupant), ("low", low), ("high", high))
            ]
            for t in threads:
                t.start()
            while engine.has_work:
                _step(host, port)
            for t in threads:
                t.join(timeout=10.0)
            for conn in (occupant, low, high):
                conn.close()
        assert set(results) == {"occupant", "low", "high"}
        # One slot: the occupant runs first; the high-priority arrival
        # front-runs the earlier low-priority one.
        finished = {name: done["latency"]["finished_step"] for name, (_, done) in results.items()}
        assert finished["occupant"] < finished["high"] < finished["low"]

    def test_deadline_header_expires_waiting_request(self, tiny_model):
        engine = _bench_engine(tiny_model, max_batch_size=1)
        with serve_in_thread(engine, config=_bench_config()) as handle:
            host, port = handle.host, handle.port
            occupant, _ = _generate(
                host, port, {"prompt": PROMPT, "max_new_tokens": 12}
            )
            # ManualClock advances 1.0 per step: this deadline is "admit
            # within 2 engine iterations", which the busy slot prevents.
            doomed, _ = _generate(
                host,
                port,
                {"prompt": PROMPT, "max_new_tokens": 4},
                headers={"X-Deadline-S": "2"},
            )
            results = {}

            def drain(name, conn):
                results[name] = _read_to_done(conn)

            threads = [
                threading.Thread(target=drain, args=(name, conn))
                for name, conn in (("occupant", occupant), ("doomed", doomed))
            ]
            for t in threads:
                t.start()
            while engine.has_work:
                _step(host, port)
            for t in threads:
                t.join(timeout=10.0)
            for conn in (occupant, doomed):
                conn.close()
        assert results["occupant"][1]["finish_reason"] == "length"
        assert results["doomed"][1]["finish_reason"] == "expired"
        assert results["doomed"][0] == []


class TestGracefulShutdown:
    def test_inflight_requests_drain_exactly_once(self, tiny_model):
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        references = {
            n: greedy_decode(tiny_model, PROMPT + [n], 30) for n in (0, 1)
        }
        with serve_in_thread(engine) as handle:
            conns = {
                n: _generate(
                    handle.host,
                    handle.port,
                    {"prompt": PROMPT + [n], "max_new_tokens": 30},
                )[0]
                for n in (0, 1)
            }
            results = {}
            done_counts = {n: 0 for n in conns}

            def drain(n, conn):
                tokens = []
                while True:
                    try:
                        event, data = conn.next_event()
                    except (StopIteration, ConnectionError, OSError):
                        return
                    if event == "token":
                        tokens.append(data["token"])
                    elif event == "done":
                        done_counts[n] += 1
                        results[n] = (tokens, data)

            threads = [
                threading.Thread(target=drain, args=(n, conn))
                for n, conn in conns.items()
            ]
            for t in threads:
                t.start()
            # Shut down while both requests are mid-generation: the drain
            # contract says they complete on the wire first.
            handle.stop()
            for t in threads:
                t.join(timeout=10.0)
            for conn in conns.values():
                conn.close()
        assert set(results) == {0, 1}
        for n, (tokens, done) in results.items():
            assert done_counts[n] == 1
            assert done["finish_reason"] == "length"
            assert tokens == list(references[n].tokens)
        assert engine.has_work is False
        assert handle.server.finish_reasons == {"length": 2}

    def test_new_requests_rejected_while_draining(self, tiny_model):
        engine = _bench_engine(tiny_model)
        config = ServerConfig(bench_mode=True, manual_clock_step=1.0, drain_grace_s=5.0)
        with serve_in_thread(engine, config=config) as handle:
            host, port = handle.host, handle.port
            conn, _ = _generate(host, port, {"prompt": PROMPT, "max_new_tokens": 400})
            # Opened while the server still accepts: shutdown closes the
            # listener immediately, so only an already-accepted connection
            # can observe the 503 drain response.  Wait until the event loop
            # has actually accepted it (two live connection handlers), or a
            # backlogged connect would be reset when the listener closes.
            probe = _Conn(host, port)
            deadline = time.monotonic() + 5.0
            while len(handle.server._connections) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(handle.server._connections) >= 2

            def drain_stream():
                _read_to_done(conn)

            reader = threading.Thread(target=drain_stream)
            reader.start()
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            deadline = time.monotonic() + 5.0
            while handle.server._accepting and time.monotonic() < deadline:
                time.sleep(0.001)
            assert not handle.server._accepting
            probe.send(
                "POST",
                "/v1/generate",
                payload={"prompt": PROMPT, "max_new_tokens": 2, "stream": False},
            )
            status, headers = probe.read_head()
            payload = probe.read_json_body(headers)
            probe.close()
            stopper.join(timeout=10.0)
            reader.join(timeout=10.0)
            conn.close()
            assert status == 503
            assert "draining" in payload["error"]
            assert handle.server.requests_rejected >= 1


def _raw_exchange(host, port, head: bytes) -> bytes:
    """Send raw bytes, return everything the server answers before closing."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestHostileRequestHeads:
    """Malformed heads are answered and closed; none reaches the engine."""

    CASES = {
        "non-numeric length": (b"POST /v1/generate HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        "negative length": (b"POST /v1/generate HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        "garbage request line": (b"GARBAGE\r\n\r\n", 400),
        "over-limit request line": (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 400),
        "over-limit header line": (
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"b" * 70_000 + b"\r\n\r\n", 400),
        "oversize body": (
            b"POST /v1/generate HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n", 413),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reply_and_close_without_touching_the_engine(self, tiny_model, case):
        head, expected = self.CASES[case]
        reasons = {400: b"Bad Request", 413: b"Payload Too Large"}
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            host, port = handle.host, handle.port
            before = _stats(host, port)
            answer = _raw_exchange(host, port, head)
            status_line, _, rest = answer.partition(b"\r\n")
            assert status_line == b"HTTP/1.1 %d %s" % (expected, reasons[expected])
            assert b"Connection: close" in rest
            assert "error" in json.loads(rest.partition(b"\r\n\r\n")[2])
            after = _stats(host, port)
            for key in (
                "requests_accepted", "requests_rejected", "active_slots", "queue_depth",
                "prefilling", "open_streams", "finish_reasons",
            ):
                assert after[key] == before[key], key
            assert after["engine"] == before["engine"]
            assert after["requests_accepted"] == 0
            # ...and the server is still serving.
            status, payload = _request_json(
                host, port, "POST", "/v1/generate",
                payload={"prompt": PROMPT, "max_new_tokens": 2, "stream": False},
            )
            assert status == 200 and payload["n_tokens"] == 2


class TestSlowConsumer:
    def test_unread_stream_is_cancelled_and_its_neighbour_unaffected(
        self, tiny_model, monkeypatch
    ):
        monkeypatch.setattr(server_module, "_MAX_STREAM_BUFFER_BYTES", 2048)
        budget = 400
        reference = greedy_decode(tiny_model, PROMPT + [7], budget)
        engine = _bench_engine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine, config=_bench_config()) as handle:
            host, port = handle.host, handle.port
            # The slow client: a tiny receive window, and it never reads --
            # not even the response head.
            slow = socket.socket()
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
            slow.connect((host, port))
            body = json.dumps({"prompt": PROMPT, "max_new_tokens": 100_000}).encode()
            slow.sendall(
                b"POST /v1/generate HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body
            )
            good, start = _generate(
                host, port, {"prompt": PROMPT + [7], "max_new_tokens": budget}
            )
            streams = handle.server._streams
            slow_id = next(rid for rid in streams if rid != start["request_id"])
            # Shrink the kernel's share of the backlog so the transport's
            # write buffer (the bounded one) fills within a few hundred steps.
            streams[slow_id].transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            tokens, done, cancelled_at = [], None, None
            while done is None:
                reply = _step(host, port)
                while True:
                    event, data = good.next_event()
                    if event == "token":
                        tokens.append(data["token"])
                    elif event == "done":
                        done = data
                        break
                    elif event == "step" and data["step"] >= reply["engine_step"]:
                        break
                if cancelled_at is None and _stats(host, port)["slow_consumer_cancels"]:
                    cancelled_at = len(tokens)
            good.close()
            while engine.has_work:
                _step(host, port)
            stats = _stats(host, port)
            slow.close()
        # The slow stream was cut off mid-generation, long before its budget...
        assert cancelled_at is not None and 0 < cancelled_at < budget
        assert stats["slow_consumer_cancels"] == 1
        assert stats["disconnect_cancels"] == 0
        assert stats["finish_reasons"] == {"cancelled": 1, "length": 1}
        assert stats["engine"]["cancelled"] == 1
        assert stats["active_slots"] == 0
        assert stats["open_streams"] == 0
        # ...and its neighbour never noticed.
        assert tokens == list(reference.tokens)
        assert done["finish_reason"] == "length"
        assert done["tokens"] == list(reference.tokens)


# ----------------------------------------------------------------------
# Engine thread / event loop overlap (deterministic: a gated model stub)
# ----------------------------------------------------------------------
GUARD_S = 10.0


class GatedModel:
    """``tiny_model`` whose decode call blocks until the test lets it through."""

    def __init__(self, model):
        self._model = model
        self.entered = threading.Semaphore(0)  # one release per blocked call
        self._gate = threading.Semaphore(0)
        self._open = False

    def __getattr__(self, name):
        return getattr(self._model, name)

    def step(self, tokens, cache):
        self.entered.release()
        if not self._open:
            assert self._gate.acquire(timeout=GUARD_S), "test never released the step"
        return self._model.step(tokens, cache)

    def await_blocked(self) -> None:
        assert self.entered.acquire(timeout=GUARD_S), "engine never reached model.step"

    def release_one(self) -> None:
        self._gate.release()

    def open(self) -> None:
        self._open = True
        self._gate.release()


def _engine_threads():
    return [t for t in threading.enumerate() if t.name == "mamba-engine"]


def _spin_until(predicate, what: str) -> None:
    """Wait for a condition another thread is about to establish (no sleep)."""
    deadline = time.monotonic() + GUARD_S
    while not predicate():
        assert time.monotonic() < deadline, f"never observed: {what}"


@pytest.fixture()
def gated(tiny_model):
    model = GatedModel(tiny_model)
    yield model
    model.open()  # never leave an engine thread parked on the gate


class TestLoopRunsWhileAStepIsBlocked:
    def test_token_k_arrives_while_its_step_is_still_blocked(self, tiny_model, gated):
        reference = list(greedy_decode(tiny_model, PROMPT, 4).tokens)
        engine = InferenceEngine(gated, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            conn, _ = _generate(handle.host, handle.port, {"prompt": PROMPT, "max_new_tokens": 4})
            for k in range(1, 4):
                # Step k selects token k, hands it over, then blocks in decode.
                gated.await_blocked()
                event, data = conn.next_event()
                assert (event, data["token"]) == ("token", reference[k - 1])
                assert data["step"] == k == engine.stats.engine_steps
                assert engine.stats.decode_calls == k - 1  # step k has not returned
                gated.release_one()
            tokens, done = _read_to_done(conn)  # the last token needs no decode
            conn.close()
        assert tokens == reference[3:] and done["tokens"] == reference

    def test_healthz_and_a_new_generate_are_served_during_a_blocked_step(self, gated):
        engine = InferenceEngine(gated, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            host, port = handle.host, handle.port
            first, _ = _generate(host, port, {"prompt": PROMPT, "max_new_tokens": 3})
            gated.await_blocked()
            status, health = _request_json(host, port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok" and health["active"] == 1
            second, start = _generate(host, port, {"prompt": PROMPT + [1], "max_new_tokens": 3})
            assert start["request_id"] == 1
            assert _stats(host, port)["queue_depth"] == 1  # accepted, not yet admitted
            assert engine.stats.engine_steps == 1 and engine.stats.decode_calls == 0
            gated.open()
            for conn in (first, second):
                tokens, done = _read_to_done(conn)
                assert done["finish_reason"] == "length" and len(tokens) == 3
                conn.close()

    def test_disconnect_and_cancel_during_a_blocked_step(self, gated):
        engine = InferenceEngine(gated, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            host, port = handle.host, handle.port
            gone, _ = _generate(host, port, {"prompt": PROMPT, "max_new_tokens": 50})
            gated.await_blocked()  # step 1: `gone` decoding alone
            kept, start = _generate(host, port, {"prompt": PROMPT + [1], "max_new_tokens": 50})
            gated.release_one()
            gated.await_blocked()  # step 2: both slots in the blocked batch
            assert _stats(host, port)["active_slots"] == 2
            gone.close()
            _spin_until(
                lambda: _stats(host, port)["disconnect_cancels"] == 1, "the hang-up"
            )
            canceller = _Conn(host, port)
            canceller.send("POST", f"/v1/cancel/{start['request_id']}")
            # Both cancels now wait in the inbox: the engine thread is in a step.
            _spin_until(lambda: len(handle.server._inbox) == 2, "two queued cancels")
            assert _stats(host, port)["engine"]["cancelled"] == 0
            gated.open()
            status, headers = canceller.read_head()
            assert status == 200
            assert canceller.read_json_body(headers) == {
                "request_id": start["request_id"], "cancelled": True,
            }
            canceller.close()
            # `kept` sees exactly one terminal event, then the server closes.
            terminal = []
            while True:
                try:
                    event, data = kept.next_event()
                except StopIteration:
                    break
                if event == "done":
                    terminal.append(data["finish_reason"])
            kept.close()
            assert terminal == ["cancelled"]
            stats = _stats(host, port)
            assert stats["finish_reasons"] == {"cancelled": 2}
            assert stats["engine"]["cancelled"] == 2
            assert stats["active_slots"] == 0 and stats["open_streams"] == 0
            assert not engine.has_work


class TestEngineThreadIsJoined:
    @pytest.mark.parametrize("drain", [True, False])
    def test_handle_stop_joins_the_engine_thread(self, tiny_model, drain):
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine) as handle:
            conn, _ = _generate(handle.host, handle.port, {"prompt": PROMPT, "max_new_tokens": 40})
            assert len(_engine_threads()) == 1
            reader = threading.Thread(target=_read_to_done, args=(conn,))
            reader.start()
            handle.stop(drain=drain)
            assert _engine_threads() == []
            reader.join(timeout=GUARD_S)
            assert not reader.is_alive()
            conn.close()
        assert not engine.has_work
        (reason,) = handle.server.finish_reasons
        assert reason == "length" if drain else reason in ("cancelled", "length")

    def test_serve_in_thread_exit_joins_the_engine_thread(self, tiny_model):
        with serve_in_thread(InferenceEngine(tiny_model, max_batch_size=2)):
            assert len(_engine_threads()) == 1
        assert _engine_threads() == []

    @pytest.mark.parametrize("drain", [True, False])
    def test_shutdown_on_a_caller_owned_loop(self, tiny_model, drain):
        async def main():
            engine = InferenceEngine(tiny_model, max_batch_size=2)
            server = MambaServer(engine, ServerConfig(bench_mode=True))
            await server.start()
            engine.submit(server._build_request({"prompt": PROMPT, "max_new_tokens": 5}))
            assert len(_engine_threads()) == 1
            await server.shutdown(drain=drain)  # drains in bench mode too
            return engine

        engine = asyncio.run(main())
        assert _engine_threads() == []
        assert not engine.has_work


class TestBenchLockstep:
    def test_step_frames_precede_the_bench_step_reply(self, tiny_model, monkeypatch):
        """FIFO hand-off: by the time the ``/bench/step`` reply is written, the
        step's token / ``step``-marker / ``done`` frames have been handed to
        their transports (and, on loopback, to the kernel)."""
        log = []  # appended to on the loop thread only: a total order
        servers = []

        def spy(name):
            original = getattr(MambaServer, name)

            def wrapper(self, *args):
                servers.append(self)
                log.append((name, args))
                return original(self, *args)

            monkeypatch.setattr(MambaServer, name, wrapper)

        for name in ("_deliver_token", "_deliver_done", "_deliver_marker"):
            spy(name)
        send_json = MambaServer._send_json

        async def spy_send_json(writer, status, payload):
            if "engine_step" in payload:
                unsent = sum(
                    s.transport.get_write_buffer_size()
                    for s in servers[-1]._streams.values()
                )
                log.append(("reply", (payload["engine_step"], unsent)))
            await send_json(writer, status, payload)

        monkeypatch.setattr(server_module.MambaServer, "_send_json", staticmethod(spy_send_json))

        references = {n: list(greedy_decode(tiny_model, PROMPT + [n], 6).tokens) for n in (0, 1)}
        engine = _bench_engine(tiny_model, max_batch_size=2)
        with serve_in_thread(engine, config=_bench_config()) as handle:
            host, port = handle.host, handle.port
            conns = {
                n: _generate(host, port, {"prompt": PROMPT + [n], "max_new_tokens": 6})[0]
                for n in (0, 1)
            }
            received = {n: [] for n in conns}
            finished = set()
            while len(finished) < len(conns):
                step = _step(host, port)["engine_step"]
                # The reply has been read: each open stream yields this step's
                # token and then its marker (or its done), nothing older.
                for n, conn in conns.items():
                    if n in finished:
                        continue
                    while True:
                        event, data = conn.next_event()
                        if event == "token":
                            assert data["step"] == step
                            received[n].append(data["token"])
                        elif event == "done":
                            finished.add(n)
                            break
                        else:
                            assert (event, data) == ("step", {"step": step})
                            break
            for conn in conns.values():
                conn.close()
        assert received == references
        # Server side: between consecutive replies lie exactly that step's frames.
        step, frames = 0, 0
        for name, args in log:
            if name == "reply":
                step += 1
                assert args == (step, 0)  # in order, nothing left unsent
                assert frames >= 1  # at least the marker
                frames = 0
            else:
                frames += 1
                if name == "_deliver_token":
                    assert args[1]["step"] == step + 1
        assert frames == 0 and step >= 6


class TestEngineThreadFailure:
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_raising_model_fails_commands_and_shutdown_instead_of_hanging(self, tiny_model):
        class Broken(GatedModel):
            def step(self, tokens, cache):
                raise RuntimeError("kernel fell over")

        engine = _bench_engine(Broken(tiny_model))  # no resilience supervisor
        with serve_in_thread(engine, config=_bench_config()) as handle:
            host, port = handle.host, handle.port
            conn, _ = _generate(host, port, {"prompt": PROMPT, "max_new_tokens": 4})
            stepper = _Conn(host, port)
            stepper.send("POST", "/bench/step")
            with pytest.raises(ConnectionError):  # closed without a reply
                stepper.read_head()
            stepper.close()
            _spin_until(lambda: _engine_threads() == [], "the engine thread ending")
            # Later commands fail at once rather than queueing for a dead thread...
            canceller = _Conn(host, port)
            canceller.send("POST", "/v1/cancel/0")
            with pytest.raises(ConnectionError):
                canceller.read_head()
            canceller.close()
            conn.close()
            # ...and shutdown reports the failure after tearing everything down.
            with pytest.raises(RuntimeError, match="kernel fell over"):
                handle.stop()
        assert not handle._thread.is_alive()


class TestStress:
    def test_mixed_clients_retire_exactly_once_under_a_short_switch_interval(self, tiny_model):
        """More client threads than cores against the free-running server,
        with the interpreter switching threads every 10 us: streamed,
        non-streamed and hanging-up clients interleave with engine steps.  A
        lost update on either side of the hand-off would break the books."""
        clients, rounds = 6, 6
        jobs = {
            (k, j): (PROMPT + [k, j], 3 + (k + j) % 5)
            for k in range(clients) for j in range(rounds)
        }
        references = {
            key: list(greedy_decode(tiny_model, prompt, budget).tokens)
            for key, (prompt, budget) in jobs.items()
        }
        results, errors = {}, []

        def client(k, host, port):
            try:
                for j in range(rounds):
                    prompt, budget = jobs[k, j]
                    payload = {"prompt": prompt, "max_new_tokens": budget}
                    mode = (k + j) % 3
                    if mode == 0:
                        status, reply = _request_json(
                            host, port, "POST", "/v1/generate", payload=dict(payload, stream=False)
                        )
                        assert status == 200 and len(reply["token_events"]) == budget
                        results[k, j] = reply["tokens"]
                        continue
                    conn, _ = _generate(host, port, payload)
                    if mode == 1:
                        tokens, done = _read_to_done(conn)
                        assert tokens == done["tokens"]
                        with pytest.raises(StopIteration):  # nothing follows `done`
                            conn.next_event()
                        results[k, j] = tokens
                    else:
                        event, data = conn.next_event()  # one token, then hang up
                        assert event == "token" and data["token"] == references[k, j][0]
                    conn.close()
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            engine = InferenceEngine(tiny_model, max_batch_size=3)
            with serve_in_thread(engine) as handle:
                threads = [
                    threading.Thread(target=client, args=(k, handle.host, handle.port))
                    for k in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
                assert errors == []
                _spin_until(
                    lambda: not engine.has_work
                    and sum(handle.server.finish_reasons.values()) == len(jobs),
                    "every request retiring",
                )
                stats = _stats(handle.host, handle.port)
        finally:
            sys.setswitchinterval(interval)
        assert results == {key: references[key] for key in results}
        assert len(results) == sum(1 for k, j in jobs if (k + j) % 3 != 2)
        assert stats["requests_accepted"] == len(jobs)
        assert sum(stats["finish_reasons"].values()) == len(jobs)  # exactly once each
        assert set(stats["finish_reasons"]) <= {"length", "cancelled"}
        assert stats["engine"]["cancelled"] == stats["finish_reasons"].get("cancelled", 0)
        assert stats["engine"]["cancelled"] <= stats["disconnect_cancels"]
        assert stats["active_slots"] == stats["open_streams"] == 0
