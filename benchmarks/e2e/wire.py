"""The load generator for ``wire_*``: blocking-socket HTTP/SSE clients, closed loop.

Each client thread owns one seeded script stream and at most one open
connection: it sends its next request only when the previous one has
completed, so with two clients no more than two requests are in flight and
there is no arrival schedule (hence no generator-lateness figure).  Two
clients because the sandbox has two cores: the server worker occupies one and
the client threads, which spend their time blocked in ``recv``, share the
other.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from benchmarks.e2e.workloads import Spec

TIMEOUT_S = 60.0


def _open(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_head(reader) -> Dict[str, str]:
    status = reader.readline().decode("latin-1").split(" ", 2)
    if len(status) < 2 or status[1] != "200":
        raise RuntimeError(f"unexpected status line {status!r}")
    headers: Dict[str, str] = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


def generate(host: str, port: int, spec: Spec, origin: float) -> Dict[str, Any]:
    """Send one request and record every event's arrival on the client clock.

    Times are seconds since ``origin``: ``begin`` (before connect), ``written``
    (request bytes handed to the kernel), ``start`` (``start`` event), one
    entry of ``times`` per ``token`` event, ``done``.  A non-streamed request
    has no client-side token times.
    """
    clock = time.perf_counter
    record: Dict[str, Any] = {"id": spec["id"], "times": [], "steps": []}
    payload = {k: spec[k] for k in ("prompt", "max_new_tokens", "stream")}
    payload.update({k: spec[k] for k in ("temperature", "top_k", "seed") if k in spec})
    body = json.dumps(payload).encode()
    head = (
        "POST /v1/generate HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    try:
        record["begin"] = clock() - origin
        with _open(host, port) as sock, sock.makefile("rb") as reader:
            sock.sendall(head + body)
            record["written"] = clock() - origin
            headers = _read_head(reader)
            if spec["stream"]:
                done = _read_events(reader, record, origin)
            else:
                done = json.loads(reader.read(int(headers["content-length"])))
                record["done"] = clock() - origin
        record["tokens"] = done["tokens"]
        record["finish_reason"] = done["finish_reason"]
        record["queue_wait_iters"] = done["latency"]["queue_wait_iterations"]
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        record["error"] = repr(exc)
    return record


def _read_events(reader, record: Dict[str, Any], origin: float) -> Dict[str, Any]:
    clock = time.perf_counter
    event = ""
    while True:
        line = reader.readline()
        if not line:
            raise RuntimeError("stream ended before the done event")
        if line.startswith(b"event:"):
            event = line[6:].strip().decode()
        elif line.startswith(b"data:"):
            arrived = clock() - origin
            data = json.loads(line[5:])
            if event == "start":
                record["start"] = arrived
            elif event == "token":
                record["times"].append(arrived)
                record["steps"].append(data["step"])
            elif event == "done":
                record["done"] = arrived
                return data


def healthz(host: str, port: int) -> float:
    """Seconds for one ``GET /healthz`` (connect to body read)."""
    began = time.perf_counter()
    with _open(host, port) as sock, sock.makefile("rb") as reader:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
        headers = _read_head(reader)
        json.loads(reader.read(int(headers["content-length"])))
    return time.perf_counter() - began


class _Client(threading.Thread):
    def __init__(self, host, port, specs: Iterator[Spec], origin, seconds, limit, probe_health):
        super().__init__(name="e2e-client")
        self.host, self.port, self.specs, self.origin = host, port, specs, origin
        self.seconds, self.limit, self.probe_health = seconds, limit, probe_health
        self.records: List[Dict[str, Any]] = []
        self.health_s: List[float] = []

    def _more(self) -> bool:
        if self.limit is not None:
            return len(self.records) < self.limit
        return time.perf_counter() - self.origin < self.seconds

    def run(self) -> None:
        while self._more():
            spec = next(self.specs)
            time.sleep(spec["think_s"])
            self.records.append(generate(self.host, self.port, spec, self.origin))
            if self.probe_health:
                # The other client is normally mid-stream here, so this is the
                # event loop's responsiveness under load.
                try:
                    self.health_s.append(healthz(self.host, self.port))
                except (OSError, RuntimeError, ValueError, KeyError):
                    pass


def run_clients(
    host: str,
    port: int,
    scripts: List[Iterator[Spec]],
    seconds: Optional[float] = None,
    limit: Optional[int] = None,
    probe_health: bool = False,
) -> Dict[str, Any]:
    """Drive one closed-loop client per script until ``seconds`` or ``limit`` each."""
    origin = time.perf_counter()
    clients = [
        _Client(host, port, specs, origin, seconds, limit, probe_health) for specs in scripts
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    return {
        "records": [r for c in clients for r in c.records],
        "health_s": [h for c in clients for h in c.health_s],
        "end_s": time.perf_counter() - origin,
    }
