"""The child process that holds the program under test.

One worker is launched per run (BLAS/OMP threads pinned to 1 by the parent).
It builds the quantized model once, then answers one JSON command per line on
stdin with one JSON reply per line on stdout:

``warmup``        one 8-token prompt / 8 new tokens through a fresh engine
``engine_run``    closed-loop in-process callers against a fresh engine
``serve_start``   host a ``MambaServer`` on a background event-loop thread
``serve_stop``    drain it and return its ``/stats`` snapshot
``trace_on``      install the span wrappers (engines built afterwards are traced)
``trace_metrics`` summarise (and optionally write out) the spans, then clear them
``micro``         the fixed-shape micro-calls and the accelerator figures
``reference``     solo ``greedy_decode`` / ``sample_decode`` of given specs
``exit``          reply with the high-water RSS and stop

For ``wire_*`` workloads the worker is the server and the parent process is
the only load generator.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import threading
import time
from typing import Any, Dict, Optional


class Worker:
    def __init__(self) -> None:
        began = time.perf_counter()
        from benchmarks.e2e import target

        imported = time.perf_counter()
        self.target = target
        self.fp_model = target.build_fp_model()
        built = time.perf_counter()
        self.model = target.quantize(self.fp_model)
        quantized = time.perf_counter()
        self.setup = {
            "import_s": imported - began,
            "build_s": built - imported,
            "quantize_s": quantized - built,
        }
        self.tracer = None
        self._server = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def _engine(self, slots: int):
        engine = self.target.build_engine(self.model, slots)
        if self.tracer is not None:
            from benchmarks.e2e import spans

            spans.install_engine(self.tracer, engine)
        return engine

    # ------------------------------------------------------------------
    def op_warmup(self, slots: int) -> Dict[str, Any]:
        request = self.target.make_request({"prompt": list(range(1, 9)), "max_new_tokens": 8})
        done = self._engine(slots).run([request])
        return {"n_tokens": len(done[0].result.tokens)}

    def op_engine_run(
        self, workload: str, seed: int, seconds: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Closed loop in process: ``callers`` requests in flight; a finished
        request's caller submits the next spec of the script at once.  Stops
        submitting after ``seconds`` (timed run: warm-up and window together)
        or ``limit`` requests (traced run), then drains."""
        from benchmarks.e2e.workloads import WORKLOADS, script

        load = WORKLOADS[workload]
        engine = self._engine(load.slots)
        specs = script(load, seed)
        clock = time.perf_counter
        records: Dict[int, Dict[str, Any]] = {}

        def on_token(request_id: int, token: int, logprob: float) -> None:
            records[request_id]["times"].append(clock() - began)

        def submit_next() -> None:
            spec = next(specs)
            submitted = clock() - began
            request_id = engine.submit(self.target.make_request(spec))
            records[request_id] = {"id": spec["id"], "submit": submitted, "times": []}

        began = clock()
        sent = 0
        for _ in range(load.callers):
            if limit is None or sent < limit:
                submit_next()
                sent += 1
        while engine.has_work:
            for completion in engine.step(on_token=on_token):
                record = records[completion.request_id]
                record["done"] = clock() - began
                record["tokens"] = [int(t) for t in completion.result.tokens]
                record["finish_reason"] = completion.finish_reason
                record["queue_wait_iters"] = completion.latency.queue_wait_iterations
                more = sent < limit if limit is not None else clock() - began < seconds
                if more:
                    submit_next()
                    sent += 1
        return {
            "records": list(records.values()),
            "end_s": clock() - began,
            "engine": vars(engine.stats),
            "rss_mb": rss_mb(),
        }

    # ------------------------------------------------------------------
    def op_serve_start(self, slots: int) -> Dict[str, Any]:
        server = self.target.build_server(self._engine(slots))
        loop = asyncio.new_event_loop()
        started = threading.Event()
        box: Dict[str, Any] = {}

        def host() -> None:
            asyncio.set_event_loop(loop)
            try:
                box["address"] = loop.run_until_complete(server.start())
            except Exception as exc:  # reported to the parent by the main thread
                box["error"] = repr(exc)
            finally:
                started.set()
            if "address" in box:
                loop.run_forever()
            loop.close()

        thread = threading.Thread(target=host, name="e2e-server")
        thread.start()
        if not started.wait(timeout=30) or "error" in box:
            raise RuntimeError(f"server failed to start: {box.get('error', 'timeout')}")
        self._server, self._loop, self._thread = server, loop, thread
        host_name, port = box["address"]
        return {"host": host_name, "port": port}

    def op_serve_stop(self) -> Dict[str, Any]:
        server, loop, thread = self._server, self._loop, self._thread
        asyncio.run_coroutine_threadsafe(server.shutdown(), loop).result(timeout=60)
        snapshot = server.stats_snapshot()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=60)
        if thread.is_alive():
            raise RuntimeError("server thread did not stop")
        self._server = self._loop = self._thread = None
        return {"stats": snapshot, "rss_mb": rss_mb()}

    # ------------------------------------------------------------------
    def op_trace_on(self) -> Dict[str, Any]:
        from benchmarks.e2e import spans

        self.tracer = spans.Tracer()
        spans.install(self.tracer, self.model)
        return {}

    def op_trace_metrics(
        self, wall_s: float, prefilled_tokens: int, path: Optional[str] = None
    ) -> Dict[str, Any]:
        from benchmarks.e2e import spans

        metrics = spans.layer_metrics(self.tracer.spans, wall_s, prefilled_tokens)
        count = len(self.tracer.spans)
        if path:
            self.tracer.write(path)
        self.tracer.reset()
        return {"metrics": metrics, "spans": count}

    def op_micro(self, quick: bool) -> Dict[str, Any]:
        from benchmarks.e2e import micro

        began = time.perf_counter()
        w8a8 = self.target.quantize(self.fp_model, "w8a8")
        metrics = micro.model_micro(self.model, w8a8, quick)
        metrics.update(micro.accelerator_metrics(self.target.CONFIG))
        return {"metrics": metrics, "micro_s": time.perf_counter() - began}

    def op_reference(self, specs) -> Dict[str, Any]:
        return {"tokens": [self.target.reference_tokens(self.model, spec) for spec in specs]}


def rss_mb() -> float:
    """High-water resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    replies = sys.stdout
    sys.stdout = sys.stderr  # nothing but replies may reach the parent's pipe
    worker = Worker()
    replies.write(json.dumps({"setup": worker.setup}) + "\n")
    replies.flush()
    for line in sys.stdin:
        command = json.loads(line)
        op = command.pop("op")
        if op == "exit":
            replies.write(json.dumps({"rss_mb": rss_mb()}) + "\n")
            replies.flush()
            return 0
        try:
            reply = getattr(worker, f"op_{op}")(**command)
        except Exception as exc:  # the parent turns this into a failed run
            import traceback

            traceback.print_exc()
            reply = {"error": f"{op}: {exc!r}"}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    if worker._thread is not None:  # the parent went away mid-serve
        worker.op_serve_stop()
    return 0
