"""Batched serving on top of the Mamba2 decode path.

Mamba decode has *constant* per-token state (the fixed-size recurrent cache,
Fig. 9a of the LightMamba paper), which makes large-batch decode cheap: a
batch of requests is a leading ``(batch, ...)`` axis on the same state
tensors, and every decode step reads the weights once for the whole batch.
This package is the serving stack built on that property:

- :class:`~repro.serving.engine.InferenceEngine` -- *continuous batching* over
  a request stream (and the one way to decode a fixed batch:
  ``InferenceEngine(model, max_batch_size=len(requests)).run(requests)``):
  ragged prompts, per-request stop tokens, length budgets and sampling seeds,
  optional token streaming.  A thread-safe
  :class:`~repro.serving.queue.RequestQueue` (injected clock, priorities,
  deadlines, cancellation) feeds a pluggable admission
  :class:`~repro.serving.scheduler.Scheduler` --
  :class:`~repro.serving.scheduler.FIFOScheduler` (default, the historical
  behavior), :class:`~repro.serving.scheduler.PriorityScheduler`, or the
  token-budget :class:`~repro.serving.scheduler.PagedScheduler` that
  interleaves chunked-prefill pages with in-flight decode -- and the engine
  hands each request's :class:`~repro.serving.events.RequestLatency` record
  over on its completion (keeping nothing of it afterwards), supports
  ``cancel(request_id)``, and streams tokens through an ``on_token`` callback.
- :mod:`~repro.serving.events` -- the engine's one record of what it did:
  each fact is one :class:`~repro.serving.events.Event` (the kinds are listed
  on it) in a bounded ring per engine (``engine.events``).  The counters
  (``engine.stats``, ``/stats``) and latency records are folds over it; the
  supervisor's log and the load harness's per-step prompt work are views of
  it.
- :class:`~repro.serving.server.MambaServer` -- an asyncio HTTP + SSE wire
  front-end over the engine (stdlib streams only): ``POST /v1/generate``
  streams tokens as Server-Sent Events, client disconnects become
  ``cancel``, ``X-Priority`` / ``X-Deadline-S`` headers map onto the queue,
  ``/healthz`` + ``/stats`` expose the counters, and shutdown drains
  in-flight requests exactly-once.  Its seeded load harness is
  ``benchmarks/bench_serving_load.py``.
- :mod:`~repro.serving.resilience` -- the fault-injection / self-healing
  layer: a deterministic :class:`~repro.serving.resilience.FaultInjector`
  (seeded :class:`~repro.serving.resilience.FaultPlan` schedules addressable
  by engine iteration, request, and call site) drives the
  :class:`~repro.serving.resilience.Supervisor`, a wrapper around the
  engine's :class:`~repro.serving.runner.ModelRunner` (the one model-call
  site) that snapshots integer-resident SSM state before each supervised
  model call, isolates faulting requests, rolls survivors back bit-exactly,
  retries with capped exponential backoff, degrades repeat offenders to the
  sequential oracle, and quarantines hopeless requests with
  ``finish_reason="error"``.  ``benchmarks/chaos_soak.py`` soaks it under
  randomized fault schedules and checks the conservation invariants.

The engine, and so the server over it, reproduces the single-sequence decoders
in :mod:`repro.mamba.generation` request for request: token selection shares the
exact same arithmetic, and the model math is numerically equivalent to 1e-10
(batched BLAS kernels may round differently in the last bits, so a token
choice could in principle flip at an exact logit tie).  Scheduling policy
changes *when* work runs, never *what* it produces.

Example
-------
>>> from repro.mamba import InitConfig, Mamba2Model, get_preset
>>> from repro.serving import InferenceEngine, Request
>>> model = Mamba2Model.from_config(get_preset("mamba2-tiny"), InitConfig(seed=0))
>>> engine = InferenceEngine(model, max_batch_size=2)
>>> _ = engine.submit(Request(prompt=(1, 2, 3), max_new_tokens=4))
>>> _ = engine.submit(Request(prompt=(5, 6), max_new_tokens=2, temperature=0.8, top_k=16))
>>> completions = engine.run()
>>> [c.request_id for c in completions]
[0, 1]
>>> [c.finish_reason for c in completions]
['length', 'length']
"""

from repro.serving.engine import Completion, InferenceEngine, Request
from repro.serving.events import EngineStats, Event, EventLog, RequestLatency
from repro.serving.queue import QueueEntry, RequestQueue
from repro.serving.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    IterationTimeout,
    ManualClock,
    ResilienceConfig,
    StateCorruptionError,
)
from repro.serving.scheduler import (
    AdmissionPlan,
    FIFOScheduler,
    PagedScheduler,
    PrefillView,
    PriorityScheduler,
    Scheduler,
    SchedulerContext,
    TokenLedger,
)
from repro.serving.server import MambaServer, ServerConfig, serve_in_thread

__all__ = [
    "AdmissionPlan",
    "Completion",
    "EngineStats",
    "Event",
    "EventLog",
    "FIFOScheduler",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InferenceEngine",
    "IterationTimeout",
    "MambaServer",
    "ManualClock",
    "PagedScheduler",
    "PrefillView",
    "PriorityScheduler",
    "QueueEntry",
    "Request",
    "RequestLatency",
    "RequestQueue",
    "ResilienceConfig",
    "Scheduler",
    "SchedulerContext",
    "ServerConfig",
    "StateCorruptionError",
    "TokenLedger",
    "serve_in_thread",
]
