"""Continuous-batching inference engine with pluggable admission scheduling.

:class:`InferenceEngine` serves a *stream* of generation requests with a
fixed-size pool of batch slots.  Each engine step (i) applies the
:class:`~repro.serving.scheduler.Scheduler`'s admission plan -- resuming
in-flight chunked prefills, admitting waiting requests from the
:class:`~repro.serving.queue.RequestQueue` into free slots (prefilling their
prompts with the chunked scan -- the quantized chunk-parallel scan for
lightmamba* models -- and scattering the resulting recurrent state into the
slot), and, if the policy says so, preempting an in-flight prefill back to the
queue -- then (ii) advances every fully-prefilled slot by one decode token in a
single batched model call, and (iii) retires requests that hit their stop token
or length budget, freeing their slots.  Because the Mamba recurrent cache is
fixed-size, admission and eviction are plain ``gather`` / ``scatter`` row
operations on the batched cache -- no paged KV allocator is needed.

Scheduling is policy, results are not: every request reproduces what
:func:`~repro.mamba.generation.greedy_decode` (or ``sample_decode`` with the
request's seed) would produce on its own, no matter which other requests it
shared batches with or which scheduler ordered the admissions.  The default
:class:`~repro.serving.scheduler.FIFOScheduler` additionally reproduces the
pre-scheduler engine's *behavior* bit-for-bit (same prefill segmentation, same
admission order, same stats).

Beyond admission policy the engine provides the serving-layer plumbing the
policies need to be useful: per-request latency accounting
(:class:`RequestLatency`: queue wait, time-to-first-token and decode duration
in engine iterations, wall-clock arrival/admission stamps from the queue's
injected clock), :meth:`InferenceEngine.cancel` for waiting *and* in-flight
requests, per-request admission deadlines (expired requests retire with
``finish_reason="expired"``), and a streaming ``on_token`` callback fired for
every generated token as it is selected.

Failure semantics (the resilience supervisor)
---------------------------------------------
With a :class:`~repro.serving.resilience.ResilienceConfig` (implied by
passing a :class:`~repro.serving.resilience.FaultInjector`), every model call
is *supervised*: the affected slots' recurrent state is snapshotted first
(cheap -- Mamba state is fixed-size, and quantized models checkpoint resident
integer codes + PoT scales directly), the call runs on a working copy, and on
failure the faulting request is isolated (direct attribution for detected
corruption, binary search of the batch for a raising kernel), survivors
commit bit-exactly, and the culprit retries with capped exponential backoff
-- in place for decode, requeued with its ``prefill_pos`` progress preserved
for prefill -- until it recovers, degrades to the sequential oracle, or is
quarantined with ``finish_reason="error"``.  See
``src/repro/serving/README.md`` for the full state machine.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mamba.cache import InferenceCache
from repro.mamba.generation import GenerationResult
from repro.mamba.model import Mamba2Model
from repro.mamba.sampling import greedy_select, sample_select
from repro.serving.queue import Clock, QueueEntry, RequestQueue
from repro.serving.resilience import (
    FaultInjector,
    IterationTimeout,
    ResilienceConfig,
    ResilienceLog,
    StateCorruptionError,
    cache_unhealthy,
    unhealthy_rows,
)
from repro.serving.scheduler import (
    AdmissionPlan,
    FIFOScheduler,
    PrefillView,
    Scheduler,
    SchedulerContext,
)

__all__ = [
    "Completion",
    "EngineStats",
    "InferenceEngine",
    "Request",
    "RequestLatency",
    "TokenCallback",
]

#: Streaming callback: ``on_token(request_id, token, logprob)`` is invoked for
#: every generated token the moment it is selected, before the request
#: completes -- the serving layer's token-streaming hook.
TokenCallback = Callable[[int, int, float], None]


@dataclass(frozen=True)
class Request:
    """One generation request submitted to the engine.

    ``temperature is None`` selects greedy decoding; otherwise temperature /
    top-k sampling with the request's own RNG stream (``seed``).
    """

    prompt: Tuple[int, ...]
    max_new_tokens: int
    temperature: Optional[float] = None
    top_k: Optional[int] = None
    stop_token: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prompt", tuple(int(t) for t in self.prompt))
        if not self.prompt:
            raise ValueError(
                "prompt must be non-empty; encode an empty or whitespace-only "
                "input as a single BOS token"
            )
        if self.max_new_tokens < 0:
            raise ValueError("max_new_tokens must be non-negative")
        if self.temperature is None:
            if self.top_k is not None or self.seed is not None:
                raise ValueError(
                    "top_k / seed only apply to sampling; set a temperature "
                    "(greedy decoding ignores them)"
                )
        elif self.temperature <= 0:
            raise ValueError("temperature must be positive (or None for greedy)")
        if self.top_k is not None and self.top_k <= 0:
            raise ValueError("top_k must be positive when given")


@dataclass
class RequestLatency:
    """Per-request latency record, in engine iterations and wall-clock time.

    Iteration counts are deterministic (they depend only on the workload and
    the scheduling policy, not the machine); wall-clock stamps come from the
    queue's injected clock.  ``None`` step fields mean the event has not
    happened (yet).
    """

    request_id: int
    submitted_step: int
    submitted_at: float
    admitted_step: Optional[int] = None
    admitted_at: Optional[float] = None
    first_token_step: Optional[int] = None
    finished_step: Optional[int] = None
    decode_iterations: int = 0
    finish_reason: Optional[str] = None
    #: repr() of the first exception a user on_token callback raised for this
    #: request; streaming was disabled for the request from that token on.
    callback_error: Optional[str] = None

    @property
    def queue_wait_iterations(self) -> Optional[int]:
        """Full engine iterations spent waiting before first prompt work."""
        if self.admitted_step is None:
            return None
        return self.admitted_step - self.submitted_step - 1

    @property
    def ttft_iterations(self) -> Optional[int]:
        """Engine iterations from submission to the first generated token."""
        if self.first_token_step is None:
            return None
        return self.first_token_step - self.submitted_step - 1


@dataclass(frozen=True)
class Completion:
    """A finished request: its id, the request, result, and why it finished.

    ``finish_reason`` is one of ``"stop"`` (stop token), ``"length"`` (token
    budget, including zero-budget requests), ``"cancelled"``
    (:meth:`InferenceEngine.cancel`), ``"expired"`` (admission deadline
    passed while waiting) or ``"error"`` (the resilience supervisor
    quarantined the request after exhausting its retry budget, or a ``run()``
    guard aborted it; ``error`` then carries the ``repr`` of the final
    exception or the guard's message, and ``result`` keeps any tokens
    generated before the failure).  ``latency`` is the request's
    :class:`RequestLatency` record.
    """

    request_id: int
    request: Request
    result: GenerationResult
    finish_reason: str = "stop"
    latency: Optional[RequestLatency] = None
    error: Optional[str] = None


@dataclass
class EngineStats:
    """Aggregate counters for throughput accounting."""

    admitted: int = 0
    completed: int = 0
    cancelled: int = 0
    expired: int = 0
    preempted: int = 0
    engine_steps: int = 0
    decode_calls: int = 0
    decode_call_rows: int = 0
    decoded_tokens: int = 0
    prefill_calls: int = 0
    prefilled_tokens: int = 0
    # --- resilience ledger (all zero when no supervisor is configured) ---
    #: supervised model calls that failed (raise, corruption, or watchdog)
    faults: int = 0
    #: slot-state restores from a pre-iteration snapshot
    rollbacks: int = 0
    #: retries scheduled (with exponential backoff) after a fault
    retries: int = 0
    #: faulted requests that subsequently resumed cleanly
    recovered: int = 0
    #: faulted prefills requeued with their prefill_pos progress preserved
    requeued_faults: int = 0
    #: requests retired with finish_reason="error" after exhausting retries
    quarantined: int = 0
    #: requests degraded to the sequential-oracle fallback (the degradation
    #: ledger's aggregate; per-event detail in InferenceEngine.resilience_log)
    degraded: int = 0
    #: supervised calls that exceeded the iteration watchdog budget
    watchdog_timeouts: int = 0
    #: requests aborted by a run() guard (max_wall_seconds / max_idle_iterations)
    aborted: int = 0
    #: rows checkpointed by the supervisor, and their resident byte footprint
    snapshot_rows: int = 0
    snapshot_bytes: float = 0.0
    #: user on_token callbacks that raised (streaming then disabled) / were
    #: dropped by an injected fault
    callback_errors: int = 0
    callback_drops: int = 0
    #: batch slots retired from service after attributed corruption
    slots_quarantined: int = 0

    @property
    def tokens_per_decode_call(self) -> float:
        """Average batch occupancy of the decode calls (the batching win).

        Counts only rows actually advanced by batched decode calls; each
        request's first token comes from its prefill logits and is excluded,
        so this never exceeds the slot count.  An engine that never issued a
        decode call (nothing admitted, or only zero-budget requests) reports
        0.0 rather than dividing by zero.
        """
        return self.decode_call_rows / self.decode_calls if self.decode_calls else 0.0


@dataclass
class _Slot:
    """Book-keeping for one active request occupying a batch slot."""

    request_id: int
    request: Request
    rng: Optional[np.random.Generator]
    tokens: List[int] = field(default_factory=list)
    logprobs: List[float] = field(default_factory=list)
    #: Set after the request's on_token callback raises: the request keeps
    #: decoding, but no further tokens are streamed to it.
    streaming_disabled: bool = False


@dataclass
class _Recovery:
    """A decoding slot held in the supervisor's retry loop.

    The slot's committed cache row still holds the pre-fault state (failed
    calls run on working copies); ``snapshot`` is the authoritative 1-row
    checkpoint retries re-derive from, and ``token`` the already-selected
    (and already streamed / appended) token whose state advance failed.
    """

    snapshot: InferenceCache
    token: int
    attempts: int
    retry_step: int
    corruption: bool = False
    error: str = ""


@dataclass
class _PrefillProgress:
    """A request whose prompt is being prefilled across engine iterations.

    The slot is reserved but does not decode until the prompt is fully
    consumed; ``cache`` carries the exact recurrent state after ``pos``
    prompt tokens (the conv window continuation makes segment boundaries
    invisible to the math).  ``entry`` keeps the queue metadata (priority,
    arrival order) so the scheduler can reason about in-flight prefills and a
    preempted request re-enters the queue in its original position.
    """

    entry: QueueEntry
    cache: InferenceCache
    pos: int = 0

    @property
    def request_id(self) -> int:
        return self.entry.request_id

    @property
    def request(self) -> Request:
        return self.entry.request


class InferenceEngine:
    """Continuous batching over a stream of requests.

    Parameters
    ----------
    model:
        The (possibly quantized) Mamba2 model.
    max_batch_size:
        Number of batch slots (maximum concurrently decoding requests).
    seed:
        Base seed for sampled requests that do not carry their own ``seed``
        (request ``i`` then uses ``seed + i``).
    prefill_chunk_tokens:
        Back-compat shorthand for ``scheduler=FIFOScheduler(prefill_chunk_tokens=...)``:
        bounds how many *prompt* tokens the engine processes per iteration
        (chunked-prefill admission).  A long prompt is then prefilled across
        several engine steps -- its slot is reserved but in-flight decodes
        keep advancing every step, so one huge prompt can no longer stall the
        running batch.  ``None`` (default) prefills each admitted prompt in
        full at admission time.  For FP models chunked admission is exact
        regardless of the segment size.  For a quantized chunk-parallel model
        (lightmamba*), segmentation that lands on the model's ``chunk_size``
        boundaries is bit-exact with a one-shot prefill (the PoT state
        re-quantization is idempotent on chunk-aligned states); a
        chunk-aligned budget keeps a request's segments aligned *when it has
        the iteration's budget to itself*, but leftover budget shared with
        another request in the same iteration can still produce an unaligned
        segment, which shifts that prompt's state-quantization points by
        quantization-noise scale (an approximation, not an error).
    scheduler:
        The admission policy (see :mod:`repro.serving.scheduler`).  Defaults
        to :class:`~repro.serving.scheduler.FIFOScheduler`, which reproduces
        the pre-scheduler engine bit-for-bit.  Mutually exclusive with
        ``prefill_chunk_tokens``.
    clock:
        Time source for the request queue (arrival stamps, deadlines).
        Defaults to :func:`time.monotonic`; tests inject a fake clock.
    resilience:
        Supervisor policy (:class:`~repro.serving.resilience.ResilienceConfig`).
        When set (or implied by ``fault_injector``), model calls run
        supervised: snapshot, isolate, roll back, retry/requeue/degrade/
        quarantine (see the module docstring).  ``None`` (default) keeps the
        historical fail-fast behavior -- a model exception propagates out of
        :meth:`step`.
    fault_injector:
        Deterministic fault source for chaos testing
        (:class:`~repro.serving.resilience.FaultInjector`).  Implies a
        default ``resilience`` config when one is not given, since injected
        faults are only meaningful under supervision.
    """

    def __init__(
        self,
        model: Mamba2Model,
        max_batch_size: int = 8,
        seed: int = 0,
        prefill_chunk_tokens: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        clock: Optional[Clock] = None,
        resilience: Optional[ResilienceConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if scheduler is not None and prefill_chunk_tokens is not None:
            raise ValueError("pass prefill_chunk_tokens or scheduler, not both")
        self.model = model
        self.max_batch_size = max_batch_size
        self.seed = seed
        self.scheduler: Scheduler = (
            scheduler
            if scheduler is not None
            else FIFOScheduler(prefill_chunk_tokens=prefill_chunk_tokens)
        )
        self.stats = EngineStats()
        self.queue = RequestQueue() if clock is None else RequestQueue(clock=clock)
        self._submit_lock = threading.Lock()
        self._next_id = 0  # guarded-by: _submit_lock
        self._slots: List[Optional[_Slot]] = [None] * max_batch_size
        self._prefilling: Dict[int, _PrefillProgress] = {}
        self._parked: Dict[int, _PrefillProgress] = {}
        self._latency: Dict[int, RequestLatency] = {}  # guarded-by: _submit_lock
        self._pending_completions: List[Completion] = []
        # The model's own cache factory: lightmamba* models get a
        # codes-resident slot pool, so admission and eviction move integer
        # codes rather than floats.
        self._cache = model.new_cache(batch_size=max_batch_size)
        self._pending_logits = np.zeros(
            (max_batch_size, model.config.vocab_size), dtype=np.float64
        )
        # --- resilience supervisor state (consumer-thread only) ---
        if resilience is None and fault_injector is not None:
            resilience = ResilienceConfig()
        self.resilience = resilience
        self.fault_injector = fault_injector
        self.resilience_log = ResilienceLog()
        #: decoding slots held in the retry loop (slot_idx -> _Recovery)
        self._recovering: Dict[int, _Recovery] = {}
        #: cumulative fault attempts per request (persists across requeues)
        self._fault_attempts: Dict[int, int] = {}
        #: requests degraded to the sequential-oracle prefill fallback
        self._degraded: Set[int] = set()
        #: slots retired from service after attributed corruption
        self._quarantined_slots: Set[int] = set()

    @property
    def _supervised(self) -> bool:
        return self.resilience is not None

    @property
    def prefill_chunk_tokens(self) -> Optional[int]:
        """The FIFO policy's chunk budget, if the scheduler has one."""
        return getattr(self.scheduler, "prefill_chunk_tokens", None)

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        request: Request,
        *,
        priority: int = 0,
        deadline: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> int:
        """Queue a request; returns its request id.

        ``priority`` (higher = more urgent) is acted on by priority-aware
        schedulers and ignored by FIFO.  ``deadline`` is an absolute queue-clock
        time by which the request must be *admitted*; ``timeout`` is the same
        expressed relative to now.  A request still waiting past its deadline
        retires with ``finish_reason="expired"`` instead of running.

        ``submit`` is thread-safe (producers may call it from other threads,
        matching the queue's contract); :meth:`step` and :meth:`cancel` belong
        to the single consumer thread driving the engine.  Under
        :class:`~repro.serving.server.MambaServer` the producer is the event
        loop and the consumer is the server's ``mamba-engine`` thread.
        """
        vocab = self.model.config.vocab_size
        if min(request.prompt) < 0 or max(request.prompt) >= vocab:
            # Validate before allocating the id, so a rejected submit does not
            # shift the default per-request sampling seeds (seed + request_id).
            raise ValueError("prompt token id out of range")
        if deadline is not None and timeout is not None:
            raise ValueError("pass deadline or timeout, not both")
        if timeout is not None:
            if timeout < 0:
                raise ValueError("timeout must be non-negative")
            deadline = self.queue.clock() + timeout
        with self._submit_lock:
            request_id = self._next_id
            self._next_id += 1
            entry = self.queue.push(
                request_id, request, priority=priority, deadline=deadline
            )
            self._latency[request_id] = RequestLatency(
                request_id=request_id,
                submitted_step=self.stats.engine_steps,
                submitted_at=entry.arrival_time,
            )
        return request_id

    def cancel(self, request_id: int) -> bool:
        """Cancel a waiting or in-flight request.

        Returns ``True`` if the request was found (its ``"cancelled"``
        completion -- with any tokens generated so far -- is delivered by the
        next :meth:`step`), ``False`` if it is unknown or already finished.
        Cancelling an in-flight request frees its slot immediately.

        Consumer-thread only, like :meth:`step` (it edits the slot table the
        step iterates): :class:`~repro.serving.server.MambaServer` never calls
        it from the event loop but posts the cancel to its ``mamba-engine``
        thread, which applies it between steps.

        A cancel that races the request's *final* decode iteration (e.g. an
        ``on_token`` callback cancelling a request whose just-streamed token
        is its stop token or exhausts its budget) loses the race: the request
        has already finished, so it keeps its true ``"stop"`` / ``"length"``
        completion, is not retired twice, and ``cancel`` returns ``False``.
        """
        entry = self.queue.cancel(request_id)
        if entry is not None:
            # Waiting (possibly with parked preempted-prefill progress).
            self._parked.pop(request_id, None)
            self._finish(request_id, "cancelled")
            self.stats.cancelled += 1
            self._pending_completions.append(
                self._completion(request_id, entry.request, [], [], "cancelled")
            )
            return True
        for slot_idx, progress in list(self._prefilling.items()):
            if progress.request_id == request_id:
                del self._prefilling[slot_idx]
                self._finish(request_id, "cancelled")
                self.stats.cancelled += 1
                self._pending_completions.append(
                    self._completion(request_id, progress.request, [], [], "cancelled")
                )
                return True
        for slot_idx, slot in enumerate(self._slots):
            if slot is not None and slot.request_id == request_id:
                if self._slot_finished(slot):
                    # The request reached its stop token / length budget in
                    # this very iteration and is about to retire with its
                    # true finish reason -- cancelling now would double-retire
                    # the slot and overwrite "stop" with "cancelled".
                    return False
                self._slots[slot_idx] = None
                self._recovering.pop(slot_idx, None)
                self._finish(request_id, "cancelled")
                self.stats.cancelled += 1
                self._pending_completions.append(
                    self._completion(
                        request_id, slot.request, slot.tokens, slot.logprobs, "cancelled"
                    )
                )
                return True
        return False

    @staticmethod
    def _slot_finished(slot: _Slot) -> bool:
        """Whether a decoding slot's request already hit its terminal token.

        True only inside the window between token selection and retirement
        within one :meth:`step` (a finished slot is freed before the step
        returns); :meth:`cancel` uses it so the final decode iteration wins
        the race against a concurrent cancellation.
        """
        if not slot.tokens:
            return False
        request = slot.request
        if request.stop_token is not None and slot.tokens[-1] == request.stop_token:
            return True
        return len(slot.tokens) >= request.max_new_tokens

    def latency(self, request_id: int) -> RequestLatency:
        """The latency record of a submitted request (any lifecycle stage)."""
        with self._submit_lock:
            return self._latency[request_id]

    def clear_finished_latencies(self) -> int:
        """Drop latency records of finished requests; returns how many.

        Records accumulate for the engine's whole lifetime so that
        :meth:`latency` works after completion (benchmarks and tests rely on
        it); a long-running serving loop should call this periodically --
        every completion already carries its own record
        (:attr:`Completion.latency`), so nothing is lost.  Safe to call from
        any thread: the record table is guarded by the submit lock, so a
        sweep cannot race a concurrent :meth:`submit` inserting a record.
        """
        with self._submit_lock:
            finished = [
                request_id
                for request_id, record in self._latency.items()
                if record.finished_step is not None
            ]
            for request_id in finished:
                del self._latency[request_id]
        return len(finished)

    @property
    def num_latency_records(self) -> int:
        """Latency records currently held (finished ones sweep via
        :meth:`clear_finished_latencies`; the serving front-end exposes this
        so record leaks are observable from ``/stats``)."""
        with self._submit_lock:
            return len(self._latency)

    @property
    def num_waiting(self) -> int:
        return len(self.queue)

    @property
    def num_active(self) -> int:
        return sum(slot is not None for slot in self._slots)

    @property
    def num_prefilling(self) -> int:
        """Requests whose prompt is still being chunk-prefilled."""
        return len(self._prefilling)

    @property
    def has_work(self) -> bool:
        return (
            self.num_waiting > 0
            or self.num_active > 0
            or self.num_prefilling > 0
            or bool(self._pending_completions)
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # user-callback: on_token
    def step(self, on_token: Optional[TokenCallback] = None) -> List[Completion]:
        """Run one engine iteration; returns requests retired this step.

        Applies the scheduler's admission plan, advances all fully-prefilled
        slots by one token with a single batched decode call, and retires
        finished requests.  ``on_token`` (if given) is called as
        ``on_token(request_id, token, logprob)`` for every token selected this
        step, before its completion (if any) is returned -- the streaming
        hook.  A raising callback never corrupts engine state: the exception
        is caught, recorded on the request's latency record
        (:attr:`RequestLatency.callback_error`), and streaming is disabled
        for that request only.

        Under a resilience supervisor the step additionally retries faulted
        slots whose backoff has elapsed (before planning, so freed or
        recovered slots are visible to the scheduler and rejoin decode in the
        same iteration) and routes decode through the supervised
        snapshot/rollback path.
        """
        self.stats.engine_steps += 1
        completions: List[Completion] = []
        if self._pending_completions:
            completions.extend(self._pending_completions)
            self._pending_completions.clear()
        completions.extend(self._expire())
        if self._supervised and self._recovering:
            completions.extend(self._retry_recoveries())
        plan = self.scheduler.plan(
            self.queue.entries(engine_step=self.stats.engine_steps), self._context()
        )
        completions.extend(self._apply_plan(plan))
        # Slots in the retry loop already selected (and streamed) a token;
        # they have no fresh logits until their state advance succeeds.
        active = [
            i
            for i, slot in enumerate(self._slots)
            if slot is not None and i not in self._recovering
        ]
        if not active:
            return completions

        chosen = np.zeros(len(active), dtype=np.int64)
        survivors: List[int] = []
        for row, slot_idx in enumerate(active):
            slot = self._slots[slot_idx]
            if slot is None:
                # Cancelled mid-step by an earlier slot's on_token callback;
                # its cancelled completion is already pending.
                continue
            token, logprob = self._select(slot, self._pending_logits[slot_idx])
            slot.tokens.append(token)
            slot.logprobs.append(logprob)
            chosen[row] = token
            self.stats.decoded_tokens += 1
            with self._submit_lock:
                latency = self._latency[slot.request_id]
                if latency.first_token_step is None:
                    latency.first_token_step = self.stats.engine_steps
                latency.decode_iterations += 1
            if on_token is not None and not slot.streaming_disabled:
                if self.fault_injector is not None and self.fault_injector.drop_callback(
                    self.stats.engine_steps, slot.request_id
                ):
                    self.stats.callback_drops += 1
                    self._log("callback_drop", request_id=slot.request_id)
                else:
                    try:
                        on_token(slot.request_id, token, logprob)
                    except Exception as exc:
                        # A user callback must never unwind the engine: record
                        # the failure and stop streaming this request only.
                        slot.streaming_disabled = True
                        self.stats.callback_errors += 1
                        with self._submit_lock:
                            self._latency[slot.request_id].callback_error = repr(exc)
                        self._log(
                            "callback_error", request_id=slot.request_id, detail=repr(exc)
                        )
            if self._slots[slot_idx] is not slot:
                # The callback cancelled this very request: its completion
                # (including the token just streamed) is already pending;
                # don't retire it twice or decode it further.
                continue
            request = slot.request
            stopped = request.stop_token is not None and token == request.stop_token
            done = stopped or len(slot.tokens) >= request.max_new_tokens
            if done:
                completions.append(
                    self._retire(slot_idx, "stop" if stopped else "length")
                )
            else:
                survivors.append(row)

        # A later slot's on_token callback may have cancelled an earlier slot
        # that was already recorded as a survivor; don't decode freed slots.
        survivors = [row for row in survivors if self._slots[active[row]] is not None]
        if survivors:
            slot_indices = [active[row] for row in survivors]
            if self._supervised:
                completions.extend(
                    self._supervised_decode(slot_indices, chosen[survivors])
                )
            elif len(slot_indices) == self.max_batch_size:
                # Full batch: every slot survives, so step the slot cache in
                # place and skip the per-token gather/scatter copies.
                logits = self.model.step(chosen[survivors], self._cache)
                self.stats.decode_calls += 1
                self.stats.decode_call_rows += len(slot_indices)
                self._pending_logits[slot_indices] = logits
            else:
                batch = self._cache.gather(slot_indices)
                logits = self.model.step(chosen[survivors], batch)
                self._cache.scatter(slot_indices, batch)
                self.stats.decode_calls += 1
                self.stats.decode_call_rows += len(slot_indices)
                self._pending_logits[slot_indices] = logits
        return completions

    def run(
        self,
        requests: Optional[Sequence[Request]] = None,
        *,
        on_token: Optional[TokenCallback] = None,
        max_wall_seconds: Optional[float] = None,
        max_idle_iterations: Optional[int] = None,
    ) -> List[Completion]:
        """Submit ``requests`` (if given) and step until the engine drains.

        Returns all completions produced during the drain, ordered by request
        id.  ``on_token`` streams every generated token (see :meth:`step`).

        Two liveness guards bound the drain so a stuck request (or a
        scheduler that stops making progress) can never hang the loop:
        ``max_wall_seconds`` caps the total drain time on the queue's
        (injectable) clock, and ``max_idle_iterations`` caps *consecutive*
        iterations that neither process a token nor retire a request.  When a
        guard trips, every outstanding request -- waiting (including
        backoff-held), prefilling, retrying, or decoding -- is aborted with
        ``finish_reason="error"`` (tokens generated so far are kept in the
        completion), so the drain still terminates with exactly one
        completion per submitted request.  Pick ``max_idle_iterations``
        larger than the supervisor's ``backoff_cap_iterations``: a slot
        waiting out its retry backoff is idle by this definition.
        """
        if max_wall_seconds is not None and max_wall_seconds <= 0:
            raise ValueError("max_wall_seconds must be positive (or None)")
        if max_idle_iterations is not None and max_idle_iterations <= 0:
            raise ValueError("max_idle_iterations must be positive (or None)")
        if requests is not None:
            for request in requests:
                self.submit(request)
        completions: List[Completion] = []
        deadline = (
            None if max_wall_seconds is None else self.queue.clock() + max_wall_seconds
        )
        idle = 0
        while self.has_work:
            before = (self.stats.decoded_tokens, self.stats.prefilled_tokens)
            stepped = self.step(on_token=on_token)
            completions.extend(stepped)
            progressed = bool(stepped) or (
                (self.stats.decoded_tokens, self.stats.prefilled_tokens) != before
            )
            idle = 0 if progressed else idle + 1
            if not self.has_work:
                break
            if max_idle_iterations is not None and idle >= max_idle_iterations:
                completions.extend(
                    self._abort_outstanding(
                        f"engine made no progress for {idle} consecutive iterations"
                    )
                )
                break
            if deadline is not None and self.queue.clock() >= deadline:
                completions.extend(
                    self._abort_outstanding(
                        f"run() exceeded max_wall_seconds={max_wall_seconds}"
                    )
                )
                break
        return sorted(completions, key=lambda c: c.request_id)

    def _abort_outstanding(self, message: str) -> List[Completion]:
        """Retire every outstanding request with ``finish_reason="error"``.

        The ``run()`` guards' termination path: waiting entries (held or
        not), in-flight prefills (parked progress discarded), retrying and
        decoding slots all retire immediately, each keeping any tokens it
        generated.  The engine is drained afterwards (``has_work`` is false
        modulo completions already returned).
        """
        completions: List[Completion] = []
        if self._pending_completions:
            completions.extend(self._pending_completions)
            self._pending_completions.clear()
        for entry in self.queue.entries():
            self.queue.cancel(entry.request_id)
            self._parked.pop(entry.request_id, None)
            self._finish(entry.request_id, "error")
            self.stats.aborted += 1
            completions.append(
                self._completion(
                    entry.request_id, entry.request, [], [], "error", error=message
                )
            )
        for slot_idx, progress in list(self._prefilling.items()):
            del self._prefilling[slot_idx]
            self._finish(progress.request_id, "error")
            self.stats.aborted += 1
            completions.append(
                self._completion(
                    progress.request_id, progress.request, [], [], "error", error=message
                )
            )
        self._recovering.clear()
        for slot_idx, slot in enumerate(self._slots):
            if slot is None:
                continue
            self._slots[slot_idx] = None
            self._finish(slot.request_id, "error")
            self.stats.aborted += 1
            completions.append(
                self._completion(
                    slot.request_id, slot.request, slot.tokens, slot.logprobs, "error",
                    error=message,
                )
            )
        self._log("abort", detail=message)
        return completions

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _context(self) -> SchedulerContext:
        """The engine-state snapshot the scheduler plans against."""
        free = tuple(
            i
            for i in range(self.max_batch_size)
            if self._slots[i] is None
            and i not in self._prefilling
            and i not in self._quarantined_slots
        )
        prefilling = tuple(
            PrefillView(
                slot=slot_idx,
                request_id=progress.request_id,
                remaining_tokens=len(progress.request.prompt) - progress.pos,
                priority=progress.entry.priority,
                arrival_seq=progress.entry.arrival_seq,
            )
            for slot_idx, progress in sorted(self._prefilling.items())
        )
        return SchedulerContext(
            engine_step=self.stats.engine_steps,
            max_batch_size=self.max_batch_size,
            free_slots=free,
            prefilling=prefilling,
            num_decoding=self.num_active,
            quarantined_slots=tuple(sorted(self._quarantined_slots)),
        )

    def _expire(self) -> List[Completion]:
        """Retire waiting requests whose admission deadline has passed."""
        completions: List[Completion] = []
        for entry in self.queue.take_expired():
            self._parked.pop(entry.request_id, None)
            self._finish(entry.request_id, "expired")
            self.stats.expired += 1
            completions.append(
                self._completion(entry.request_id, entry.request, [], [], "expired")
            )
        return completions

    def _apply_plan(self, plan: AdmissionPlan) -> List[Completion]:
        """Mechanically apply one admission plan (no policy decisions here)."""
        completions: List[Completion] = []
        for slot_idx in plan.preempt:
            if slot_idx not in self._prefilling:
                raise ValueError(f"plan preempts slot {slot_idx}, which is not prefilling")
            progress = self._prefilling.pop(slot_idx)
            self._parked[progress.request_id] = progress
            # Record the parked position so schedulers budget only the
            # remaining prompt tokens on re-admission.
            progress.entry.prefill_pos = progress.pos
            self.queue.requeue(progress.entry)
            self.stats.preempted += 1
        for slot_idx, tokens in plan.resume:
            if slot_idx not in self._prefilling:
                raise ValueError(f"plan resumes slot {slot_idx}, which is not prefilling")
            if tokens is not None and tokens <= 0:
                raise ValueError("resume token grants must be positive (or None)")
            completions.extend(self._advance_prefill(slot_idx, tokens))
        free = [
            i
            for i in range(self.max_batch_size)
            if self._slots[i] is None
            and i not in self._prefilling
            and i not in self._quarantined_slots
        ]
        free_iter = iter(free)
        for request_id, tokens in plan.admit:
            if request_id not in self.queue:
                raise ValueError(f"plan admits request {request_id}, which is not queued")
            entry = self.queue.pop(request_id)
            with self._submit_lock:
                latency = self._latency[request_id]
                if latency.admitted_step is None:
                    # First admission only: a preempted-then-re-admitted
                    # request keeps one admitted count and its original
                    # admission stamp.
                    self.stats.admitted += 1
                    latency.admitted_step = self.stats.engine_steps
                    latency.admitted_at = self.queue.clock()
            if entry.request.max_new_tokens == 0:
                # Degenerate request: completes immediately, never holds a slot.
                self.stats.completed += 1
                self._finish(request_id, "length")
                completions.append(
                    self._completion(request_id, entry.request, [], [], "length")
                )
                continue
            try:
                slot_idx = next(free_iter)
            except StopIteration:
                raise ValueError("plan admits more requests than free slots") from None
            progress = self._parked.pop(request_id, None)
            if progress is None:
                progress = _PrefillProgress(entry=entry, cache=self.model.new_cache())
            self._prefilling[slot_idx] = progress
            completions.extend(self._advance_prefill(slot_idx, tokens))
        return completions

    def _advance_prefill(self, slot_idx: int, tokens: Optional[int]) -> List[Completion]:
        """Consume up to ``tokens`` prompt tokens of one in-flight prefill.

        The request's single-sequence cache is continued exactly across
        segments (chunked scan + conv-window carry); when the prompt is
        exhausted the request is installed into its slot with the true
        last-token logits pending, ready to decode this very iteration.

        Under supervision the segment runs against a pre-call snapshot of the
        progress cache: a failing segment (kernel raise, detected corruption,
        watchdog timeout) rolls the cache back and routes through
        :meth:`_handle_prefill_failure` (requeue with backoff, degrade, or
        quarantine -- whose completion is returned).
        """
        progress = self._prefilling[slot_idx]
        prompt = np.asarray(progress.request.prompt, dtype=np.int64)
        remaining = prompt.shape[0] - progress.pos
        take = remaining if tokens is None else min(remaining, tokens)
        if take <= 0:
            return []
        segment = prompt[progress.pos : progress.pos + take]
        if not self._supervised:
            logits, _ = self.model.prefill(segment, cache=progress.cache)
        else:
            request_id = progress.request_id
            snapshot = progress.cache.copy()
            self._record_snapshot(snapshot)
            corrupted = self._apply_corruption(
                "prefill", [request_id], progress.cache
            )
            guard = (
                np.errstate(invalid="ignore", over="ignore")
                if corrupted
                else nullcontext()
            )
            try:
                call = partial(self.model.prefill, segment, cache=progress.cache)
                if request_id in self._degraded:
                    # Graceful degradation: the per-token sequential oracle
                    # (the fake-quant step, no chunked scan), still
                    # integer-resident at the store.
                    call = partial(call, scan_impl="sequential")
                with guard:
                    logits, _ = self._model_call("prefill", [request_id], call)
                if not np.isfinite(logits).all() or cache_unhealthy(progress.cache):
                    raise StateCorruptionError(
                        f"non-finite state or logits after prefill of request "
                        f"{request_id}"
                    )
            except Exception as exc:
                progress.cache = snapshot
                self.stats.rollbacks += 1
                self._log(
                    "rollback", request_id=request_id, site="prefill", detail=repr(exc)
                )
                return self._handle_prefill_failure(slot_idx, exc)
            if self._fault_attempts.get(request_id):
                self.stats.recovered += 1
                self._fault_attempts[request_id] = 0
                self._log("recovered", request_id=request_id, site="prefill")
        progress.pos += take
        self.stats.prefill_calls += 1
        self.stats.prefilled_tokens += take
        if progress.pos == prompt.shape[0]:
            del self._prefilling[slot_idx]
            self._cache.scatter([slot_idx], InferenceCache.stack([progress.cache]))
            self._pending_logits[slot_idx] = logits
            request = progress.request
            rng = None
            if request.temperature is not None:
                rng_seed = (
                    request.seed
                    if request.seed is not None
                    else self.seed + progress.request_id
                )
                rng = np.random.default_rng(rng_seed)
            self._slots[slot_idx] = _Slot(
                request_id=progress.request_id, request=request, rng=rng
            )
        return []

    # ------------------------------------------------------------------
    # Resilience supervisor (consumer-thread only, like step/cancel)
    # ------------------------------------------------------------------
    def _log(
        self,
        action: str,
        request_id: Optional[int] = None,
        site: Optional[str] = None,
        detail: str = "",
    ) -> None:
        self.resilience_log.record(
            self.stats.engine_steps, action, request_id=request_id, site=site, detail=detail
        )

    def _record_snapshot(self, snapshot: InferenceCache) -> None:
        """Account a pre-iteration checkpoint in the stats ledger."""
        rows = snapshot.batch_size or 1
        self.stats.snapshot_rows += rows
        self.stats.snapshot_bytes += snapshot.resident_state_bytes()

    def _model_call(self, site: str, request_ids: List[int], call):
        """Run one supervised model call: injector hook plus watchdog.

        The injector may stall (advancing an injected clock) or raise before
        the call; the watchdog then converts a call whose wall time (on the
        queue's clock) exceeded the budget into an :class:`IterationTimeout`,
        which flows through the same retry/quarantine path as any failure --
        a stuck step becomes a timed-out retirement instead of a hung run.
        """
        clock = self.queue.clock
        start = clock()
        if self.fault_injector is not None:
            self.fault_injector.on_model_call(site, self.stats.engine_steps, request_ids)
        result = call()
        budget = self.resilience.watchdog_budget_s
        if budget is not None:
            elapsed = clock() - start
            if elapsed > budget:
                self.stats.watchdog_timeouts += 1
                self._log(
                    "watchdog",
                    request_id=request_ids[0] if len(request_ids) == 1 else None,
                    site=site,
                    detail=f"elapsed {elapsed:.3f}s > budget {budget:.3f}s",
                )
                raise IterationTimeout(
                    f"supervised {site} call took {elapsed:.3f}s "
                    f"(watchdog budget {budget:.3f}s)"
                )
        return result

    def _apply_corruption(
        self, site: str, request_ids: List[int], cache: InferenceCache
    ) -> List[int]:
        """Poison working-state rows the injector attributes a corruption to.

        The poison (non-finite conv-window taps) is applied to the *working
        copy* only -- committed slot state is untouched -- and surfaces in
        the post-call health check (:func:`~repro.serving.resilience.unhealthy_rows`),
        which gives the supervisor exact per-row attribution.
        """
        if self.fault_injector is None:
            return []
        rows = self.fault_injector.corrupt_rows(
            site, self.stats.engine_steps, request_ids
        )
        for row in rows:
            for layer in cache.layers:
                if layer.conv_state.ndim == 3:
                    layer.conv_state[row] = np.nan
                else:
                    layer.conv_state[...] = np.nan
            self._log("corrupt", request_id=request_ids[row], site=site)
        return rows

    def _supervised_decode(
        self, slot_indices: List[int], tokens: np.ndarray
    ) -> List[Completion]:
        """Advance surviving slots under the supervisor.

        Snapshots the affected rows, runs the batched decode on a working
        copy, and commits (scatter + pending logits) only healthy, successful
        rows -- so survivors of a faulting batch are bit-identical to a
        fault-free run by construction.  A raising call is isolated by
        binary-searching the batch; detected corruption carries its own
        per-row attribution.  Each faulting slot rolls back to its snapshot
        and enters the retry loop (:meth:`_retry_recoveries`) or is
        quarantined once its attempt budget is exhausted.
        """
        snapshot = self._cache.snapshot_rows(slot_indices)
        self._record_snapshot(snapshot)
        failures: List[Tuple[int, BaseException]] = []

        def solve(positions: List[int]) -> None:
            rows = [slot_indices[p] for p in positions]
            request_ids = [self._slots[r].request_id for r in rows]
            batch = snapshot.gather(positions)
            corrupted = self._apply_corruption("decode", request_ids, batch)
            guard = (
                np.errstate(invalid="ignore", over="ignore")
                if corrupted
                else nullcontext()
            )
            try:
                with guard:
                    logits = self._model_call(
                        "decode",
                        request_ids,
                        partial(self.model.step, tokens[positions], batch),
                    )
            except Exception as exc:
                if len(positions) == 1:
                    failures.append((positions[0], exc))
                    return
                # Isolate the culprit: binary-search the batch.  Healthy
                # halves commit on their own call; numerics are unchanged
                # because batch rows are independent (per-row quant grids).
                # A fault that does not reproduce on the halves was
                # transient: every row then commits from its snapshot.
                self._log(
                    "isolate",
                    site="decode",
                    detail=f"{len(positions)} rows, {exc!r}",
                )
                mid = len(positions) // 2
                solve(positions[:mid])
                solve(positions[mid:])
                return
            bad = set(unhealthy_rows(batch, logits))
            good = [i for i in range(len(positions)) if i not in bad]
            if good:
                good_rows = [rows[i] for i in good]
                self._cache.scatter(good_rows, batch.gather(good))
                self._pending_logits[good_rows] = logits[good]
                self.stats.decode_calls += 1
                self.stats.decode_call_rows += len(good)
            for i in sorted(bad):
                failures.append(
                    (
                        positions[i],
                        StateCorruptionError(
                            f"non-finite state or logits for request {request_ids[i]}"
                        ),
                    )
                )

        solve(list(range(len(slot_indices))))
        completions: List[Completion] = []
        for position, exc in failures:
            slot_idx = slot_indices[position]
            completions.extend(
                self._register_decode_failure(
                    slot_idx,
                    snapshot.gather([position]),
                    int(tokens[position]),
                    exc,
                )
            )
        return completions

    def _register_decode_failure(
        self,
        slot_idx: int,
        row_snapshot: InferenceCache,
        token: int,
        exc: BaseException,
    ) -> List[Completion]:
        """Roll one faulted decode row back and schedule its retry.

        The already-selected token stays appended (it was produced from the
        previous, healthy logits); only the state advance is retried.  The
        attempt budget spans the request's whole life (shared with prefill
        faults via ``_fault_attempts``); exhausting it quarantines the
        request immediately.
        """
        slot = self._slots[slot_idx]
        request_id = slot.request_id
        self.stats.faults += 1
        self._log("fault", request_id=request_id, site="decode", detail=repr(exc))
        # The committed row never saw the failed call (it ran on a working
        # copy), but restore explicitly so the invariant "a faulted slot's
        # state equals its snapshot" holds unconditionally.
        self._cache.restore_rows([slot_idx], row_snapshot)
        self.stats.rollbacks += 1
        self._log("rollback", request_id=request_id, site="decode")
        attempts = self._fault_attempts.get(request_id, 0) + 1
        self._fault_attempts[request_id] = attempts
        corruption = isinstance(exc, StateCorruptionError)
        recovery = self._recovering.get(slot_idx)
        if recovery is not None:
            recovery.attempts = attempts
            recovery.corruption = recovery.corruption or corruption
            recovery.error = repr(exc)
        else:
            recovery = _Recovery(
                snapshot=row_snapshot,
                token=token,
                attempts=attempts,
                retry_step=0,  # set below (quarantine path never reads it)
                corruption=corruption,
                error=repr(exc),
            )
            self._recovering[slot_idx] = recovery
        if attempts >= self.resilience.max_attempts:
            return [self._quarantine_active(slot_idx, exc, recovery.corruption)]
        backoff = self.resilience.backoff_iterations(attempts)
        recovery.retry_step = self.stats.engine_steps + backoff
        self.stats.retries += 1
        self._log(
            "backoff",
            request_id=request_id,
            site="decode",
            detail=f"attempt {attempts}, retry at step {recovery.retry_step}",
        )
        return []

    def _retry_recoveries(self) -> List[Completion]:
        """Re-attempt faulted decode slots whose backoff has elapsed.

        Runs before planning, so a recovered slot regains pending logits and
        rejoins the select/decode path in the same iteration, and a
        quarantined slot is visible as free (or quarantined) to the
        scheduler.  Retries re-derive from the slot's bit-exact snapshot,
        feeding the same already-selected token, so a recovered request's
        stream is identical to a fault-free run.
        """
        completions: List[Completion] = []
        step_no = self.stats.engine_steps
        for slot_idx in sorted(self._recovering):
            recovery = self._recovering[slot_idx]
            if recovery.retry_step > step_no:
                continue
            slot = self._slots[slot_idx]
            request_id = slot.request_id
            batch = recovery.snapshot.gather([0])
            corrupted = self._apply_corruption("decode", [request_id], batch)
            guard = (
                np.errstate(invalid="ignore", over="ignore")
                if corrupted
                else nullcontext()
            )
            token = np.asarray([recovery.token], dtype=np.int64)
            try:
                with guard:
                    logits = self._model_call(
                        "decode", [request_id], partial(self.model.step, token, batch)
                    )
                if unhealthy_rows(batch, logits):
                    raise StateCorruptionError(
                        f"non-finite state or logits for request {request_id}"
                    )
            except Exception as exc:
                completions.extend(
                    self._register_decode_failure(
                        slot_idx, recovery.snapshot, recovery.token, exc
                    )
                )
                continue
            self._cache.scatter([slot_idx], batch)
            self._pending_logits[slot_idx] = logits[0]
            self.stats.decode_calls += 1
            self.stats.decode_call_rows += 1
            del self._recovering[slot_idx]
            self.stats.recovered += 1
            self._fault_attempts[request_id] = 0
            self._log("recovered", request_id=request_id, site="decode")
        return completions

    def _quarantine_active(
        self, slot_idx: int, exc: BaseException, corruption: bool
    ) -> Completion:
        """Retire a decoding slot's request with ``finish_reason="error"``."""
        slot = self._slots[slot_idx]
        self._slots[slot_idx] = None
        self._recovering.pop(slot_idx, None)
        request_id = slot.request_id
        self.stats.quarantined += 1
        self._finish(request_id, "error")
        if corruption:
            self._maybe_quarantine_slot(slot_idx)
        self._log("quarantine", request_id=request_id, site="decode", detail=repr(exc))
        return self._completion(
            request_id, slot.request, slot.tokens, slot.logprobs, "error", error=repr(exc)
        )

    def _maybe_quarantine_slot(self, slot_idx: int) -> None:
        """Retire a slot from service after an attributed corruption fault.

        Models a bad memory bank: the slot never re-enters the free list the
        scheduler sees.  At least one slot always stays in service, so the
        engine can still drain its queue (slowly) under a corruption storm.
        """
        if not self.resilience.quarantine_slots:
            return
        if slot_idx in self._quarantined_slots:
            return
        if self.max_batch_size - len(self._quarantined_slots) <= 1:
            return
        self._quarantined_slots.add(slot_idx)
        self.stats.slots_quarantined += 1
        self._log("slot_quarantine", detail=f"slot {slot_idx}")

    def _handle_prefill_failure(
        self, slot_idx: int, exc: BaseException
    ) -> List[Completion]:
        """Requeue (with backoff), degrade, or quarantine a faulted prefill.

        The progress cache was already rolled back by the caller; here the
        request leaves its reserved slot and either re-enters the queue --
        parked progress and ``prefill_pos`` preserved, held invisible to the
        scheduler until its backoff elapses -- or retires with
        ``finish_reason="error"`` once its attempt budget is exhausted.  An
        ``OverflowError`` (an integer kernel's static overflow guard --
        retrying cannot fix it) or ``degrade_after`` cumulative failures
        switch the request to the sequential-oracle fallback for all its
        remaining prefill work.
        """
        progress = self._prefilling.pop(slot_idx)
        request_id = progress.request_id
        self.stats.faults += 1
        self._log("fault", request_id=request_id, site="prefill", detail=repr(exc))
        attempts = self._fault_attempts.get(request_id, 0) + 1
        self._fault_attempts[request_id] = attempts
        corruption = isinstance(exc, StateCorruptionError)
        if request_id not in self._degraded and (
            isinstance(exc, OverflowError) or attempts >= self.resilience.degrade_after
        ):
            self._degraded.add(request_id)
            self.stats.degraded += 1
            self._log(
                "degrade",
                request_id=request_id,
                site="prefill",
                detail="sequential-oracle fallback",
            )
        if attempts >= self.resilience.max_attempts:
            self.stats.quarantined += 1
            self._finish(request_id, "error")
            if corruption:
                self._maybe_quarantine_slot(slot_idx)
            self._log(
                "quarantine", request_id=request_id, site="prefill", detail=repr(exc)
            )
            return [
                self._completion(
                    request_id, progress.request, [], [], "error", error=repr(exc)
                )
            ]
        entry = progress.entry
        entry.prefill_pos = progress.pos
        entry.hold_until_step = (
            self.stats.engine_steps + self.resilience.backoff_iterations(attempts)
        )
        self._parked[request_id] = progress
        self.queue.requeue(entry)
        self.stats.retries += 1
        self.stats.requeued_faults += 1
        self._log(
            "requeue",
            request_id=request_id,
            site="prefill",
            detail=(
                f"attempt {attempts}, prefill_pos {progress.pos}, "
                f"hold until step {entry.hold_until_step}"
            ),
        )
        return []

    def _select(self, slot: _Slot, logits: np.ndarray) -> Tuple[int, float]:
        """Choose the next token for one slot from its pending logits."""
        request = slot.request
        if request.temperature is None:
            token, logprob = greedy_select(logits)
            return int(token), float(logprob)
        picked, logprob = sample_select(
            logits[None, :],
            [slot.rng],
            temperature=request.temperature,
            top_k=request.top_k,
        )
        return int(picked[0]), float(logprob[0])

    def _finish(self, request_id: int, reason: str) -> None:
        with self._submit_lock:
            latency = self._latency[request_id]
            latency.finished_step = self.stats.engine_steps
            latency.finish_reason = reason
        # Per-request fault bookkeeping dies with the request.
        self._fault_attempts.pop(request_id, None)
        self._degraded.discard(request_id)

    def _completion(
        self,
        request_id: int,
        request: Request,
        tokens: List[int],
        logprobs: List[float],
        reason: str,
        error: Optional[str] = None,
    ) -> Completion:
        with self._submit_lock:
            latency = self._latency.get(request_id)
        return Completion(
            request_id=request_id,
            request=request,
            result=GenerationResult(
                prompt=list(request.prompt), tokens=list(tokens), logprobs=list(logprobs)
            ),
            finish_reason=reason,
            latency=latency,
            error=error,
        )

    def _retire(self, slot_idx: int, reason: str) -> Completion:
        slot = self._slots[slot_idx]
        self._slots[slot_idx] = None
        self.stats.completed += 1
        self._finish(slot.request_id, reason)
        return self._completion(
            slot.request_id, slot.request, slot.tokens, slot.logprobs, reason
        )
