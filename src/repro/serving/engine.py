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
policies need to be useful: one event ring (``engine.events``,
:mod:`repro.serving.events`) whose folds are the counters and each request's
latency record, :meth:`InferenceEngine.cancel` for waiting *and*
in-flight requests, per-request admission deadlines (expired requests retire
with ``finish_reason="expired"``), and a streaming ``on_token`` callback fired
for every generated token as it is selected.

Layering: the engine is the *loop* -- slots, queue entries, completions.  A
request's :class:`~repro.serving.queue.QueueEntry` is its one record from
:meth:`~InferenceEngine.submit` to retirement: it carries the latency record
and, while the prompt is unfinished, the prefill cache; a decoding slot holds
the entry.  Nothing outlives the completion, which hands the latency record
over.  Model calls go through its :class:`~repro.serving.runner.ModelRunner`, which
owns the slot-pool cache and the pending logits.  Failure semantics --
snapshot, isolate, roll back, retry / requeue / degrade / quarantine -- belong
to the :class:`~repro.serving.resilience.Supervisor` wrapped around the runner
when a :class:`~repro.serving.resilience.ResilienceConfig` is given; the engine
only applies its verdicts.  See ``src/repro/serving/README.md``.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mamba.generation import GenerationResult
from repro.mamba.model import Mamba2Model
from repro.mamba.sampling import greedy_select, sample_select
from repro.serving.events import EventLog, RequestLatency
from repro.serving.queue import Clock, QueueEntry, RequestQueue
from repro.serving.resilience import FaultInjector, ResilienceConfig, Supervisor, Verdict
from repro.serving.runner import ModelRunner
from repro.serving.scheduler import (
    AdmissionPlan,
    FIFOScheduler,
    PrefillView,
    Scheduler,
    SchedulerContext,
)

__all__ = ["Completion", "InferenceEngine", "Request", "TokenCallback"]

#: Streaming callback: ``on_token(request_id, token, logprob)`` is invoked for
#: every generated token the moment it is selected, before the request
#: completes -- the serving layer's token-streaming hook.
TokenCallback = Callable[[int, int, float], None]


def _integral(name: str, value) -> int:
    """``value`` as an ``int``: Python and numpy integers only, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a ``float``: Python and numpy real numbers only, never a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Request:
    """One generation request submitted to the engine.

    ``temperature is None`` selects greedy decoding; otherwise temperature /
    top-k sampling with the request's own RNG stream (``seed``).  Token ids,
    ``max_new_tokens``, ``top_k``, ``stop_token`` and ``seed`` are integers
    (numpy's too, stored as ``int``): a float, a bool or a string is a
    ``TypeError``, never truncated.  ``temperature`` is a real number
    (stored as ``float``), never a bool or a string.
    """

    prompt: Tuple[int, ...]
    max_new_tokens: int
    temperature: Optional[float] = None
    top_k: Optional[int] = None
    stop_token: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prompt", tuple(_integral("a token id", t) for t in self.prompt))
        object.__setattr__(self, "max_new_tokens", _integral("max_new_tokens", self.max_new_tokens))
        for name in ("top_k", "stop_token", "seed"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integral(name, getattr(self, name)))
        if self.temperature is not None:
            object.__setattr__(self, "temperature", _real("temperature", self.temperature))
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
        elif not 0 < self.temperature < math.inf:  # also rejects NaN
            raise ValueError("temperature must be positive and finite (or None for greedy)")
        if self.top_k is not None and self.top_k <= 0:
            raise ValueError("top_k must be positive when given")
        if self.stop_token is not None and self.stop_token < 0:
            raise ValueError("stop_token must be a non-negative token id when given")


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
    :class:`RequestLatency` record -- the only one: once the completion is
    returned, the engine holds nothing of the request.
    """

    request_id: int
    request: Request
    result: GenerationResult
    finish_reason: str = "stop"
    latency: Optional[RequestLatency] = None
    error: Optional[str] = None


@dataclass
class _Slot:
    """One decoding request: its queue entry plus decode-time state."""

    entry: QueueEntry
    rng: Optional[np.random.Generator]
    tokens: List[int] = field(default_factory=list)
    logprobs: List[float] = field(default_factory=list)
    #: A supervisor's retry verdict: the slot sits out select / decode until
    #: this engine iteration (``None``: not held).
    retry_at: Optional[int] = None


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
    scheduler:
        The admission policy (see :mod:`repro.serving.scheduler`).  Defaults
        to :class:`~repro.serving.scheduler.FIFOScheduler`, which reproduces
        the pre-scheduler engine bit-for-bit (whole-prompt admission; pass
        ``FIFOScheduler(prefill_chunk_tokens=n)`` for chunked admission).
    clock:
        Time source for the request queue (arrival stamps, deadlines).
        Defaults to :func:`time.monotonic`; tests inject a fake clock.
    resilience:
        Supervisor policy (:class:`~repro.serving.resilience.ResilienceConfig`).
        When set (or implied by ``fault_injector``), the runner is wrapped
        in a :class:`~repro.serving.resilience.Supervisor`: model calls are
        snapshotted, isolated, rolled back and retried / requeued / degraded
        / quarantined.  ``None`` (default) is fail-fast on the bare runner --
        a model exception propagates out of :meth:`step`.
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
        scheduler: Optional[Scheduler] = None,
        clock: Optional[Clock] = None,
        resilience: Optional[ResilienceConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.model = model
        self.max_batch_size = max_batch_size
        self.seed = seed
        self.scheduler: Scheduler = scheduler if scheduler is not None else FIFOScheduler()
        self.queue = RequestQueue() if clock is None else RequestQueue(clock=clock)
        self.events = EventLog(self.queue.clock)
        self.stats = self.events.stats
        self._submit_lock = threading.Lock()
        self._next_id = 0  # guarded-by: _submit_lock
        self._slots: List[Optional[_Slot]] = [None] * max_batch_size
        #: slot -> the entry whose prompt is being prefilled into it
        self._prefilling: Dict[int, QueueEntry] = {}
        self._pending_completions: List[Completion] = []
        if resilience is None and fault_injector is not None:
            resilience = ResilienceConfig()
        #: the one model-call site; wrapped in a Supervisor iff supervised
        self.runner: Union[ModelRunner, Supervisor] = ModelRunner(model, max_batch_size)
        if resilience is not None:
            self.runner = Supervisor(self.runner, resilience, fault_injector, self.events)

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
        retires with ``finish_reason="expired"`` instead of running.  A NaN or
        infinite ``deadline`` / ``timeout`` is rejected.

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
        if deadline is not None and not math.isfinite(deadline):
            raise ValueError("deadline / timeout must be finite")
        with self._submit_lock:
            request_id = self._next_id
            self._next_id += 1
            # The record rides on the entry: the engine thread never sees one without it.
            latency = RequestLatency(request_id, submitted_step=self.stats.engine_steps)
            self.queue.push(
                request_id, request, priority=priority, deadline=deadline, latency=latency
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
        entry = self.queue.cancel(request_id)  # waiting, maybe with parked progress
        if entry is None:  # prefilling?
            slots = [i for i, e in self._prefilling.items() if e.request_id == request_id]
            entry = self._prefilling.pop(slots[0]) if slots else None
        if entry is not None:
            self._pending_completions.append(self._retire(entry, "cancelled"))
            return True
        for slot_idx, slot in enumerate(self._slots):
            if slot is not None and slot.entry.request_id == request_id:
                if self._slot_finished(slot):
                    # The request reached its stop token / length budget in
                    # this very iteration and is about to retire with its
                    # true finish reason -- cancelling now would double-retire
                    # the slot and overwrite "stop" with "cancelled".
                    return False
                self._pending_completions.append(self._vacate(slot_idx, "cancelled"))
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
        request = slot.entry.request
        if request.stop_token is not None and slot.tokens[-1] == request.stop_token:
            return True
        return len(slot.tokens) >= request.max_new_tokens

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

        Slots a supervisor holds in retry are re-attempted before planning
        (:meth:`_retry_held`) and sit out select / decode until they recover.
        """
        self.events.emit("step")
        completions: List[Completion] = list(self._pending_completions)
        self._pending_completions.clear()
        completions.extend(self._expire())
        completions.extend(self._retry_held())
        plan = self.scheduler.plan(
            self.queue.entries(engine_step=self.stats.engine_steps), self._context()
        )
        completions.extend(self._apply_plan(plan))
        # Slots in the retry loop already selected (and streamed) a token;
        # they have no fresh logits until their state advance succeeds.
        active = [
            i for i, slot in enumerate(self._slots) if slot is not None and slot.retry_at is None
        ]
        if not active:
            return completions

        on_token = self.runner.streaming(on_token)
        chosen = np.zeros(len(active), dtype=np.int64)
        survivors: List[int] = []
        for row, slot_idx in enumerate(active):
            slot = self._slots[slot_idx]
            if slot is None:
                # Cancelled mid-step by an earlier slot's on_token callback;
                # its cancelled completion is already pending.
                continue
            token, logprob = self._select(slot, self.runner.logits(slot_idx))
            slot.tokens.append(token)
            slot.logprobs.append(logprob)
            chosen[row] = token
            latency = slot.entry.latency
            self.events.emit("token", latency=latency)
            # A request whose callback raised keeps decoding, unstreamed.
            if on_token is not None and latency.callback_error is None:
                try:
                    on_token(latency.request_id, token, logprob)
                except Exception as exc:
                    # A user callback must never unwind the engine: record
                    # the failure and stop streaming this request only.
                    self.events.emit("callback_error", detail=repr(exc), latency=latency)
            if self._slots[slot_idx] is not slot:
                # The callback cancelled this very request: its completion
                # (including the token just streamed) is already pending;
                # don't retire it twice or decode it further.
                continue
            if self._slot_finished(slot):
                stopped = token == slot.entry.request.stop_token
                completions.append(self._vacate(slot_idx, "stop" if stopped else "length"))
            else:
                survivors.append(row)

        # A later slot's on_token callback may have cancelled an earlier slot
        # that was already recorded as a survivor; don't decode freed slots.
        survivors = [row for row in survivors if self._slots[active[row]] is not None]
        if survivors:
            slot_indices = [active[row] for row in survivors]
            completions.extend(self._decode(slot_indices, chosen[survivors]))
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
            stepped = self.step(on_token=on_token)
            completions.extend(stepped)
            progressed = bool(stepped) or any(
                event.kind in ("token", "prefill") for event in self.events.this_step()
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
        waiting = [self.queue.cancel(entry.request_id) for entry in self.queue.entries()]
        aborted = [
            self._retire(entry, "error", error=message)
            for entry in (*waiting, *self._prefilling.values())
        ]
        self._prefilling.clear()
        for slot_idx, slot in enumerate(self._slots):
            if slot is not None:
                aborted.append(self._vacate(slot_idx, "error", error=message))
        self.events.emit("abort", detail=message, n=len(aborted))
        completions = self._pending_completions + aborted
        self._pending_completions = []
        return completions

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _free_slots(self) -> List[int]:
        """Slots a new request may take: empty and not reserved by a prefill."""
        return [
            i for i, slot in enumerate(self._slots)
            if slot is None and i not in self._prefilling
        ]

    def _context(self) -> SchedulerContext:
        """The engine-state snapshot the scheduler plans against."""
        prefilling = tuple(
            PrefillView(
                slot=slot_idx,
                request_id=entry.request_id,
                remaining_tokens=entry.remaining_prompt_tokens,
                priority=entry.priority,
                arrival_seq=entry.arrival_seq,
            )
            for slot_idx, entry in sorted(self._prefilling.items())
        )
        return SchedulerContext(
            engine_step=self.stats.engine_steps,
            max_batch_size=self.max_batch_size,
            free_slots=tuple(self._free_slots()),
            prefilling=prefilling,
            num_decoding=self.num_active,
        )

    def _expire(self) -> List[Completion]:
        """Retire waiting requests whose admission deadline has passed."""
        return [self._retire(entry, "expired") for entry in self.queue.take_expired()]

    def _apply_plan(self, plan: AdmissionPlan) -> List[Completion]:
        """Mechanically apply one admission plan (no policy decisions here)."""
        completions: List[Completion] = []
        for slot_idx in plan.preempt:
            if slot_idx not in self._prefilling:
                raise ValueError(f"plan preempts slot {slot_idx}, which is not prefilling")
            self.events.emit("preempt", self._park(slot_idx).request_id)
        for slot_idx, tokens in plan.resume:
            if slot_idx not in self._prefilling:
                raise ValueError(f"plan resumes slot {slot_idx}, which is not prefilling")
            if tokens is not None and tokens <= 0:
                raise ValueError("resume token grants must be positive (or None)")
            completions.extend(self._advance_prefill(slot_idx, tokens))
        free_iter = iter(self._free_slots())
        for request_id, tokens in plan.admit:
            if request_id not in self.queue:
                raise ValueError(f"plan admits request {request_id}, which is not queued")
            entry = self.queue.pop(request_id)
            if entry.latency.admitted_step is None:
                # First admission only: a preempted-then-re-admitted request
                # keeps one admitted count and its original admission step.
                self.events.emit("admit", latency=entry.latency)
            if entry.request.max_new_tokens == 0:
                # Degenerate request: completes immediately, never holds a slot.
                completions.append(self._retire(entry, "length"))
                continue
            try:
                slot_idx = next(free_iter)
            except StopIteration:
                raise ValueError("plan admits more requests than free slots") from None
            if entry.cache is None:  # else: parked progress, continued exactly
                entry.cache = self.runner.new_cache()
            self._prefilling[slot_idx] = entry
            completions.extend(self._advance_prefill(slot_idx, tokens))
        return completions

    def _park(self, slot_idx: int, hold_until_step: Optional[int] = None) -> QueueEntry:
        """Send an in-flight prefill back to the queue, its progress parked.

        The entry keeps its cache and ``prefill_pos``, so schedulers budget
        only the remaining prompt tokens; ``hold_until_step`` keeps it
        invisible to the scheduler until that iteration (a supervisor's backoff).
        """
        entry = self._prefilling.pop(slot_idx)
        if hold_until_step is not None:
            entry.hold_until_step = hold_until_step
        self.queue.requeue(entry)
        return entry

    def _advance_prefill(self, slot_idx: int, tokens: Optional[int]) -> List[Completion]:
        """Consume up to ``tokens`` prompt tokens of one in-flight prefill.

        The request's single-sequence cache is continued exactly across
        segments (chunked scan + conv-window carry); when the prompt is
        exhausted the request is installed into its slot with the true
        last-token logits pending, ready to decode this very iteration.  A
        supervised segment that fails comes back as a verdict instead
        (requeue with backoff, or quarantine -- whose completion is returned).
        The installed entry drops its cache: the pool row is the only copy.
        """
        entry = self._prefilling[slot_idx]
        remaining = entry.remaining_prompt_tokens
        take = remaining if tokens is None else min(remaining, tokens)
        if take <= 0:
            return []
        pos = entry.prefill_pos
        segment = np.asarray(entry.request.prompt[pos : pos + take], dtype=np.int64)
        outcome = self.runner.prefill(
            segment, entry.cache, slot=slot_idx, request_id=entry.request_id, prefill_pos=pos
        )
        if isinstance(outcome, Verdict):
            return self._apply_verdicts([outcome])
        logits, entry.cache = outcome
        entry.prefill_pos += take
        self.events.emit("prefill", entry.request_id, n=take)
        if take == remaining:
            del self._prefilling[slot_idx]
            self.runner.install(slot_idx, entry.cache, logits)
            entry.cache = None
            request, rng = entry.request, None
            if request.temperature is not None:
                seed = request.seed if request.seed is not None else self.seed + entry.request_id
                rng = np.random.default_rng(seed)
            self._slots[slot_idx] = _Slot(entry=entry, rng=rng)
        return []

    def _decode(self, slot_indices: List[int], tokens: np.ndarray) -> List[Completion]:
        """Advance these slots by one token each, in one batched runner call."""
        request_ids = [self._slots[i].entry.request_id for i in slot_indices]
        verdicts = self.runner.decode(slot_indices, tokens, request_ids) or ()
        # One verdict per row that did not advance.
        advanced = len(slot_indices) - len(verdicts)
        if advanced:
            self.events.emit("decode", n=advanced)
        return self._apply_verdicts(verdicts)

    # ------------------------------------------------------------------
    # Verdicts (only a Supervisor issues them; see repro.serving.resilience)
    # ------------------------------------------------------------------
    def _retry_held(self) -> List[Completion]:
        """Decode again, alone, each held slot whose backoff has elapsed.

        Its last token was selected (and streamed) before its state advance
        failed, so it is fed again.  Runs before planning: a recovered slot
        rejoins select / decode in the same iteration, and a quarantined one
        is visible as free (or retired) to the scheduler.
        """
        completions: List[Completion] = []
        for slot_idx, slot in enumerate(self._slots):
            if slot is not None and slot.retry_at is not None:
                if slot.retry_at <= self.stats.engine_steps:
                    slot.retry_at = None
                    last = np.asarray(slot.tokens[-1:], dtype=np.int64)
                    completions.extend(self._decode([slot_idx], last))
        return completions

    def _apply_verdicts(self, verdicts: Sequence[Verdict]) -> List[Completion]:
        """Mechanically apply a supervisor's verdicts (no policy decisions here)."""
        completions: List[Completion] = []
        for verdict in verdicts:
            slot_idx = verdict.slot
            if verdict.action == "retry":
                self._slots[slot_idx].retry_at = verdict.step
            elif verdict.action == "requeue":
                self._park(slot_idx, hold_until_step=verdict.step)
            else:
                entry = self._prefilling.pop(slot_idx, None)
                if entry is None:
                    completions.append(self._vacate(slot_idx, "error", verdict.error))
                else:
                    completions.append(self._retire(entry, "error", error=verdict.error))
        return completions

    # ------------------------------------------------------------------
    def _select(self, slot: _Slot, logits: np.ndarray) -> Tuple[int, float]:
        """Choose the next token for one slot from its pending logits."""
        request = slot.entry.request
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

    def _vacate(self, slot_idx: int, reason: str, error: Optional[str] = None) -> Completion:
        """Free a decoding slot and retire its request, generated tokens kept."""
        slot = self._slots[slot_idx]
        self._slots[slot_idx] = None
        return self._retire(slot.entry, reason, slot.tokens, slot.logprobs, error)

    def _retire(
        self, entry: QueueEntry, reason: str,
        tokens: Sequence[int] = (), logprobs: Sequence[float] = (), error: Optional[str] = None,
    ) -> Completion:
        """The one way a request leaves the engine.

        Emits its ``retire`` event (which stamps the latency record and counts
        it; ``"error"`` is counted by whoever decided it: the supervisor, or a
        ``run()`` guard), lets the runner drop what it kept for the request,
        and builds its completion.  The caller has already unlinked ``entry``;
        the completion does not keep it.
        """
        self.events.emit("retire", detail=reason, latency=entry.latency)
        self.runner.release(entry.request_id)
        request = entry.request
        return Completion(
            request_id=entry.request_id,
            request=request,
            result=GenerationResult(
                prompt=list(request.prompt), tokens=list(tokens), logprobs=list(logprobs)
            ),
            finish_reason=reason,
            latency=entry.latency,
            error=error,
        )
