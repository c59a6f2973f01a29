"""Pluggable admission scheduling for the inference engine.

Every engine iteration has a fixed shape -- resume in-flight chunked prefills,
admit waiting requests into free slots, then advance all fully-prefilled slots
by one decode token -- but *which* requests get prompt tokens, in what order,
and how many, is policy.  This module makes that policy a first-class,
pluggable component: the engine hands the :class:`Scheduler` a FIFO snapshot of
the waiting queue plus a :class:`SchedulerContext` view of its slots, and the
scheduler answers with an :class:`AdmissionPlan`.  The engine mechanically
applies the plan; it never reorders or rebudgets it.

Three policies ship, mirroring the admission spectrum of the LightMamba-style
accelerator pipeline (prefill and decode share the same SSMU/MMU datapath, so
admission policy decides which unit-saturating work runs each beat):

- :class:`FIFOScheduler` -- arrival order, the engine's historical behavior
  (including its optional ``prefill_chunk_tokens`` chunking).  The refactored
  engine with the default ``FIFOScheduler`` is bit-identical to the
  pre-scheduler engine.
- :class:`PriorityScheduler` -- highest priority first, FIFO among ties, with
  optional preemption of the lowest-priority in-flight *prefill* when a
  strictly more urgent request is waiting and no slot is free (decoding
  requests are never preempted; a preempted prefill keeps its progress and
  resumes where it stopped).
- :class:`PagedScheduler` -- a per-iteration token-budget ledger
  (:class:`TokenLedger`) shared by decode and prefill, generalizing
  ``prefill_chunk_tokens``: each iteration "page" holds ``page_tokens`` model
  tokens, every decoding slot charges one, and only the remainder may be spent
  on prefill pages.  A long prompt therefore cannot inflate any iteration by
  more than the page budget -- in-flight decodes are delayed by at most
  ``max(page_tokens - decodes, 1)`` prompt tokens per step -- while prefill
  still makes progress every iteration (starvation-free in both directions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.serving.queue import QueueEntry

__all__ = [
    "AdmissionPlan",
    "FIFOScheduler",
    "PagedScheduler",
    "PrefillView",
    "PriorityScheduler",
    "Scheduler",
    "SchedulerContext",
    "TokenLedger",
]


@dataclass(frozen=True)
class PrefillView:
    """Scheduler-facing view of one in-flight (partially prefilled) request."""

    slot: int
    request_id: int
    remaining_tokens: int
    priority: int
    arrival_seq: int


@dataclass(frozen=True)
class SchedulerContext:
    """Engine state snapshot handed to the scheduler each iteration.

    ``num_decoding`` counts occupied slots, including any the supervisor is
    currently holding in retry backoff (they still own their row).
    """

    engine_step: int
    max_batch_size: int
    free_slots: Tuple[int, ...]
    prefilling: Tuple[PrefillView, ...]
    num_decoding: int


@dataclass(frozen=True)
class AdmissionPlan:
    """The scheduler's decisions for one engine iteration.

    ``resume``
        ``(slot, tokens)`` pairs: advance the in-flight prefill at ``slot`` by
        up to ``tokens`` prompt tokens (``None`` = the full remainder).
    ``admit``
        ``(request_id, tokens)`` pairs, in admission order: pop the request
        from the queue and start prefilling it in the next free slot with up to
        ``tokens`` prompt tokens.  Zero-generation requests complete
        immediately and consume neither a slot nor tokens.
    ``preempt``
        Slots whose in-flight prefill is evicted back to the waiting queue
        *before* resumes and admissions are applied.  Progress is kept: the
        request's partial recurrent state is parked and continued on
        re-admission.  Preempted slots must not appear in ``resume``.
    """

    resume: Tuple[Tuple[int, Optional[int]], ...] = ()
    admit: Tuple[Tuple[int, Optional[int]], ...] = ()
    preempt: Tuple[int, ...] = ()


@runtime_checkable
class Scheduler(Protocol):
    """Admission policy: queue snapshot + engine view -> admission plan."""

    def plan(
        self, queue: Sequence[QueueEntry], ctx: SchedulerContext
    ) -> AdmissionPlan:  # pragma: no cover - protocol signature
        ...


class TokenLedger:
    """Per-iteration decode/prefill token-budget ledger.

    Generalizes the engine's old ``prefill_chunk_tokens`` scalar: one ledger is
    opened per iteration with a positive ``budget`` of model tokens; decode
    rows charge it via :meth:`charge_decode` and prefill work draws grants
    from the remainder via :meth:`grant_prefill`.
    """

    def __init__(self, budget: int):
        if budget <= 0:
            raise ValueError("token budget must be positive")
        self.budget = budget
        self.decode_tokens = 0
        self.prefill_tokens = 0

    @property
    def remaining(self) -> int:
        """Tokens left in this iteration's page."""
        return max(0, self.budget - self.decode_tokens - self.prefill_tokens)

    def charge_decode(self, rows: int) -> None:
        self.decode_tokens += rows

    def grant_prefill(self, want: int, floor: int = 0) -> int:
        """Grant up to ``want`` prefill tokens from the remaining budget.

        ``floor`` guarantees a minimum grant even on an exhausted (or
        nearly-exhausted) page -- the liveness floor of
        :class:`PagedScheduler`: whenever the remaining budget would grant
        less than ``floor``, the grant is raised to ``min(want, floor)`` and
        the overdraft is recorded so the next accounting still sees it.
        """
        if want <= 0:
            return 0
        grant = min(want, self.remaining)
        if grant < floor:
            grant = min(want, floor)
        self.prefill_tokens += grant
        return grant


def _fifo_like_plan(
    *,
    budget: Optional[int],
    queue_order: Sequence[QueueEntry],
    resume_order: Sequence[PrefillView],
    free_slots: Sequence[int],
) -> AdmissionPlan:
    """Shared FIFO/priority plan body: differ only in the two orderings.

    Reproduces the pre-scheduler engine's budget accounting exactly: in-flight
    prefills resume first, each drawing from the shared budget; then one
    non-degenerate request is admitted per free slot while budget remains
    (zero-generation requests ride along for free, in order).  Admission
    grants charge only a request's *remaining* prompt tokens, so a
    preempted-then-re-queued request (partial progress parked by the engine)
    does not overdraw the budget for work already done.
    """
    resume: List[Tuple[int, Optional[int]]] = []
    remaining = budget
    for view in resume_order:
        if remaining is not None and remaining <= 0:
            return AdmissionPlan(resume=tuple(resume))
        take = (
            view.remaining_tokens
            if remaining is None
            else min(view.remaining_tokens, remaining)
        )
        resume.append((view.slot, take))
        if remaining is not None:
            remaining -= take
    admit: List[Tuple[int, Optional[int]]] = []
    waiting = list(queue_order)
    for _slot in free_slots:
        if remaining is not None and remaining <= 0:
            break
        while waiting:
            entry = waiting.pop(0)
            if entry.request.max_new_tokens == 0:
                admit.append((entry.request_id, 0))
                continue
            want = entry.remaining_prompt_tokens
            take = want if remaining is None else min(want, remaining)
            admit.append((entry.request_id, take))
            if remaining is not None:
                remaining -= take
            break
        if not waiting:
            break
    return AdmissionPlan(resume=tuple(resume), admit=tuple(admit))


@dataclass
class FIFOScheduler:
    """Arrival-order admission -- the engine's default.

    With ``prefill_chunk_tokens=None`` each admitted prompt prefills in full at
    admission.  A budget bounds the *prompt* tokens processed per iteration
    (in-flight prefills resume lowest-slot first, then new requests are
    admitted in arrival order while budget remains): a long prompt prefills
    across several engine steps -- its slot is reserved but in-flight decodes
    keep advancing, so one huge prompt cannot stall the running batch.  For FP
    models chunked admission is exact whatever the segment size.  For a
    quantized chunk-parallel model (lightmamba*), segments on the model's
    ``chunk_size`` boundaries are bit-exact with a one-shot prefill (the PoT
    state re-quantization is idempotent on chunk-aligned states); a
    chunk-aligned budget keeps a request aligned *when it has the iteration's
    budget to itself*, but leftover budget shared with another request can
    still produce an unaligned segment, which shifts that prompt's
    state-quantization points by quantization-noise scale (an approximation,
    not an error).
    """

    prefill_chunk_tokens: Optional[int] = None

    def __post_init__(self) -> None:
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens <= 0:
            raise ValueError("prefill_chunk_tokens must be positive (or None)")

    def plan(self, queue: Sequence[QueueEntry], ctx: SchedulerContext) -> AdmissionPlan:
        return _fifo_like_plan(
            budget=self.prefill_chunk_tokens,
            queue_order=queue,
            resume_order=sorted(ctx.prefilling, key=lambda v: v.slot),
            free_slots=ctx.free_slots,
        )


@dataclass
class PriorityScheduler:
    """Highest priority first; FIFO (arrival order) among equal priorities.

    In-flight prefills also resume in priority order when the chunk budget is
    tight, so an urgent long prompt is not starved by earlier cheap ones.  With
    ``preempt=True``, when every slot is busy and a *strictly* higher-priority
    request is waiting, the lowest-priority in-flight prefill (youngest arrival
    among ties) is evicted back to the queue -- keeping its progress -- to free
    a slot.  Requests that already reached decode are never preempted.
    """

    prefill_chunk_tokens: Optional[int] = None
    preempt: bool = False

    def __post_init__(self) -> None:
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens <= 0:
            raise ValueError("prefill_chunk_tokens must be positive (or None)")

    def plan(self, queue: Sequence[QueueEntry], ctx: SchedulerContext) -> AdmissionPlan:
        ordered = sorted(queue, key=lambda e: (-e.priority, e.arrival_seq))
        prefilling = sorted(ctx.prefilling, key=lambda v: (-v.priority, v.arrival_seq))
        base = _fifo_like_plan(
            budget=self.prefill_chunk_tokens,
            queue_order=ordered,
            resume_order=prefilling,
            free_slots=ctx.free_slots,
        )
        if not self.preempt or not prefilling:
            return base
        # Preempt only when it actually admits the most urgent waiting
        # request this iteration: a degenerate queue head (needs no slot), a
        # free slot (admission failed on budget, which eviction cannot fix),
        # or a budget already drained by resumes would otherwise evict a
        # prefill into an empty slot for nothing.
        urgent = next((e for e in ordered if e.request.max_new_tokens > 0), None)
        if (
            urgent is None
            or ctx.free_slots
            or any(request_id == urgent.request_id for request_id, _ in base.admit)
        ):
            return base
        victim = min(prefilling, key=lambda v: (v.priority, -v.arrival_seq))
        if urgent.priority <= victim.priority:
            return base
        replanned = _fifo_like_plan(
            budget=self.prefill_chunk_tokens,
            queue_order=ordered,
            resume_order=[v for v in prefilling if v is not victim],
            free_slots=(victim.slot,),
        )
        if not any(request_id == urgent.request_id for request_id, _ in replanned.admit):
            return base
        return AdmissionPlan(
            resume=replanned.resume, admit=replanned.admit, preempt=(victim.slot,)
        )


@dataclass
class PagedScheduler:
    """Fair page-based interleaving of chunked prefill and decode.

    Each engine iteration is one *page* of ``page_tokens`` model tokens.
    Decoding slots claim one token each (they always advance -- the engine
    decodes every fully-prefilled slot every step); the remainder of the page
    is spent on prompt tokens, oldest waiting work first.  Consequences:

    - **decode-stall bound**: the prompt work added to any iteration is at most
      ``max(page_tokens - decoding_rows, 1)`` tokens, no matter how long the
      queued prompts are;
    - **prefill liveness**: when prefill work is pending, at least one prompt
      token is processed per iteration even if decodes fill the page, so
      admission cannot be starved by a full decode batch.

    Pick ``page_tokens >= max_batch_size + desired prefill chunk``; the decode
    charge then leaves a steady per-iteration prefill allowance.  Unlike FIFO,
    zero-generation requests are retired immediately even when no slot is free
    (they never need one).
    """

    page_tokens: int

    def __post_init__(self) -> None:
        if self.page_tokens <= 0:
            raise ValueError("page_tokens must be positive")

    def plan(self, queue: Sequence[QueueEntry], ctx: SchedulerContext) -> AdmissionPlan:
        ledger = TokenLedger(self.page_tokens)
        ledger.charge_decode(ctx.num_decoding)
        floor = 1  # the liveness floor: one prompt token per iteration
        resume: List[Tuple[int, Optional[int]]] = []
        for view in sorted(ctx.prefilling, key=lambda v: v.arrival_seq):
            grant = ledger.grant_prefill(view.remaining_tokens, floor=floor)
            if grant <= 0:
                break
            floor = 0  # the liveness floor applies to the first grant only
            resume.append((view.slot, grant))
        admit: List[Tuple[int, Optional[int]]] = []
        free = len(ctx.free_slots)
        for entry in queue:
            if entry.request.max_new_tokens == 0:
                admit.append((entry.request_id, 0))
                continue
            if free <= 0:
                continue
            grant = ledger.grant_prefill(entry.remaining_prompt_tokens, floor=floor)
            if grant <= 0:
                break
            floor = 0
            admit.append((entry.request_id, grant))
            free -= 1
        return AdmissionPlan(resume=tuple(resume), admit=tuple(admit))
