"""The engine's one record of what it did: an event ring and its folds.

Every fact the serving stack reports is one :class:`Event`, emitted once by
:meth:`EventLog.emit` on the thread driving the engine.  The ring keeps the
last :data:`RING_CAPACITY` events; the :class:`EngineStats` counters and each
request's :class:`RequestLatency` are *folds*, applied as each event is
appended, so evicting an event never changes them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import takewhile
from typing import TYPE_CHECKING, Deque, Dict, Iterator, List, NamedTuple, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.queue import Clock

__all__ = ["RING_CAPACITY", "EngineStats", "Event", "EventLog", "RequestLatency", "fold"]

#: Events an engine keeps; older ones are evicted (the folds keep counting).
RING_CAPACITY = 4096


@dataclass
class RequestLatency:
    """Per-request latency record, in engine iterations.

    Deterministic (workload and policy, not machine); ``None``: not happened
    yet.  :meth:`InferenceEngine.submit` creates it on the request's queue
    entry, the request's events fold into it (:func:`fold`), and retirement
    hands it over as :attr:`Completion.latency` (the engine keeps no copy).
    """

    request_id: int
    submitted_step: int
    admitted_step: Optional[int] = None
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


@dataclass
class EngineStats:
    """Aggregate counters: folds of the engine's events (see :class:`Event`)."""

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
    # --- resilience (all zero when no supervisor is configured) ---
    faults: int = 0
    rollbacks: int = 0
    retries: int = 0
    recovered: int = 0
    requeued_faults: int = 0
    quarantined: int = 0
    degraded: int = 0
    watchdog_timeouts: int = 0
    aborted: int = 0
    snapshot_rows: int = 0
    snapshot_bytes: float = 0.0
    callback_errors: int = 0
    callback_drops: int = 0

    @property
    def tokens_per_decode_call(self) -> float:
        """Rows per decode call (0.0 before the first): first tokens come from
        prefill logits, so this never exceeds the slot count."""
        return self.decode_call_rows / self.decode_calls if self.decode_calls else 0.0


class Event(NamedTuple):
    """One thing the engine did, stamped with the iteration count ``step``.

    The kinds: what happened -> the :class:`EngineStats` counters it adds to
    (by one, or by its ``n``) ; the :class:`RequestLatency` fields it sets.

    - ``step``: an iteration begins (stamped with the count before it) -> engine_steps
    - ``admit``: a request's first admission -> admitted ; admitted_step
    - ``preempt``: an in-flight prefill went back to the queue -> preempted
    - ``prefill``: ``n`` prompt tokens committed -> prefill_calls, prefilled_tokens
    - ``token``: a token was selected -> decoded_tokens ; first_token_step, decode_iterations
    - ``decode``: a committing decode call (the iteration's first carries its ``n``
      advanced rows) -> decode_calls, decode_call_rows
    - ``snapshot``: ``n`` rows of ``nbytes`` checkpointed -> snapshot_rows, snapshot_bytes
    - ``retire``: left with reason ``detail`` -> completed / cancelled / expired by reason
      (``"error"`` counts as ``quarantine`` / ``abort``) ; finished_step, finish_reason

    Every other kind is a resilience kind, the supervisor's log
    (:meth:`EventLog.resilience`):

    - ``fault``: a supervised call failed -> faults
    - ``rollback``: a slot's state was restored from its snapshot -> rollbacks
    - ``isolate``: a failing batch was split to find the culprit
    - ``corrupt``: an injected fault poisoned a row
    - ``watchdog``: a call exceeded its budget -> watchdog_timeouts
    - ``backoff``: a decode retry was scheduled -> retries
    - ``requeue``: a faulted prefill was requeued -> retries, requeued_faults
    - ``degrade``: fallback to the sequential oracle -> degraded
    - ``recovered``: a faulted request resumed cleanly -> recovered
    - ``quarantine``: retired with finish_reason "error" -> quarantined
    - ``callback_drop``: an injected fault dropped a token delivery -> callback_drops
    - ``callback_error``: a user ``on_token`` raised -> callback_errors ; callback_error
    - ``abort``: a ``run()`` guard retired ``n`` requests -> aborted
    """

    step: int
    kind: str
    request_id: Optional[int] = None
    site: Optional[str] = None
    detail: str = ""
    n: int = 0
    nbytes: float = 0.0

    def to_json(self) -> Dict[str, object]:
        return {"step": self.step, "action": self.kind, "request_id": self.request_id,
                "site": self.site, "detail": self.detail}


#: the kinds that are not resilience kinds
_ENGINE_KINDS = frozenset({"step", "admit", "preempt", "prefill", "token", "decode",
                           "snapshot", "retire"})
#: kind -> the counters it adds one to (as listed on Event)
_COUNTS: Dict[str, Tuple[str, ...]] = {
    "step": ("engine_steps",), "admit": ("admitted",), "preempt": ("preempted",),
    "prefill": ("prefill_calls",), "token": ("decoded_tokens",), "decode": ("decode_calls",),
    "fault": ("faults",), "rollback": ("rollbacks",), "watchdog": ("watchdog_timeouts",),
    "backoff": ("retries",), "requeue": ("retries", "requeued_faults"),
    "degrade": ("degraded",), "recovered": ("recovered",), "quarantine": ("quarantined",),
    "callback_drop": ("callback_drops",), "callback_error": ("callback_errors",),
    # a retirement, by reason
    "stop": ("completed",), "length": ("completed",), "cancelled": ("cancelled",),
    "expired": ("expired",),
}
#: kind -> the counter its ``n`` adds to
_SIZES = {"prefill": "prefilled_tokens", "decode": "decode_call_rows",
          "snapshot": "snapshot_rows", "abort": "aborted"}


def fold(event: Event, stats: EngineStats, latency: Optional[RequestLatency] = None) -> None:
    """Apply one event to the counters, and to its request's latency record."""
    counters, kind = vars(stats), event.kind
    for name in _COUNTS.get(event.detail if kind == "retire" else kind, ()):
        counters[name] += 1
    if kind in _SIZES:
        counters[_SIZES[kind]] += event.n
    if kind == "snapshot":
        stats.snapshot_bytes += event.nbytes
    if latency is None:
        return
    if kind == "admit":
        latency.admitted_step = event.step
    elif kind == "token":
        if latency.first_token_step is None:
            latency.first_token_step = event.step
        latency.decode_iterations += 1
    elif kind == "callback_error":
        latency.callback_error = event.detail
    elif kind == "retire":
        latency.finished_step = event.step
        latency.finish_reason = event.detail


class EventLog:
    """One engine's event ring, the counters folded over it, and its clock.

    Only the thread driving the engine emits to or iterates the ring (a
    ``deque`` iterated while another thread appends raises ``RuntimeError``);
    ``stats`` may be read anywhere.  ``clock`` is the queue's (the watchdog's).
    """

    def __init__(self, clock: "Clock"):
        self.stats = EngineStats()
        self.clock = clock
        self._ring: Deque[Event] = deque(maxlen=RING_CAPACITY)

    def emit(
        self, kind: str, request_id: Optional[int] = None, site: Optional[str] = None,
        detail: str = "", *, n: int = 0, nbytes: float = 0.0,
        latency: Optional[RequestLatency] = None,
    ) -> None:
        """Append one event and fold it; ``latency`` (its request's record)
        is folded too and labels the event with its request id."""
        if latency is not None:
            request_id = latency.request_id
        event = Event(self.stats.engine_steps, kind, request_id, site, detail, n, nbytes)
        self._ring.append(event)
        fold(event, self.stats, latency)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._ring)

    def this_step(self) -> List[Event]:
        """The events of the latest iteration (since its ``step`` event)."""
        return list(takewhile(lambda event: event.kind != "step", reversed(self._ring)))[::-1]

    def resilience(self) -> List[Event]:
        """The supervisor's view: the resilience events still in the ring."""
        return [event for event in self._ring if event.kind not in _ENGINE_KINDS]

    def request_ids(self, *kinds: str) -> List[int]:
        """Distinct request ids of the ring's events of ``kinds`` (event order)."""
        ids = (e.request_id for e in self._ring if e.kind in kinds and e.request_id is not None)
        return list(dict.fromkeys(ids))
