"""Admission queue for the inference engine.

:class:`RequestQueue` is the waiting room between :meth:`InferenceEngine.submit
<repro.serving.engine.InferenceEngine.submit>` and slot admission.  It is a
plain data structure -- *which* queued request runs next is decided by the
:class:`~repro.serving.scheduler.Scheduler`, which receives an ordered snapshot
of the queue every engine iteration -- but it owns everything about a request's
*waiting* life:

- **arrival metadata** -- every entry records its arrival wall-clock time from
  an injected, monotonic ``clock`` (tests and simulations pass a fake clock, so
  queue-wait accounting is deterministic) and a monotonically increasing
  ``arrival_seq`` that schedulers use for FIFO ordering and tie-breaking;
- **priorities** -- an integer per request, higher = more urgent; the queue
  stores it, priority-aware schedulers act on it;
- **deadlines** -- an optional absolute clock time by which the request must be
  *admitted*; :meth:`take_expired` pops every entry past its deadline so the
  engine can retire them with ``finish_reason="expired"`` instead of letting a
  doomed request occupy queue space;
- **cancellation** -- :meth:`cancel` removes a waiting entry and hands it back
  so the engine can synthesize a cancelled completion.

A :class:`QueueEntry` is more than a waiting-room ticket: it is the request's
one record inside the engine, from ``submit`` to retirement (latency record,
parked prefill, progress).  The queue is thread-safe: producers may submit
from other threads while the engine's thread consumes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.mamba.cache import InferenceCache
    from repro.serving.engine import Request
    from repro.serving.events import RequestLatency

__all__ = ["Clock", "QueueEntry", "RequestQueue"]

#: Zero-argument callable returning the current time as a float.  The engine
#: defaults to :func:`time.monotonic`; tests inject a fake clock so deadline
#: and queue-wait behavior is deterministic.
Clock = Callable[[], float]


@dataclass
class QueueEntry:
    """One request plus its admission metadata -- the engine's record of it.

    ``latency`` is the request's :class:`~repro.serving.events.RequestLatency`,
    set by :meth:`InferenceEngine.submit
    <repro.serving.engine.InferenceEngine.submit>` before the push.  While the
    prompt is unfinished, ``cache`` holds the exact recurrent state after
    ``prefill_pos`` prompt tokens; the engine drops it when the request moves
    into its batch slot.  A waiting entry with ``prefill_pos > 0`` was
    preempted (or fault-requeued by the supervisor) mid-prefill: its parked
    ``cache`` is continued on re-admission, and schedulers budget only the
    *remaining* prompt work.

    ``hold_until_step`` is the supervisor's exponential-backoff hold: a
    faulted-and-requeued request stays invisible to the scheduler
    (:meth:`RequestQueue.entries` filters it) until the engine reaches that
    iteration, while remaining cancellable and expirable like any waiting
    entry.  ``None`` (the default) means immediately schedulable.
    """

    request_id: int
    request: "Request"
    priority: int = 0
    deadline: Optional[float] = None
    arrival_time: float = 0.0
    arrival_seq: int = 0
    prefill_pos: int = 0
    hold_until_step: Optional[int] = None
    latency: Optional["RequestLatency"] = None
    cache: Optional["InferenceCache"] = field(default=None, repr=False)

    @property
    def remaining_prompt_tokens(self) -> int:
        return len(self.request.prompt) - self.prefill_pos

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


@dataclass
class RequestQueue:
    """Thread-safe waiting queue with injected time.

    Entries are keyed by request id; :meth:`entries` returns them ordered by
    ``arrival_seq`` (FIFO), which also restores a preempted request -- re-added
    with its original sequence number via :meth:`requeue` -- to its original
    position.
    """

    clock: Clock = time.monotonic
    _entries: Dict[int, QueueEntry] = field(default_factory=dict)  # guarded-by: _lock
    _seq: int = 0  # guarded-by: _lock
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def push(
        self,
        request_id: int,
        request: "Request",
        *,
        priority: int = 0,
        deadline: Optional[float] = None,
        latency: Optional["RequestLatency"] = None,
    ) -> QueueEntry:
        """Append a new entry; stamps arrival time and sequence number."""
        with self._lock:
            if request_id in self._entries:
                raise ValueError(f"request id {request_id} already queued")
            entry = QueueEntry(
                request_id=request_id,
                request=request,
                priority=priority,
                deadline=deadline,
                arrival_time=self.clock(),
                arrival_seq=self._seq,
                latency=latency,
            )
            self._seq += 1
            self._entries[request_id] = entry
            return entry

    def requeue(self, entry: QueueEntry) -> None:
        """Re-insert a previously popped entry, keeping its arrival metadata.

        Used when the scheduler preempts an in-flight prefill: the request goes
        back to the waiting queue at its *original* FIFO position (entries are
        ordered by ``arrival_seq``).
        """
        with self._lock:
            if entry.request_id in self._entries:
                raise ValueError(f"request id {entry.request_id} already queued")
            self._entries[entry.request_id] = entry

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def entries(self, engine_step: Optional[int] = None) -> Tuple[QueueEntry, ...]:
        """Snapshot of the waiting entries in FIFO (arrival) order.

        ``engine_step`` (the engine's current iteration counter) filters out
        entries whose ``hold_until_step`` lies in the future -- the
        supervisor's retry-backoff hold.  ``None`` returns every entry
        (cancellation, expiry and draining must see held entries too).
        """
        with self._lock:
            values = self._entries.values()
            if engine_step is not None:
                values = [
                    e
                    for e in values
                    if e.hold_until_step is None or e.hold_until_step <= engine_step
                ]
            return tuple(sorted(values, key=lambda e: e.arrival_seq))

    def pop(self, request_id: int) -> QueueEntry:
        """Remove and return one entry (admission)."""
        with self._lock:
            return self._entries.pop(request_id)

    def cancel(self, request_id: int) -> Optional[QueueEntry]:
        """Remove a waiting entry; returns it, or ``None`` if not waiting."""
        with self._lock:
            return self._entries.pop(request_id, None)

    def take_expired(self, now: Optional[float] = None) -> List[QueueEntry]:
        """Pop and return every entry whose deadline has passed."""
        with self._lock:
            if now is None:
                now = self.clock()
            expired = [e for e in self._entries.values() if e.expired(now)]
            for entry in expired:
                del self._entries[entry.request_id]
            return sorted(expired, key=lambda e: e.arrival_seq)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, request_id: int) -> bool:
        with self._lock:
            return request_id in self._entries
