"""Concurrency stress tests for the serving layer.

Two subjects, matching the guarded-by contracts the static analyzer checks
(:mod:`repro.analysis.locks`):

- :class:`repro.serving.queue.RequestQueue` under concurrent producers, a
  consumer, and a canceller -- entries are never lost or duplicated, and FIFO
  order by ``arrival_seq`` holds for everything that was not explicitly
  requeued;
- :class:`repro.serving.engine.InferenceEngine` stepping while producers
  ``submit`` (id allocation guarded by ``_submit_lock``) -- every request
  completes once, carrying its own latency record.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import InferenceEngine, Request
from repro.serving.queue import RequestQueue


@dataclass(frozen=True)
class FakeRequest:
    """Minimal stand-in: the queue only ever looks at ``prompt``'s length."""

    prompt: tuple = (1, 2)


# ----------------------------------------------------------------------
# RequestQueue stress
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    per_producer=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    cancel_stride=st.integers(min_value=2, max_value=5),
    requeue_stride=st.integers(min_value=0, max_value=4),
)
def test_queue_stress_conserves_entries_and_fifo(per_producer, cancel_stride, requeue_stride):
    """Concurrent push / pop / cancel / requeue never lose or duplicate work.

    Producers push disjoint id ranges; a canceller races the consumer for a
    strided subset; the consumer always takes the FIFO head and occasionally
    requeues an entry once (preemption).  Invariants checked afterwards:

    - conservation: consumed ids and successfully-cancelled ids partition the
      full id set (disjoint, nothing missing, nothing twice);
    - FIFO: among entries never requeued, consumed ``arrival_seq`` values are
      strictly increasing (the consumer always saw the true queue head);
    - the queue is empty at the end.
    """
    queue = RequestQueue()
    bases = []
    base = 0
    for count in per_producer:
        bases.append(base)
        base += count
    total = base
    all_ids = set(range(total))
    cancel_targets = [rid for rid in range(total) if rid % cancel_stride == 0]

    consumed = []  # QueueEntry, consumer thread only
    cancelled = []  # request ids, canceller thread only
    requeued_ids = set()  # consumer thread only
    errors = []
    barrier = threading.Barrier(len(per_producer) + 2)

    def producer(start, count):
        try:
            barrier.wait()
            for i in range(count):
                queue.push(start + i, FakeRequest())
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    def canceller():
        try:
            barrier.wait()
            for rid in cancel_targets:
                # May run before the push or after the pop of rid; only a
                # successful cancel counts (the entry is then ours).
                if queue.cancel(rid) is not None:
                    cancelled.append(rid)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    def consumer():
        try:
            barrier.wait()
            while len(consumed) + len(cancelled) < total:
                snapshot = queue.entries()
                if not snapshot:
                    continue  # not pushed yet, or the canceller drained it
                head = snapshot[0]
                entry = queue.cancel(head.request_id)  # atomic claim
                if entry is None:
                    continue  # lost the race to the canceller
                if (
                    requeue_stride
                    and entry.request_id % (requeue_stride + 2) == 1
                    and entry.request_id not in requeued_ids
                ):
                    requeued_ids.add(entry.request_id)
                    queue.requeue(entry)  # preemption: back at its old seq
                    continue
                consumed.append(entry)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    threads = [
        threading.Thread(target=producer, args=(bases[k], per_producer[k]))
        for k in range(len(per_producer))
    ]
    threads.append(threading.Thread(target=canceller))
    threads.append(threading.Thread(target=consumer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    consumed_ids = [entry.request_id for entry in consumed]
    assert len(consumed_ids) == len(set(consumed_ids)), "duplicate consumption"
    assert len(cancelled) == len(set(cancelled)), "duplicate cancellation"
    assert set(consumed_ids).isdisjoint(cancelled)
    assert set(consumed_ids) | set(cancelled) == all_ids
    assert len(queue) == 0

    fifo_seqs = [
        entry.arrival_seq for entry in consumed if entry.request_id not in requeued_ids
    ]
    assert fifo_seqs == sorted(fifo_seqs), "non-requeued entries consumed out of order"


# ----------------------------------------------------------------------
# InferenceEngine under concurrent submit
# ----------------------------------------------------------------------
def test_engine_step_loop_with_concurrent_producers(tiny_model):
    """The engine thread steps while producer threads submit: ids stay unique,
    every request completes, and every latency record survives intact."""
    engine = InferenceEngine(tiny_model, max_batch_size=4)
    vocab = tiny_model.config.vocab_size
    n_threads, per_thread = 3, 8
    total = n_threads * per_thread
    submitted = [[] for _ in range(n_threads)]
    errors = []
    barrier = threading.Barrier(n_threads)

    def producer(k):
        try:
            barrier.wait()
            for i in range(per_thread):
                rid = engine.submit(
                    Request(prompt=((k * per_thread + i) % vocab,), max_new_tokens=2)
                )
                submitted[k].append(rid)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=producer, args=(k,)) for k in range(n_threads)]
    for thread in threads:
        thread.start()

    completions = []
    spins = 0
    while len(completions) < total and spins < 100_000:
        completions.extend(engine.step())
        spins += 1
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    all_ids = sorted(rid for row in submitted for rid in row)
    assert all_ids == list(range(total)), "duplicate or skipped request ids"
    assert {c.request_id for c in completions} == set(range(total))
    for completion in completions:
        record = completion.latency
        assert record.request_id == completion.request_id
        assert record.finished_step is not None
        assert record.finish_reason == "length"
