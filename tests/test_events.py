"""The engine's event ring: bounded, and its folds outlive eviction."""

from repro.serving import InferenceEngine, ManualClock, Request
from repro.serving.events import RING_CAPACITY


def test_ring_is_bounded_and_counters_survive_eviction(tiny_model):
    """10 000 requests in lockstep batches of eight: the ring wraps, stays at
    its capacity, and the counters still count every request and token."""
    engine = InferenceEngine(tiny_model, max_batch_size=8, clock=ManualClock())
    # Mostly zero- and one-token budgets keep the run short; a few decode.
    budgets = [1 if i % 4 == 0 else 2 if i % 50 == 1 else 0 for i in range(10_000)]
    completed = 0
    for start in range(0, len(budgets), 8):
        for budget in budgets[start : start + 8]:
            engine.submit(Request(prompt=(1 + start % 7,), max_new_tokens=budget))
        completed += len(engine.step())
    while engine.has_work:
        completed += len(engine.step())
    assert completed == len(budgets)
    assert len(engine.events) == RING_CAPACITY
    assert next(iter(engine.events)).step > 0  # the first iterations were evicted
    stats = engine.stats
    assert stats.admitted == stats.completed == len(budgets)
    assert stats.decoded_tokens == sum(budgets)
    assert stats.prefill_calls == sum(budget > 0 for budget in budgets)


def test_this_step_is_the_latest_iteration(tiny_model):
    engine = InferenceEngine(tiny_model, max_batch_size=1, clock=ManualClock())
    engine.submit(Request(prompt=(1, 2, 3), max_new_tokens=2))
    engine.step()
    assert [e.kind for e in engine.events.this_step()] == ["admit", "prefill", "token", "decode"]
    engine.step()
    assert [e.kind for e in engine.events.this_step()] == ["token", "retire"]
    assert {e.step for e in engine.events.this_step()} == {2}
    assert engine.events.resilience() == []

