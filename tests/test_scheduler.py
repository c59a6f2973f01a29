"""Tests of the scheduling subsystem: RequestQueue, policies, engine wiring."""

import numpy as np
import pytest

from repro.mamba import greedy_decode
from repro.serving import (
    FIFOScheduler,
    InferenceEngine,
    PagedScheduler,
    PriorityScheduler,
    Request,
    RequestQueue,
    Scheduler,
    TokenLedger,
)
from repro.serving.resilience import ManualClock
from bench_serving_load import make_traffic, run_inprocess
from test_lifecycle import replay


def _mk_request(rng, vocab, size, budget, **kw):
    return Request(
        prompt=tuple(rng.integers(0, vocab, size=size)), max_new_tokens=budget, **kw
    )


def _check_matches_solo(model, completions, requests):
    by_id = {c.request_id: c for c in completions}
    for rid, request in enumerate(requests):
        ref = greedy_decode(model, request.prompt, request.max_new_tokens)
        assert by_id[rid].result.tokens == ref.tokens
        np.testing.assert_allclose(by_id[rid].result.logprobs, ref.logprobs, atol=1e-10)


class TestRequestQueue:
    def test_fifo_order_and_arrival_metadata(self):
        clock = ManualClock(10.0)
        queue = RequestQueue(clock=clock)
        a = queue.push(0, Request(prompt=(1,), max_new_tokens=1))
        clock.now = 11.0
        b = queue.push(1, Request(prompt=(2,), max_new_tokens=1), priority=3)
        assert [e.request_id for e in queue.entries()] == [0, 1]
        assert (a.arrival_time, b.arrival_time) == (10.0, 11.0)
        assert a.arrival_seq < b.arrival_seq
        assert b.priority == 3
        assert len(queue) == 2 and 1 in queue

    def test_requeue_restores_fifo_position(self):
        queue = RequestQueue(clock=ManualClock())
        queue.push(0, Request(prompt=(1,), max_new_tokens=1))
        queue.push(1, Request(prompt=(2,), max_new_tokens=1))
        first = queue.pop(0)
        queue.requeue(first)
        assert [e.request_id for e in queue.entries()] == [0, 1]

    def test_cancel_and_duplicate_push(self):
        queue = RequestQueue(clock=ManualClock())
        queue.push(0, Request(prompt=(1,), max_new_tokens=1))
        assert queue.cancel(0).request_id == 0
        assert queue.cancel(0) is None
        queue.push(0, Request(prompt=(1,), max_new_tokens=1))
        with pytest.raises(ValueError):
            queue.push(0, Request(prompt=(1,), max_new_tokens=1))

    def test_take_expired_uses_injected_clock(self):
        clock = ManualClock(0.0)
        queue = RequestQueue(clock=clock)
        queue.push(0, Request(prompt=(1,), max_new_tokens=1), deadline=5.0)
        queue.push(1, Request(prompt=(2,), max_new_tokens=1), deadline=50.0)
        queue.push(2, Request(prompt=(3,), max_new_tokens=1))  # no deadline
        assert queue.take_expired() == []
        clock.now = 5.0
        expired = queue.take_expired()
        assert [e.request_id for e in expired] == [0]
        assert [e.request_id for e in queue.entries()] == [1, 2]


class TestTokenLedger:
    def test_decode_charges_reduce_prefill_budget(self):
        ledger = TokenLedger(8)
        ledger.charge_decode(3)
        assert ledger.remaining == 5
        assert ledger.grant_prefill(10) == 5
        assert ledger.remaining == 0
        assert ledger.grant_prefill(4) == 0

    def test_floor_overdraws_exhausted_page(self):
        ledger = TokenLedger(2)
        ledger.charge_decode(2)
        assert ledger.grant_prefill(10, floor=3) == 3
        assert ledger.remaining == 0

    def test_floor_applies_to_nearly_exhausted_page(self):
        """A remainder smaller than the floor is raised to the floor."""
        ledger = TokenLedger(8)
        ledger.charge_decode(7)  # remaining == 1 < floor
        assert ledger.grant_prefill(100, floor=4) == 4
        ledger = TokenLedger(8)
        ledger.charge_decode(2)  # remaining == 6 >= floor: floor is inactive
        assert ledger.grant_prefill(100, floor=4) == 6

    def test_unbounded_and_validation(self):
        """There is no unbounded ledger: the budget must be a positive int."""
        with pytest.raises(TypeError):
            TokenLedger(None)
        with pytest.raises(ValueError):
            TokenLedger(0)


class TestPolicyEquivalence:
    """Scheduling changes when work runs, never what it produces."""

    def _requests(self, model, seed=11):
        rng = np.random.default_rng(seed)
        vocab = model.config.vocab_size
        sizes = (23, 5, 40, 9, 3)
        budgets = (4, 6, 3, 5, 7)
        return [_mk_request(rng, vocab, s, b) for s, b in zip(sizes, budgets)]

    @pytest.mark.parametrize(
        "scheduler",
        [
            FIFOScheduler(),
            FIFOScheduler(prefill_chunk_tokens=5),
            PriorityScheduler(prefill_chunk_tokens=5),
            PriorityScheduler(prefill_chunk_tokens=4, preempt=True),
            PagedScheduler(page_tokens=8),
            PagedScheduler(page_tokens=3),
        ],
    )
    def test_all_policies_match_solo_decode(self, tiny_model, scheduler):
        requests = self._requests(tiny_model)
        engine = InferenceEngine(tiny_model, max_batch_size=2, scheduler=scheduler)
        completions = engine.run(requests)
        assert len(completions) == len(requests)
        assert all(c.finish_reason == "length" for c in completions)
        _check_matches_solo(tiny_model, completions, requests)

    def test_explicit_fifo_is_bit_identical_to_default_engine(self, tiny_model):
        """The default engine is whole-prompt FIFO: same completions, same
        prefill segmentation, same stats trajectory as an explicit one."""
        requests = self._requests(tiny_model)
        default = InferenceEngine(tiny_model, max_batch_size=2)
        explicit = InferenceEngine(tiny_model, max_batch_size=2, scheduler=FIFOScheduler())
        for a, b in zip(default.run(requests), explicit.run(requests)):
            assert a.result.tokens == b.result.tokens
            assert a.result.logprobs == b.result.logprobs  # bitwise
        assert default.stats == explicit.stats

    def test_scheduler_protocol_runtime_checkable(self):
        assert isinstance(FIFOScheduler(), Scheduler)
        assert isinstance(PagedScheduler(page_tokens=4), Scheduler)
        assert not isinstance(object(), Scheduler)

    def test_schedulers_reject_non_positive_budgets(self):
        with pytest.raises(ValueError):
            FIFOScheduler(prefill_chunk_tokens=0)
        with pytest.raises(ValueError):
            PagedScheduler(page_tokens=0)
        with pytest.raises(ValueError):
            PriorityScheduler(prefill_chunk_tokens=0)


class TestPriorityScheduler:
    def test_priority_order_with_fifo_ties(self, tiny_model):
        """Higher priority admits first; equal priorities keep arrival order."""
        rng = np.random.default_rng(12)
        vocab = tiny_model.config.vocab_size
        engine = InferenceEngine(
            tiny_model, max_batch_size=1, scheduler=PriorityScheduler()
        )
        blocker = engine.submit(_mk_request(rng, vocab, 4, 6))
        engine.step()  # blocker occupies the only slot
        low = engine.submit(_mk_request(rng, vocab, 3, 2), priority=0)
        high_1 = engine.submit(_mk_request(rng, vocab, 3, 2), priority=5)
        high_2 = engine.submit(_mk_request(rng, vocab, 3, 2), priority=5)
        lat = {c.request_id: c.latency for c in engine.run()}
        order = sorted(
            (blocker, low, high_1, high_2), key=lambda rid: (lat[rid].admitted_step, rid)
        )
        assert order == [blocker, high_1, high_2, low]
        assert (
            lat[high_1].admitted_step < lat[high_2].admitted_step
            or lat[high_1].first_token_step < lat[high_2].first_token_step
        )

    def test_preemption_evicts_low_priority_prefill_and_keeps_progress(
        self, tiny_model
    ):
        rng = np.random.default_rng(13)
        vocab = tiny_model.config.vocab_size
        engine = InferenceEngine(
            tiny_model,
            max_batch_size=1,
            scheduler=PriorityScheduler(prefill_chunk_tokens=4, preempt=True),
        )
        long_req = _mk_request(rng, vocab, 20, 2)
        long_id = engine.submit(long_req, priority=0)
        engine.step()
        assert engine.num_prefilling == 1  # 4 of 20 prompt tokens done
        short_req = _mk_request(rng, vocab, 3, 2)
        short_id = engine.submit(short_req, priority=5)
        completions = []
        while engine.has_work:
            completions.extend(engine.step())
        assert engine.stats.preempted == 1
        # Preempted progress was kept: every prompt token prefilled exactly once.
        assert engine.stats.prefilled_tokens == 23
        # Re-admission does not double-count: two requests, two admissions.
        assert engine.stats.admitted == 2 == engine.stats.completed
        by_id = {c.request_id: c for c in completions}
        assert (
            by_id[short_id].latency.first_token_step < by_id[long_id].latency.first_token_step
        )
        for rid, request in ((long_id, long_req), (short_id, short_req)):
            ref = greedy_decode(tiny_model, request.prompt, request.max_new_tokens)
            assert by_id[rid].result.tokens == ref.tokens

    def test_preemption_only_when_it_admits_the_urgent_request(self, tiny_model):
        """A degenerate urgent request needs no slot, so nothing is evicted."""
        rng = np.random.default_rng(27)
        vocab = tiny_model.config.vocab_size
        engine = InferenceEngine(
            tiny_model,
            max_batch_size=1,
            scheduler=PriorityScheduler(prefill_chunk_tokens=4, preempt=True),
        )
        engine.submit(_mk_request(rng, vocab, 20, 2), priority=0)
        engine.step()
        assert engine.num_prefilling == 1
        engine.submit(_mk_request(rng, vocab, 3, 0), priority=9)
        engine.run()
        assert engine.stats.preempted == 0

    def test_preempted_entry_budgets_remaining_tokens_only(self):
        """A re-queued preempted request charges only its unprefilled tail."""
        from repro.serving import QueueEntry, SchedulerContext

        parked = QueueEntry(
            request_id=0,
            request=Request(prompt=tuple(range(1, 21)), max_new_tokens=2),
            arrival_seq=0,
            prefill_pos=12,
        )
        fresh = QueueEntry(
            request_id=1,
            request=Request(prompt=(1, 2, 3), max_new_tokens=2),
            arrival_seq=1,
        )
        ctx = SchedulerContext(
            engine_step=1,
            max_batch_size=2,
            free_slots=(0, 1),
            prefilling=(),
            num_decoding=0,
        )
        plan = FIFOScheduler(prefill_chunk_tokens=10).plan((parked, fresh), ctx)
        # 8 remaining tokens charged (not 20), leaving 2 for the second admit.
        assert plan.admit == ((0, 8), (1, 2))


class TestPagedScheduler:
    def test_decode_stall_bounded_by_page_budget(self, tiny_model):
        """A long prompt may add at most the page remainder per iteration,
        and in-flight decodes advance every single step (starvation-freedom)."""
        rng = np.random.default_rng(14)
        vocab = tiny_model.config.vocab_size
        page = 6
        engine = InferenceEngine(
            tiny_model, max_batch_size=2, scheduler=PagedScheduler(page_tokens=page)
        )
        short = _mk_request(rng, vocab, 3, 30)
        engine.submit(short)
        engine.step()
        assert engine.num_active == 1
        long = _mk_request(rng, vocab, 50, 2)
        engine.submit(long)
        while engine.num_active >= 1 and engine.has_work:
            decoded_before = engine.stats.decoded_tokens
            prefilled_before = engine.stats.prefilled_tokens
            engine.step()
            # The decode advanced this very iteration...
            assert engine.stats.decoded_tokens > decoded_before
            # ...and the long prompt charged at most the page remainder.
            assert engine.stats.prefilled_tokens - prefilled_before <= page - 1
        completions = engine.run()  # drain whatever is left
        assert engine.stats.prefilled_tokens == 53

    def test_prefill_liveness_floor_when_decodes_fill_page(self, tiny_model):
        """page_tokens <= decoding rows still prefills one prompt token."""
        rng = np.random.default_rng(15)
        vocab = tiny_model.config.vocab_size
        engine = InferenceEngine(
            tiny_model, max_batch_size=3, scheduler=PagedScheduler(page_tokens=2)
        )
        for _ in range(2):
            engine.submit(_mk_request(rng, vocab, 1, 40))
        engine.step()
        assert engine.num_active == 2  # both decode: page is fully charged
        engine.submit(_mk_request(rng, vocab, 30, 1))
        prefilled_before = engine.stats.prefilled_tokens
        engine.step()
        # Liveness floor: exactly one prompt token despite the exhausted page.
        assert engine.stats.prefilled_tokens - prefilled_before == 1

    def test_degenerate_requests_complete_without_free_slot(self, tiny_model):
        rng = np.random.default_rng(16)
        vocab = tiny_model.config.vocab_size
        engine = InferenceEngine(
            tiny_model, max_batch_size=1, scheduler=PagedScheduler(page_tokens=4)
        )
        engine.submit(_mk_request(rng, vocab, 2, 10))
        engine.step()  # slot occupied
        zero = engine.submit(_mk_request(rng, vocab, 2, 0))
        done = engine.step()
        assert [c.request_id for c in done] == [zero]
        assert done[0].finish_reason == "length"


class TestCancellation:
    """Scenarios of the lifecycle machine (``tests/test_lifecycle.py``): its
    invariants check every completion, cancel result and slot count."""

    def test_cancel_queued_request(self):
        with replay("fifo", slots=1) as state:
            state.submit(3, 5)
            state.step()
            state.cancel(state.submit(4, 5))

    def test_cancel_in_flight_decode_keeps_partial_tokens(self):
        with replay("fifo", slots=1) as state:
            rid = state.submit(4, 10)
            state.step()
            state.step()
            state.cancel(rid)
            state.drain()
            state.submit(3, 2)  # the freed slot is reusable at once
        assert len(state.outcomes[rid].tokens) == 2

    def test_cancel_mid_prefill_frees_reserved_slot(self):
        with replay("fifo/4", slots=1) as state:
            rid = state.submit(20, 5)
            state.step()
            assert state.engine.num_prefilling == 1
            state.cancel(rid)

    def test_cancel_from_on_token_callback(self):
        """Self- and cross-cancel from the streaming callback, mid-stream."""
        with replay("fifo", slots=3) as state:
            first, second, _ = (state.submit(4, 6) for _ in range(3))
            state.arm(first, at=3)
            state.arm(first, at=3, other=second)
        assert len(state.outcomes[first].tokens) == 3  # includes the token it cancelled on

    def test_cross_cancel_of_earlier_slot_is_not_decoded(self):
        """A slot cancelled by a *later* slot's on_token callback must not be
        fed through the batched decode call after being freed."""
        with replay("fifo", slots=2) as state:
            first, second = state.submit(3, 10), state.submit(4, 10)
            state.arm(second, at=1, other=first)
        # 9 single-row calls for the survivor (its first token came from
        # prefill logits), none for the freed slot.
        assert state.engine.stats.decode_call_rows == 9

    def test_cancel_unknown_or_finished_returns_false(self):
        with replay("fifo", slots=1) as state:
            rid = state.submit(3, 1)
            state.drain()
            state.cancel(rid)
            state.cancel(999)


class TestDeadlines:
    def test_expired_waiting_request_retires(self):
        with replay("fifo", slots=1) as state:
            state.submit(3, 6)
            state.step()
            doomed = state.submit(4, 6, timeout=4.0)
            state.submit(4, 2, timeout=900.0)
            state.advance(5.0)
            state.step()
        assert state.outcomes[doomed].reason == "expired"

    def test_submit_validation(self, tiny_model):
        engine = InferenceEngine(tiny_model)
        with pytest.raises(ValueError):
            engine.submit(
                Request(prompt=(1,), max_new_tokens=1), deadline=1.0, timeout=1.0
            )
        with pytest.raises(ValueError):
            engine.submit(Request(prompt=(1,), max_new_tokens=1), timeout=-1.0)
        # Non-finite: a NaN deadline would never expire.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                engine.submit(Request(prompt=(1,), max_new_tokens=1), timeout=bad)
            with pytest.raises(ValueError):
                engine.submit(Request(prompt=(1,), max_new_tokens=1), deadline=bad)
        assert engine.num_waiting == 0


class TestLatencyStats:
    def test_queue_wait_and_ttft_iterations(self, tiny_model):
        rng = np.random.default_rng(22)
        vocab = tiny_model.config.vocab_size
        engine = InferenceEngine(tiny_model, max_batch_size=1)
        first = engine.submit(_mk_request(rng, vocab, 3, 3))
        second = engine.submit(_mk_request(rng, vocab, 3, 2))
        lat = {c.request_id: c.latency for c in engine.run()}
        lat_first = lat[first]
        # Admitted (and first token emitted) on the very next step: zero wait.
        assert lat_first.queue_wait_iterations == 0
        assert lat_first.ttft_iterations == 0
        assert lat_first.decode_iterations == 3
        assert lat_first.finish_reason == "length"
        lat_second = lat[second]
        # Waited for the three decode iterations of the first request.
        assert lat_second.queue_wait_iterations == 3
        assert lat_second.ttft_iterations == 3
        assert lat_second.decode_iterations == 2
        assert lat_second.finished_step == lat_second.first_token_step + 1

    def test_completion_carries_latency_record(self):
        with replay("fifo", slots=8) as state:
            state.submit(3, 2)

    def test_drained_engine_keeps_no_request_record(self):
        """No latency record outlives its completion, and no prefill cache its
        install into the slot pool (checked after every rule)."""
        with replay("fifo/4", slots=2) as state:
            state.submit(3, 6)
            state.step()  # the whole prompt fits the budget: installed, decoding
            for prompt_len in (9, 6, 1, 7):
                state.submit(prompt_len, 2)


class TestStreaming:
    def test_engine_on_token_streams_every_token_in_order(self):
        with replay("fifo", slots=2) as state:
            for prompt_len, budget in ((3, 4), (5, 2), (4, 3)):
                state.submit(prompt_len, budget)


class TestThreadSafety:
    def test_concurrent_submit_allocates_unique_ids(self, tiny_model):
        """Producers may submit from many threads; ids and latency records
        must never collide (the queue advertises thread-safe producers)."""
        import threading

        rng = np.random.default_rng(29)
        vocab = tiny_model.config.vocab_size
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        ids = []
        lock = threading.Lock()

        def producer():
            local = [
                engine.submit(_mk_request(np.random.default_rng(0), vocab, 3, 1))
                for _ in range(50)
            ]
            with lock:
                ids.extend(local)

        threads = [threading.Thread(target=producer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(ids) == 200 and len(set(ids)) == 200
        assert engine.num_waiting == 200
        entries = engine.queue.entries()
        assert all(entry.latency.request_id == entry.request_id for entry in entries)


class TestDeterminism:
    def _trace(self, model, scheduler, seed):
        """Admission trace of a seeded mixed workload under one policy."""
        rng = np.random.default_rng(seed)
        vocab = model.config.vocab_size
        engine = InferenceEngine(
            model, max_batch_size=2, scheduler=scheduler, clock=ManualClock()
        )
        ids, completions = [], []
        for _ in range(8):
            size = int(rng.choice((3, 5, 24)))
            budget = int(rng.integers(1, 5))
            priority = int(rng.integers(0, 3))
            ids.append(
                engine.submit(
                    _mk_request(rng, vocab, size, budget), priority=priority
                )
            )
            completions.extend(engine.step())
        completions.extend(engine.run())
        lat = {c.request_id: c.latency for c in completions}
        return [
            (rid, lat[rid].admitted_step, lat[rid].first_token_step, lat[rid].finished_step)
            for rid in ids
        ]

    @pytest.mark.parametrize(
        "make_scheduler",
        [
            lambda: FIFOScheduler(prefill_chunk_tokens=4),
            lambda: PriorityScheduler(prefill_chunk_tokens=4),
            lambda: PagedScheduler(page_tokens=6),
        ],
    )
    def test_two_runs_produce_identical_admission_traces(
        self, tiny_model, make_scheduler
    ):
        first = self._trace(tiny_model, make_scheduler(), seed=77)
        second = self._trace(tiny_model, make_scheduler(), seed=77)
        assert first == second


class TestBenchWorkloadDeterminism:
    """The seeded mix workload of the serving benchmark replays exactly."""

    def test_bench_workload_admission_trace_is_deterministic(self, tiny_model):
        workload_a = make_traffic("mix", 10, tiny_model.config.vocab_size, seed=3)
        workload_b = make_traffic("mix", 10, tiny_model.config.vocab_size, seed=3)
        assert workload_a == workload_b
        result_a = run_inprocess(tiny_model, PagedScheduler(page_tokens=8), workload_a)
        result_b = run_inprocess(tiny_model, PagedScheduler(page_tokens=8), workload_b)
        assert result_a.trace_hash == result_b.trace_hash
        assert result_a.metrics == result_b.metrics
