"""Tests for the seeded traffic-scale load harness (benchmarks/bench_serving_load.py)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.serving import FIFOScheduler, InferenceEngine, PagedScheduler, PriorityScheduler
from repro.serving.resilience import ManualClock
from repro.serving.server import ServerConfig, serve_in_thread
from bench_serving_load import (
    DEADLINE_MIN_ITERS,
    MAX_OUTPUT_TOKENS,
    MAX_PROMPT_TOKENS,
    make_traffic,
    run_inprocess,
    run_live,
    verify_against_solo,
)

VOCAB = 512


class TestMakeTraffic:
    @pytest.mark.parametrize("arrival", ["poisson", "bursty"])
    def test_seeded_and_shaped(self, arrival):
        items = make_traffic(arrival, 32, VOCAB, seed=7)
        again = make_traffic(arrival, 32, VOCAB, seed=7)
        assert items == again
        assert items != make_traffic(arrival, 32, VOCAB, seed=8)
        steps = [item.submit_step for item in items]
        assert steps == sorted(steps)
        for item in items:
            assert 1 <= len(item.request.prompt) <= MAX_PROMPT_TOKENS
            assert 1 <= item.request.max_new_tokens <= MAX_OUTPUT_TOKENS
            assert all(0 <= t < VOCAB for t in item.request.prompt)
            if item.disconnect_after is not None:
                # disconnects are always mid-generation: strictly before the
                # request's own budget would finish it
                assert 1 <= item.disconnect_after < item.request.max_new_tokens
            if item.request.temperature is not None:
                assert item.request.seed is not None  # driver-independent sampling
            if item.deadline_iters is not None:
                assert item.deadline_iters >= DEADLINE_MIN_ITERS

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError):
            make_traffic("thundering-herd", 4, VOCAB)


class TestInprocessDriver:
    @pytest.mark.parametrize(
        "scheduler_factory",
        [FIFOScheduler, PriorityScheduler, lambda: PagedScheduler(page_tokens=64)],
        ids=["fifo", "priority", "paged"],
    )
    def test_exactly_once_and_solo_exact(self, tiny_model, scheduler_factory):
        items = make_traffic("poisson", 12, tiny_model.config.vocab_size, seed=3)
        result = run_inprocess(tiny_model, scheduler_factory(), items)
        assert result.n_requests == len(items)
        assert {r.item_index for r in result.records} == set(range(len(items)))
        assert verify_against_solo(tiny_model, items, result.records) == []
        again = run_inprocess(tiny_model, scheduler_factory(), items)
        assert result.trace_hash == again.trace_hash
        assert result.metrics == again.metrics

    def test_disconnects_cancel_and_deadlines_expire(self, tiny_model):
        # Heavy disconnects and short deadlines, four arrivals an iteration:
        # even items hang up after their first token, odd ones must be
        # admitted within one or two iterations.
        items = [
            dataclasses.replace(
                item,
                submit_step=index // 4,
                disconnect_after=(
                    1 if index % 2 == 0 and item.request.max_new_tokens >= 2 else None
                ),
                deadline_iters=1 + index % 4 // 2 if index % 2 else None,
            )
            for index, item in enumerate(
                make_traffic("poisson", 24, tiny_model.config.vocab_size, seed=5)
            )
        ]
        result = run_inprocess(tiny_model, FIFOScheduler(), items, max_batch_size=1)
        assert result.metrics["cancelled_count"] > 0
        assert result.metrics["expired_count"] > 0
        for record in result.records:
            if record.finish_reason == "expired":
                assert record.n_tokens == 0
                assert record.first_token_step is None
            if record.finish_reason == "cancelled" and record.n_tokens:
                item = items[record.item_index]
                assert record.n_tokens == item.disconnect_after
        assert verify_against_solo(tiny_model, items, result.records) == []


class TestLiveDriver:
    def test_live_matches_inprocess_and_is_deterministic(self, tiny_model):
        items = make_traffic("poisson", 10, tiny_model.config.vocab_size, seed=2)
        reference = run_inprocess(tiny_model, FIFOScheduler(), items)
        live_results = []
        for _ in range(2):
            engine = InferenceEngine(
                tiny_model,
                max_batch_size=4,
                scheduler=FIFOScheduler(),
                clock=ManualClock(),
            )
            config = ServerConfig(bench_mode=True, manual_clock_step=1.0)
            with serve_in_thread(engine, config=config) as handle:
                live_results.append(run_live(handle.host, handle.port, items))
        first, second = live_results
        # Same-seed live runs produce bit-identical admission/completion traces.
        assert first.trace_hash == second.trace_hash
        assert first.metrics == second.metrics
        # The wire path preserves every token and all iteration-space latency
        # metrics of the in-process run of the same workload.
        assert verify_against_solo(tiny_model, items, first.records) == []
        for metric, value in first.metrics.items():
            if metric == "engine_steps":
                assert abs(value - reference.metrics[metric]) <= 2
            else:
                assert value == reference.metrics[metric], metric
        for live_record, ref_record in zip(first.records, reference.records):
            assert live_record.tokens == ref_record.tokens
            assert live_record.finish_reason == ref_record.finish_reason
