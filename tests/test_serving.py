"""Tests of the serving layer: sampling primitives and the engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mamba import greedy_decode, sample_decode
from repro.mamba.sampling import greedy_select, log_softmax, sample_select, top_k_filter
from repro.serving import EngineStats, InferenceEngine, Request
from test_lifecycle import replay


class TestSamplingPrimitives:
    def test_log_softmax_matches_reference(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 11)) * 5
        lp = log_softmax(logits)
        ref = np.log(np.exp(logits) / np.sum(np.exp(logits), axis=-1, keepdims=True))
        np.testing.assert_allclose(lp, ref, atol=1e-12)
        np.testing.assert_allclose(np.sum(np.exp(lp), axis=-1), 1.0, atol=1e-12)

    def test_log_softmax_no_small_probability_bias(self):
        """Extreme logits keep exact log-probabilities (no +eps bias)."""
        logits = np.array([0.0, -800.0])
        lp = log_softmax(logits)
        assert lp[1] == pytest.approx(-800.0, abs=1e-9)

    def test_top_k_keeps_exactly_k_with_ties(self):
        """Ties at the k-th logit must not inflate the candidate set."""
        logits = np.array([1.0, 3.0, 2.0, 2.0, 2.0, 0.5])
        out = top_k_filter(logits, 3)
        kept = np.where(np.isfinite(out))[0]
        assert list(kept) == [1, 2, 3]  # best, then tied values by token id
        np.testing.assert_allclose(out[kept], logits[kept], atol=0)

    def test_top_k_all_equal(self):
        out = top_k_filter(np.zeros(10), 4)
        assert np.sum(np.isfinite(out)) == 4
        assert list(np.where(np.isfinite(out))[0]) == [0, 1, 2, 3]

    def test_top_k_batched_rows_independent(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 16))
        out = top_k_filter(logits, 3)
        assert np.all(np.sum(np.isfinite(out), axis=-1) == 3)
        for i in range(5):
            np.testing.assert_allclose(out[i], top_k_filter(logits[i], 3), atol=0)

    def test_top_k_ge_vocab_is_identity(self):
        logits = np.arange(6.0)
        np.testing.assert_allclose(top_k_filter(logits, 6), logits, atol=0)

    def test_top_k_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            top_k_filter(np.zeros(4), 0)

    def test_greedy_select_logprob_is_log_softmax(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 9))
        tokens, logprobs = greedy_select(logits)
        np.testing.assert_array_equal(tokens, np.argmax(logits, axis=-1))
        lp = log_softmax(logits)
        np.testing.assert_allclose(
            logprobs, lp[np.arange(4), tokens], atol=1e-12
        )

    @given(
        logits=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 24)),
            elements=st.one_of(st.sampled_from([-np.inf, -2.0, 0.0, 3.5]),
                               st.floats(-1e3, 1e3), st.floats(-800.0, -700.0)),
        ),
        batched=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_greedy_select_equals_log_softmax_at_the_argmax(self, logits, batched):
        """The lean log-prob is ``log_softmax`` gathered at the argmax, to the
        bit, on finite logits with ties and ``-inf`` entries; a row without a
        finite logit (all ``-inf``) is NaN in both."""
        logits = logits if batched else logits[0]
        want_tokens = np.argmax(logits, axis=-1)
        with np.errstate(invalid="ignore"):  # -inf - -inf in an all -inf row
            tokens, logprobs = greedy_select(logits)
            want = np.take_along_axis(log_softmax(logits), want_tokens[..., None], axis=-1)[..., 0]
        assert np.shape(logprobs) == np.shape(want)
        np.testing.assert_array_equal(tokens, want_tokens)
        finite = np.isfinite(np.max(logits, axis=-1))
        assert np.array_equal(np.isnan(logprobs), ~finite)
        assert np.asarray(logprobs)[finite].tobytes() == np.asarray(want)[finite].tobytes()

    def test_greedy_select_nan_rows_stay_nan(self):
        logits = np.array([[0.5, np.nan, 2.0], [1.0, 2.0, 3.0], [np.inf, 0.0, 1.0]])
        with np.errstate(invalid="ignore"):  # nan - nan, inf - inf
            tokens, logprobs = greedy_select(logits)
        assert list(tokens) == [1, 2, 0]
        assert np.isnan(logprobs[0]) and np.isfinite(logprobs[1]) and np.isnan(logprobs[2])

    def test_sample_select_respects_top_k(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(2, 32))
        rngs = [np.random.default_rng(i) for i in range(2)]
        allowed = np.argsort(-logits, axis=-1, kind="stable")[:, :4]
        for _ in range(50):
            tokens, logprobs = sample_select(logits, rngs, temperature=1.3, top_k=4)
            for row in range(2):
                assert tokens[row] in allowed[row]
            assert np.all(np.isfinite(logprobs))

    def test_sample_select_validation(self):
        logits = np.zeros((2, 8))
        rngs = [np.random.default_rng(0)]
        with pytest.raises(ValueError):
            sample_select(logits, rngs)  # rng count mismatch
        with pytest.raises(ValueError):
            sample_select(logits, rngs * 2, temperature=0.0)


class TestFixedBatch:
    """A fixed batch is the engine with one slot per request."""

    def _prompts(self, model, sizes, seed=0):
        rng = np.random.default_rng(seed)
        return [tuple(rng.integers(0, model.config.vocab_size, size=s)) for s in sizes]

    def test_greedy_matches_single_sequence(self, tiny_model):
        """Ragged prompts, per-request stops and budgets in one batch == solo."""
        prompts = self._prompts(tiny_model, (5, 9, 5, 7))
        budgets = [6, 3, 8, 5]
        stops = [None, 2, 10, None]
        requests = [
            Request(prompt=p, max_new_tokens=b, stop_token=s)
            for p, b, s in zip(prompts, budgets, stops)
        ]
        done = InferenceEngine(tiny_model, max_batch_size=len(requests)).run(requests)
        for request, completion in zip(requests, done):
            ref = greedy_decode(
                tiny_model, request.prompt, request.max_new_tokens,
                stop_token=request.stop_token,
            )
            assert completion.result.tokens == ref.tokens
            np.testing.assert_allclose(completion.result.logprobs, ref.logprobs, atol=1e-10)
            assert completion.result.prompt == ref.prompt

    def test_ragged_stop_token_termination(self, tiny_model):
        """A request stopping early must not perturb the others."""
        prompts = self._prompts(tiny_model, (4, 4, 4), seed=3)
        solo = [greedy_decode(tiny_model, p, 10) for p in prompts]
        # Pick a stop token that fires early for request 1 only.
        stop = solo[1].tokens[1]
        stops = [None, stop, None]
        requests = [
            Request(prompt=p, max_new_tokens=10, stop_token=s) for p, s in zip(prompts, stops)
        ]
        done = InferenceEngine(tiny_model, max_batch_size=3).run(requests)
        for prompt, s, completion in zip(prompts, stops, done):
            ref = greedy_decode(tiny_model, prompt, 10, stop_token=s)
            assert completion.result.tokens == ref.tokens
        assert done[1].finish_reason == "stop" and done[1].result.tokens[-1] == stop
        assert len(done[1].result) < len(done[0].result)

    def test_sampling_matches_single_sequence_with_seeds(self, tiny_model):
        prompts = self._prompts(tiny_model, (5, 8, 6), seed=4)
        seeds = [101, 202, 303]
        requests = [
            Request(prompt=p, max_new_tokens=7, temperature=0.8, top_k=16, seed=s)
            for p, s in zip(prompts, seeds)
        ]
        done = InferenceEngine(tiny_model, max_batch_size=3).run(requests)
        for prompt, s, completion in zip(prompts, seeds, done):
            ref = sample_decode(
                tiny_model, prompt, 7, temperature=0.8, top_k=16, seed=s
            )
            assert completion.result.tokens == ref.tokens
            np.testing.assert_allclose(completion.result.logprobs, ref.logprobs, atol=1e-10)


class TestInferenceEngine:
    def _requests(self, model, seed=0):
        rng = np.random.default_rng(seed)
        sizes = (5, 9, 3, 7, 4, 6)
        budgets = (6, 3, 8, 5, 7, 4)
        return [
            Request(
                prompt=tuple(rng.integers(0, model.config.vocab_size, size=s)),
                max_new_tokens=b,
            )
            for s, b in zip(sizes, budgets)
        ]

    # The solo-match scenarios are replays of the lifecycle machine
    # (tests/test_lifecycle.py): it checks every completion against
    # greedy_decode / sample_decode, and each request completes once.
    def test_continuous_batching_matches_single_sequence(self):
        """More requests than slots; all results must match solo decodes."""
        with replay("fifo", slots=2) as state:
            for prompt_len, budget in zip((5, 9, 3, 7, 4, 6), (6, 3, 8, 5, 7, 4)):
                state.submit(prompt_len, budget)

    def test_one_model_step_per_decoding_iteration_and_no_snapshots(
        self, tiny_model, monkeypatch
    ):
        """Unsupervised, the engine is the bare runner: one ``model.step`` per
        iteration that decodes, and no checkpoint is ever taken."""
        from repro.mamba.cache import InferenceCache

        def forbidden(self, *args, **kwargs):
            raise AssertionError("an unsupervised engine took a state checkpoint")

        monkeypatch.setattr(InferenceCache, "copy", forbidden)
        monkeypatch.setattr(InferenceCache, "snapshot_rows", forbidden)
        model = tiny_model.copy()
        steps, original = [], model.step
        model.step = lambda tokens, cache: steps.append(len(tokens)) or original(tokens, cache)
        engine = InferenceEngine(model, max_batch_size=2)
        for request in self._requests(tiny_model):
            engine.submit(request)
        while engine.has_work:
            before = len(steps)
            engine.step()
            assert len(steps) - before <= 1
        assert len(steps) == engine.stats.decode_calls > 0
        assert sum(steps) == engine.stats.decode_call_rows

    def test_slot_reuse_and_stats(self, tiny_model):
        requests = self._requests(tiny_model)
        engine = InferenceEngine(tiny_model, max_batch_size=2)
        engine.run(requests)
        stats = engine.stats
        assert stats.admitted == stats.completed == len(requests)
        assert stats.decoded_tokens == sum(r.max_new_tokens for r in requests)
        # Slots were shared: strictly fewer decode calls than decoded tokens
        # (each call advances up to max_batch_size requests, and the final
        # token of every request comes from already-pending logits).
        assert stats.decode_calls < stats.decoded_tokens
        assert stats.tokens_per_decode_call > 1.0

    def test_mixed_greedy_and_sampled_requests(self):
        with replay("fifo", slots=2) as state:
            state.submit(5, 6)
            state.submit(7, 4, seed=42)

    def test_stop_token_retires_request(self):
        with replay("fifo", slots=1) as state:
            state.submit(5, 10, stop=2)  # the third token of its free run
        assert state.outcomes[0].reason == "stop"

    def test_incremental_submission(self):
        """Requests submitted while the engine is running are picked up."""
        with replay("fifo", slots=2) as state:
            state.submit(4, 6)
            state.step()
            assert state.engine.num_active == 1
            state.submit(5, 2)

    def test_zero_budget_request_completes_immediately(self):
        with replay("fifo", slots=1) as state:
            state.submit(2, 0)
            state.step()
        assert state.outcomes[0] == ("length", (), None)

    def test_tokens_per_decode_call_guards_zero_decode_calls(self, tiny_model):
        """No decode calls must report 0.0 occupancy, not divide by zero."""
        assert EngineStats().tokens_per_decode_call == 0.0
        # An engine that only ever served zero-budget requests never issues a
        # batched decode call either.
        engine = InferenceEngine(tiny_model, max_batch_size=1)
        engine.run([Request(prompt=(1, 2), max_new_tokens=0)])
        assert engine.stats.decode_calls == 0
        assert engine.stats.tokens_per_decode_call == 0.0

    def test_validation(self, tiny_model):
        with pytest.raises(ValueError):
            InferenceEngine(tiny_model, max_batch_size=0)
        with pytest.raises(ValueError):
            Request(prompt=(), max_new_tokens=3)
        with pytest.raises(ValueError):
            Request(prompt=(1,), max_new_tokens=-1)
        with pytest.raises(ValueError):
            Request(prompt=(1,), max_new_tokens=1, temperature=-0.5)
        for temperature in (float("nan"), float("inf")):  # NaN logprobs / greedy in disguise
            with pytest.raises(ValueError):
                Request(prompt=(1,), max_new_tokens=1, temperature=temperature, seed=1)
        with pytest.raises(ValueError):
            Request(prompt=(1,), max_new_tokens=1, seed=3)  # seed without temperature
        engine = InferenceEngine(tiny_model)
        with pytest.raises(ValueError):
            engine.submit(Request(prompt=(10**9,), max_new_tokens=1))
        # A rejected submit must not consume a request id (ids drive the
        # default per-request sampling seeds).
        assert engine.submit(Request(prompt=(1,), max_new_tokens=1)) == 0

    def test_request_takes_integers_only(self):
        """Token ids, the budget, ``top_k``, ``stop_token`` and ``seed`` are
        integers: numpy's are stored as ``int``; a float, a bool or a string
        is a ``TypeError`` (never truncated); a negative stop token is a
        ``ValueError``."""
        request = Request(prompt=np.array([3, 1], dtype=np.int32), max_new_tokens=np.int64(4),
                          temperature=0.7, top_k=np.int16(5), stop_token=np.uint8(2),
                          seed=np.int64(9))
        assert request.prompt == (3, 1)
        fields = (*request.prompt, request.max_new_tokens, request.top_k, request.stop_token,
                  request.seed)
        assert all(type(value) is int for value in fields)
        for bad in (dict(prompt=(1.9,)), dict(prompt=(1, True)), dict(prompt="12"),
                    dict(prompt=np.array([1.0])), dict(max_new_tokens=True),
                    dict(max_new_tokens=2.0), dict(stop_token=False), dict(stop_token=1.5),
                    dict(temperature=0.7, top_k=2.0), dict(temperature=0.7, seed="7")):
            with pytest.raises(TypeError):
                Request(**{"prompt": (1,), "max_new_tokens": 1, **bad})
        with pytest.raises(ValueError):
            Request(prompt=(1,), max_new_tokens=1, stop_token=-3)

    def test_request_temperature_is_a_real_number(self):
        """``temperature`` takes Python and numpy reals, stored as ``float``;
        a bool or a string is a ``TypeError``, never read as 1.0 or parsed."""
        for value in (0.7, 2, np.float32(0.5), np.int64(3)):
            request = Request(prompt=(1,), max_new_tokens=1, temperature=value)
            assert type(request.temperature) is float and request.temperature == float(value)
        for bad in (True, False, "0.8", b"1", [0.7]):
            with pytest.raises(TypeError, match="temperature"):
                Request(prompt=(1,), max_new_tokens=1, temperature=bad)
