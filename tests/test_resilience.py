"""Fault injection, supervisor recovery, and the chaos soak.

Covers the resilience layer end to end:

- plan/injector determinism (same seed, same schedule, same firings);
- snapshot/rollback exactness on both float and integer-resident caches
  (codes + scales compared, never dequantized floats);
- the supervisor's policy against a fake runner (no model, no engine):
  isolation call sequence, corruption attribution, backoff, the shared
  attempt budget, immediate degradation on ``OverflowError``;
- the recovery state machine through the engine: retry with backoff, prefill
  requeue (progress preserved), degradation to the sequential oracle,
  quarantine with ``finish_reason="error"``, watchdog timeouts, ``run()``
  liveness guards and ``on_token`` callback hardening -- scenarios replayed
  on the lifecycle machine (``tests/test_lifecycle.py``), which draws such
  fault plans itself;
- the randomized chaos soak across all schedulers, checking the
  conservation invariants (exactly-once completion, no slot leaks,
  bit-identical survivors).
"""

import gc
import weakref

import numpy as np
import pytest

from repro.mamba.cache import InferenceCache
from repro.quant import QuantConfig, QuantMethod, SSMQuantConfig, quantize_model
from repro.serving.engine import InferenceEngine, Request
from repro.serving.events import EventLog
from repro.serving.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ManualClock,
    ResilienceConfig,
    Supervisor,
)
from chaos_soak import (
    SCHEDULER_NAMES,
    build_workload,
    run_chaos_soak,
    soak_once,
)
from test_lifecycle import replay


def _star(model, **ssm_kwargs):
    config = QuantConfig(
        method=QuantMethod.LIGHTMAMBA_STAR,
        w_bits=8,
        a_bits=8,
        ssm=SSMQuantConfig(**ssm_kwargs),
    )
    return quantize_model(model, config)


def _engine(model, injector=None, clock=None, *, max_batch_size=3, **cfg):
    resilience = ResilienceConfig(**cfg) if cfg else ResilienceConfig()
    return InferenceEngine(
        model,
        max_batch_size=max_batch_size,
        clock=clock,
        resilience=resilience,
        fault_injector=injector,
    )


def _requests(n=4, prompt_len=4, max_new=6):
    return [
        Request(prompt=[1 + i] + list(range(2, 2 + prompt_len - 1)), max_new_tokens=max_new)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def reference_tokens(tiny_model):
    """Fault-free supervised run of the standard 4-request workload."""
    completions = _engine(tiny_model).run(_requests())
    return {c.request_id: list(c.result.tokens) for c in completions}


# ----------------------------------------------------------------------
# Plans, specs, injector
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_random_is_deterministic(self):
        a = FaultPlan.random(7, request_ids=(0, 1, 2))
        b = FaultPlan.random(7, request_ids=(0, 1, 2))
        assert a == b
        assert a != FaultPlan.random(8, request_ids=(0, 1, 2))

    def test_json_roundtrip(self):
        plan = FaultPlan.random(3, request_ids=(0, 1))
        assert FaultPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "bogus", "step": 1},
            {"kind": "kernel_raise", "step": 0},
            {"kind": "kernel_raise", "step": 1, "site": "nowhere"},
            {"kind": "kernel_raise", "step": 1, "exception": "oom"},
            {"kind": "kernel_raise", "step": 1, "repeats": 0},
            {"kind": "stall", "step": 1},  # stall needs stall_seconds > 0
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_make_exception_kinds(self):
        assert isinstance(
            FaultSpec(kind="kernel_raise", step=1).make_exception(), RuntimeError
        )
        assert isinstance(
            FaultSpec(kind="kernel_raise", step=1, exception="overflow").make_exception(),
            OverflowError,
        )


class TestFaultInjector:
    def test_arming_site_and_target(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="kernel_raise", step=3, site="decode", request_id=5),
            )
        )
        inj = FaultInjector(plan)
        inj.on_model_call("decode", 2, [5])  # not armed yet
        inj.on_model_call("prefill", 3, [5])  # wrong site
        inj.on_model_call("decode", 3, [4])  # wrong request
        with pytest.raises(RuntimeError):
            inj.on_model_call("decode", 3, [4, 5])
        # A targeted fault keeps firing on batched calls (so binary-search
        # isolation converges); only the single-request firing consumes it.
        assert not inj.exhausted
        with pytest.raises(RuntimeError):
            inj.on_model_call("decode", 3, [5])
        assert inj.exhausted
        inj.on_model_call("decode", 4, [5])  # budget consumed
        assert [t["step"] for t in inj.trace] == [3]

    def test_repeats_budget(self):
        plan = FaultPlan(faults=(FaultSpec(kind="kernel_raise", step=1, repeats=2),))
        inj = FaultInjector(plan)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                inj.on_model_call("decode", 1, [0])
        inj.on_model_call("decode", 1, [0])
        assert len(inj.trace) == 2

    def test_stall_advances_clock(self):
        clock = ManualClock()
        plan = FaultPlan(
            faults=(FaultSpec(kind="stall", step=2, stall_seconds=30.0),)
        )
        inj = FaultInjector(plan, clock_advance=clock.advance)
        inj.on_model_call("decode", 1, [0])
        assert clock() == 0.0
        inj.on_model_call("decode", 2, [0])
        assert clock() == 30.0

    def test_corrupt_rows_attribution(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="state_corrupt", step=1, request_id=7),
                FaultSpec(kind="state_corrupt", step=1),
            )
        )
        inj = FaultInjector(plan)
        assert inj.corrupt_rows("decode", 1, [3, 7]) == [1, 0]
        assert inj.corrupt_rows("decode", 2, [3, 7]) == []  # budgets spent

    def test_drop_callback(self):
        plan = FaultPlan(faults=(FaultSpec(kind="callback_drop", step=2, request_id=1),))
        inj = FaultInjector(plan)
        assert not inj.drop_callback(1, 1)
        assert not inj.drop_callback(2, 0)
        assert inj.drop_callback(2, 1)
        assert not inj.drop_callback(3, 1)

    @pytest.mark.parametrize("site", ["any", "prefill", "decode"])
    def test_drop_callback_ignores_the_spec_site(self, site):
        """Delivery is not a model-call site: a drop drawn with any ``site``
        (two of three draws in ``FaultPlan.random``) must still fire."""
        plan = FaultPlan(faults=(FaultSpec(kind="callback_drop", step=1, site=site),))
        inj = FaultInjector(plan)
        assert inj.drop_callback(1, 0)
        assert inj.trace[0]["site"] == "callback" and inj.exhausted


class TestManualClock:
    def test_monotonic(self):
        clock = ManualClock(5.0)
        clock.advance(2.5)
        assert clock() == 7.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestResilienceConfig:
    def test_backoff_schedule(self):
        cfg = ResilienceConfig(backoff_base_iterations=1, backoff_cap_iterations=8)
        assert [cfg.backoff_iterations(k) for k in (1, 2, 3, 4, 5)] == [1, 2, 4, 8, 8]
        with pytest.raises(ValueError):
            cfg.backoff_iterations(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_attempts=0)
        with pytest.raises(ValueError):
            ResilienceConfig(watchdog_budget_s=0.0)


# ----------------------------------------------------------------------
# Snapshot / rollback exactness (the supervisor's checkpoint contract)
# ----------------------------------------------------------------------
class TestSnapshotRollback:
    def _populated_cache(self, model, batch=3, steps=4):
        cache = model.new_cache(batch_size=batch)
        tokens = np.arange(1, batch + 1, dtype=np.int64)
        for _ in range(steps):
            model.step(tokens, cache)
        return cache

    def test_float_cache_roundtrip(self, tiny_model):
        cache = self._populated_cache(tiny_model)
        before = cache.snapshot_rows([0, 2])
        for layer in cache.layers:
            layer.conv_state[0] = np.nan
            layer.ssm_state[2] = -1.0
        assert not cache.snapshot_rows([0, 2]).state_equal(before)
        cache.restore_rows([0, 2], before)
        assert cache.snapshot_rows([0, 2]).state_equal(before)

    def test_quantized_cache_roundtrip_is_integer_exact(self, tiny_model):
        model = _star(tiny_model)
        cache = self._populated_cache(model)
        before = cache.snapshot_rows([1])
        for layer in cache.layers:
            # Corrupt the integer codes themselves: rollback must restore the
            # exact codes and scale exponents, not a requantized lookalike.
            layer.ssm_state.codes[1] ^= 1
            layer.conv_state[1] += 0.5
        assert not cache.snapshot_rows([1]).state_equal(before)
        cache.restore_rows([1], before)
        after = cache.snapshot_rows([1])
        assert after.state_equal(before)
        for restored, original in zip(after.layers, before.layers):
            assert restored.ssm_state.exact_equal(original.ssm_state)

    def test_resident_bytes_positive(self, tiny_model):
        model = _star(tiny_model)
        cache = model.new_cache(batch_size=2)
        assert cache.resident_state_bytes() > 0
        assert tiny_model.new_cache(batch_size=2).resident_state_bytes() > 0


# ----------------------------------------------------------------------
# Supervisor policy against a fake runner (no model, no engine)
# ----------------------------------------------------------------------
class _FakeRunner:
    """A runner double: a real (model-free) slot pool, scripted model calls.

    ``decode`` raises whenever a request in ``raising`` is in the batch and
    otherwise advances the rows' state by one; ``prefill`` raises
    ``prefill_error`` while it is set.  Every call is recorded.
    """

    def __init__(self, config, num_slots=4):
        self.num_slots = num_slots
        self.pool = InferenceCache.zeros(config, num_slots)
        self._logits = np.zeros((num_slots, 5))
        self.raising = set()
        self.prefill_error = None
        self.decode_sizes = []
        self.prefill_scans = []

    def decode(self, slots, tokens, request_ids):
        self.decode_sizes.append(len(slots))
        if self.raising & set(request_ids):
            raise RuntimeError("kernel fault")
        for layer in self.pool.layers:
            layer.ssm_state[list(slots)] += 1.0
        self._logits[list(slots)] = np.asarray(tokens, dtype=np.float64)[:, None]

    def logits(self, slots):
        return self._logits[slots]

    def prefill(self, segment, cache, *, scan_impl=None, slot=None, request_id=None):
        self.prefill_scans.append(scan_impl)
        if self.prefill_error is not None:
            raise self.prefill_error
        return np.zeros(5), cache

    def release(self, request_id):
        pass


class TestSupervisorPolicy:
    SLOTS = [0, 1, 2, 3]
    IDS = [10, 11, 12, 13]
    TOKENS = np.arange(4, dtype=np.int64)

    def _supervisor(self, tiny_config, *faults, **cfg):
        runner = _FakeRunner(tiny_config)
        events = EventLog(ManualClock())
        events.stats.engine_steps = 5
        supervisor = Supervisor(
            runner, ResilienceConfig(**cfg), FaultInjector(FaultPlan(faults=faults)), events
        )
        return supervisor, runner, events.stats

    def _advanced(self, runner):
        return [float(runner.pool.layers[0].ssm_state[slot].max()) for slot in self.SLOTS]

    def test_raising_row_is_isolated_by_bisection(self, tiny_config):
        supervisor, runner, stats = self._supervisor(tiny_config)
        runner.raising = {12}
        verdicts = supervisor.decode(self.SLOTS, self.TOKENS, self.IDS)
        assert runner.decode_sizes == [4, 2, 2, 1, 1]
        # Survivors committed; the culprit is rolled back and held for retry.
        assert self._advanced(runner) == [1.0, 1.0, 0.0, 1.0]
        assert [(v.action, v.slot) for v in verdicts] == [("retry", 2)]
        assert supervisor.retrying == [2]
        assert (stats.faults, stats.rollbacks, stats.retries) == (1, 1, 1)
        # The engine counts one decode call; isolation committed on two.
        assert stats.decode_calls == 1
        # The retry is the same row decoded alone from its held snapshot.
        runner.raising.clear()
        assert supervisor.decode([2], self.TOKENS[2:3], [12]) == []
        assert self._advanced(runner) == [1.0, 1.0, 1.0, 1.0]
        assert supervisor.retrying == [] and stats.recovered == 1

    def test_poisoned_row_is_attributed_without_bisecting(self, tiny_config):
        spec = FaultSpec(kind="state_corrupt", step=1, site="decode", request_id=11)
        supervisor, runner, stats = self._supervisor(tiny_config, spec)
        verdicts = supervisor.decode(self.SLOTS, self.TOKENS, self.IDS)
        assert runner.decode_sizes == [4]
        assert [(v.action, v.slot) for v in verdicts] == [("retry", 1)]
        assert self._advanced(runner) == [1.0, 0.0, 1.0, 1.0]
        assert all(np.isfinite(layer.conv_state).all() for layer in runner.pool.layers)
        assert supervisor.events.request_ids("corrupt", "fault", "rollback") == [11]

    def test_backoff_follows_the_config_schedule(self, tiny_config):
        config = dict(max_attempts=6, backoff_base_iterations=1, backoff_cap_iterations=4)
        supervisor, runner, stats = self._supervisor(tiny_config, **config)
        runner.raising = {10}
        waits = []
        for _ in range(5):
            (verdict,) = supervisor.decode([0], self.TOKENS[:1], [10])
            waits.append(verdict.step - stats.engine_steps)
            stats.engine_steps = verdict.step
        assert waits == [ResilienceConfig(**config).backoff_iterations(k) for k in range(1, 6)]
        assert waits == [1, 2, 4, 4, 4]
        (verdict,) = supervisor.decode([0], self.TOKENS[:1], [10])
        assert verdict.action == "quarantine" and "kernel fault" in verdict.error

    def test_attempt_budget_spans_prefill_and_decode(self, tiny_config):
        supervisor, runner, stats = self._supervisor(tiny_config, max_attempts=3, degrade_after=9)
        cache = InferenceCache.zeros(tiny_config)
        runner.prefill_error = RuntimeError("prefill fault")
        for attempt in (1, 2):
            verdict = supervisor.prefill(np.arange(3), cache, slot=0, request_id=10)
            assert (verdict.action, verdict.attempts) == ("requeue", attempt)
        runner.raising = {10}
        (verdict,) = supervisor.decode([0], self.TOKENS[:1], [10])
        assert verdict.action == "quarantine"
        assert (stats.faults, stats.requeued_faults, stats.quarantined) == (3, 2, 1)
        # The request's ledger dies with it.
        supervisor.release(10)
        assert supervisor.retrying == []

    def test_overflow_degrades_at_once(self, tiny_config):
        supervisor, runner, stats = self._supervisor(tiny_config, degrade_after=9)
        cache = InferenceCache.zeros(tiny_config)
        runner.prefill_error = OverflowError("static overflow guard")
        verdict = supervisor.prefill(np.arange(3), cache, slot=1, request_id=11)
        assert verdict.action == "requeue" and stats.degraded == 1
        runner.prefill_error = None
        logits, advanced = supervisor.prefill(np.arange(3), cache, slot=1, request_id=11)
        assert runner.prefill_scans == [None, "sequential"]
        assert advanced is not cache and stats.recovered == 1


# ----------------------------------------------------------------------
# Supervisor recovery in the engine: scenarios of the lifecycle machine
# (tests/test_lifecycle.py), which checks every completion against solo
# decode, every stream against its completion, and the stats against both
# ----------------------------------------------------------------------
def _four_requests(*faults, **resilience):
    """Four 4-token prompts, 6 new tokens each, on 3 supervised slots."""
    with replay("fifo", 3, faults=faults, **resilience) as state:
        for _ in range(4):
            state.submit(4, 6)
    return state


class TestEngineRecovery:
    def test_decode_kernel_raise_recovers_bit_exact(self):
        state = _four_requests(FaultSpec("kernel_raise", step=3, site="decode", request_id=1))
        stats = state.engine.stats
        assert [o.reason for o in state.outcomes.values()] == ["length"] * 4
        assert (stats.faults, stats.rollbacks, stats.recovered) == (1, 1, 1)
        assert state.engine.events.request_ids("backoff") == [1]

    def test_decode_corruption_attributed_and_rolled_back(self):
        state = _four_requests(FaultSpec("state_corrupt", step=4, site="decode", request_id=2))
        assert [o.reason for o in state.outcomes.values()] == ["length"] * 4
        # Attribution is exact: only the targeted request was ever touched.
        log = state.engine.events
        assert log.request_ids("corrupt", "fault", "rollback") == [2]
        assert state.engine.stats.recovered == 1

    def test_quarantine_after_max_attempts(self):
        fault = FaultSpec("kernel_raise", step=2, site="decode", request_id=0, repeats=10)
        state = _four_requests(fault, max_attempts=3)
        quarantined = state.outcomes[0]
        assert quarantined.reason == "error" and "injected" in quarantined.error
        assert len(quarantined.tokens) >= 1  # already-streamed tokens are kept
        assert [state.outcomes[rid].reason for rid in (1, 2, 3)] == ["length"] * 3
        assert state.engine.stats.retries == 2  # attempts 1 and 2 retried, 3rd quarantined

    def test_prefill_fault_requeues_with_progress(self):
        fault = FaultSpec("kernel_raise", step=1, site="prefill", request_id=3)
        state = _four_requests(fault, degrade_after=5)
        assert [o.reason for o in state.outcomes.values()] == ["length"] * 4
        assert (state.engine.stats.requeued_faults, state.engine.stats.degraded) == (1, 0)
        assert state.engine.events.request_ids("requeue") == [3]

    def test_overflow_degrades_to_sequential_oracle(self):
        state = _four_requests(
            FaultSpec("kernel_raise", step=1, site="prefill", request_id=0, exception="overflow")
        )
        assert [o.reason for o in state.outcomes.values()] == ["length"] * 4
        assert state.engine.stats.degraded == 1
        assert state.engine.events.request_ids("degrade") == [0]

    def test_quantized_engine_survives_corruption(self, tiny_model):
        model = _star(tiny_model)
        reference = {
            c.request_id: list(c.result.tokens) for c in _engine(model).run(_requests())
        }
        plan = FaultPlan(
            faults=(FaultSpec(kind="state_corrupt", step=3, site="decode", request_id=1),)
        )
        engine = _engine(model, FaultInjector(plan))
        completions = engine.run(_requests(), max_idle_iterations=50)
        assert [c.finish_reason for c in completions] == ["length"] * 4
        for c in completions:
            assert list(c.result.tokens) == reference[c.request_id]
        assert engine.stats.recovered == 1

    def test_watchdog_converts_stall_to_timeout(self):
        fault = FaultSpec("stall", step=3, site="decode", stall_seconds=30.0)
        state = _four_requests(fault, watchdog_budget_s=1.0)
        assert [o.reason for o in state.outcomes.values()] == ["length"] * 4
        assert state.engine.stats.watchdog_timeouts == 1

    def test_snapshot_accounting(self, tiny_model):
        engine = _engine(tiny_model)
        engine.run(_requests(n=2))
        assert engine.stats.snapshot_rows > 0
        assert engine.stats.snapshot_bytes > 0.0


# ----------------------------------------------------------------------
# run() liveness guards
# ----------------------------------------------------------------------
class TestRunGuards:
    def test_validation(self, tiny_model):
        engine = _engine(tiny_model)
        with pytest.raises(ValueError):
            engine.run([], max_wall_seconds=0)
        with pytest.raises(ValueError):
            engine.run([], max_idle_iterations=0)

    def test_idle_guard_aborts_stuck_engine(self):
        # Every decode attempt faults and max_attempts is huge, so the engine
        # spins in backoff forever; the idle guard must end the drain.
        fault = FaultSpec("kernel_raise", step=2, site="decode", request_id=0, repeats=10_000)
        with replay("fifo", 1, faults=(fault,), max_attempts=10_000) as state:
            state.submit(3, 4)
            state.drain(max_idle=10)
        assert "no progress" in state.outcomes[0].error
        assert state.engine.stats.aborted == 1

    def test_wall_clock_guard_on_injected_clock(self):
        # No watchdog: stalls only advance the clock, so only the wall guard
        # can end the run early.
        fault = FaultSpec("stall", step=1, site="decode", stall_seconds=10.0, repeats=100)
        with replay("fifo", 1, faults=(fault,)) as state:
            state.submit(3, 50)
            state.drain(max_wall=25.0)
        outcome = state.outcomes[0]
        assert "max_wall_seconds" in outcome.error and 0 < len(outcome.tokens) < 50

    def test_guards_do_not_trip_on_healthy_runs(self, tiny_model, reference_tokens):
        completions = _engine(tiny_model).run(
            _requests(), max_wall_seconds=1e9, max_idle_iterations=3
        )
        assert [c.finish_reason for c in completions] == ["length"] * 4
        for c in completions:
            assert list(c.result.tokens) == reference_tokens[c.request_id]


# ----------------------------------------------------------------------
# on_token callback hardening
# ----------------------------------------------------------------------
class TestCallbackHardening:
    def test_raising_callback_disables_streaming_for_that_request_only(self):
        with replay("fifo", 3, faults=()) as state:
            for _ in range(4):
                state.submit(4, 6)
            state.arm(1, at=1, action="raise")
        assert [o.reason for o in state.outcomes.values()] == ["length"] * 4
        assert state.raised == {1: 1}  # request 1 streamed one token, then nothing

    def test_callback_drop_fault_suppresses_one_delivery(self):
        state = _four_requests(FaultSpec("callback_drop", step=2, request_id=0))
        assert [o.reason for o in state.outcomes.values()] == ["length"] * 4
        assert state.engine.stats.callback_drops == 1


# ----------------------------------------------------------------------
# Chaos soak: randomized schedules, all schedulers, conservation invariants
# ----------------------------------------------------------------------
class TestChaosSoak:
    def test_workload_is_deterministic(self, tiny_model):
        vocab = tiny_model.config.vocab_size
        assert build_workload(5, vocab_size=vocab) == build_workload(5, vocab_size=vocab)

    def test_soak_matrix(self, tiny_model):
        # 7 seeds x 3 schedulers = 21 randomized fault schedules.
        reports = run_chaos_soak(tiny_model, seeds=range(7))
        assert len(reports) == 21
        failures = [r for r in reports if not r.ok]
        assert not failures, [
            (r.scheduler, r.seed, r.violations) for r in failures
        ]
        # The matrix must actually exercise the supervisor, not dodge it --
        # all four fault kinds.
        assert sum(r.stats["faults"] for r in reports) > 0
        assert sum(r.stats["recovered"] for r in reports) > 0
        fired = {t["spec"]["kind"] for r in reports for t in r.fault_trace}
        assert fired == {"kernel_raise", "state_corrupt", "stall", "callback_drop"}
        assert sum(r.stats["callback_drops"] for r in reports) > 0
        assert {r.scheduler for r in reports} == set(SCHEDULER_NAMES)

    def test_soak_quantized_model(self, tiny_model):
        model = _star(tiny_model)
        reports = run_chaos_soak(model, seeds=range(2), schedulers=("fifo",))
        assert all(r.ok for r in reports), [r.violations for r in reports if not r.ok]

    def test_report_json(self, tiny_model):
        report = soak_once(tiny_model, seed=0, scheduler="fifo")
        payload = report.to_json()
        assert payload["ok"] is True
        assert payload["scheduler"] == "fifo"
        assert set(payload["finish_reasons"]) == {str(i) for i in range(6)}


def test_decode_fault_frees_the_step_without_the_collector(tiny_model):
    """A decode fault's exception does not outlive ``Supervisor.decode``.
    Its traceback reaches the engine's frames, so a ``failures`` list still
    holding it would keep the step's locals -- the completions retired in
    that step among them -- alive until the next cyclic collection.  With the
    collector off, the record of a request retired in the faulting step dies
    with its completion, and the fault-free supervised steps before it leave
    nothing for the collector (``solve``'s closure cycle held the snapshot)."""
    requests = [Request(prompt=[1, 2, 3], max_new_tokens=2),
                Request(prompt=[4, 5, 6], max_new_tokens=8)]
    dry = _engine(tiny_model, max_batch_size=2)
    first, second = (dry.submit(request) for request in requests)
    while not any(c.request_id == first for c in dry.step()):
        pass
    retire_step = dry.stats.engine_steps         # the second request decodes in it too
    plan = FaultPlan(faults=(
        FaultSpec(kind="kernel_raise", step=retire_step, site="decode", request_id=second),))
    engine = _engine(tiny_model, FaultInjector(plan), max_batch_size=2)
    assert [engine.submit(request) for request in requests] == [first, second]
    gc.collect()
    gc.disable()
    try:
        for _ in range(retire_step - 1):
            assert engine.step() == []
        assert gc.collect() == 0
        retired = engine.step()
        assert [c.request_id for c in retired] == [first]
        assert engine.stats.rollbacks == 1
        record = weakref.ref(retired[0].latency)
        del retired
        assert record() is None
    finally:
        gc.enable()
