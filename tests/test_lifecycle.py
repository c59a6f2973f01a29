"""The engine's request lifecycle as one hypothesis state machine.

:class:`LifecycleMachine` drives an :class:`InferenceEngine` on the float
``mamba2-tiny`` model through its public surface -- ``submit``, ``step``,
``cancel``, ``run`` and the queue clock -- and checks after every rule what
must hold whatever the interleaving:

- exactly one completion per request, with a valid ``finish_reason``; a
  request finishes ``"cancelled"`` iff a ``cancel`` for it returned ``True``;
- conservation: waiting + prefilling + decoding requests are the live ones
  whose cancel is not pending, and no more slots are in use than exist;
- ``cancel`` between steps returns ``True`` iff the request is live; from
  ``on_token`` on the request being streamed it returns ``False`` iff that
  token was terminal (stop token or budget);
- a request waiting past its deadline expires at the next step, and only
  such a request expires;
- every stream is solo decode (``greedy_decode`` / ``sample_decode``): the
  whole of it for ``stop`` / ``length``, a prefix for ``cancelled`` /
  ``error`` / ``expired`` (requests the supervisor degraded are exempt);
- ``on_token`` saw exactly the completion's tokens and logprobs, less the
  deliveries an injected ``callback_drop`` removed and after a raising
  callback;
- latency records are ordered (submitted < admitted <= first token <=
  finished <= the step that returned them) and count every token;
- ``EngineStats`` agree with the completions, and nothing outlives its
  completion: no latency record, no prefill cache after install, no
  supervisor bookkeeping after the drain;
- the folds agree with their events: while the engine's event ring has not
  wrapped, recounting it from scratch gives ``vars(engine.stats)`` and every
  live request's latency record.

Five rules are directed, because uniform random rules seldom reach what
they do: ``preempt`` makes a wrapping scheduler evict an in-flight prefill,
``cancel_admitted`` / ``cancel_prefilling`` cancel an admitted request (a
prompt of 24 tokens is prefilled over several steps), and
``arm_live`` / ``cancel_on_terminal`` arm ``on_token`` actions on live
requests only (the second: a cancel from the request's own terminal token).

The examples are derandomized (the same 200 on every run, so tier-1 stays
deterministic).  A failure prints the shrunk rule sequence as a program
(``state = LifecycleMachine()``, ``state.setup(...)``, ...) and a
``@reproduce_failure`` line to put on the class; the program is also how a
scenario is pinned as a test -- see :func:`replay`, used by the serving,
scheduler, resilience and integer-state tests.
"""

from __future__ import annotations

import gc
import sys
import weakref
from collections import Counter, namedtuple
from contextlib import contextmanager
from functools import lru_cache
from math import inf

import numpy as np
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, precondition, rule

from repro.mamba import InitConfig, Mamba2Model, get_preset, greedy_decode, sample_decode
from repro.serving import (
    AdmissionPlan,
    FIFOScheduler,
    InferenceEngine,
    PagedScheduler,
    PriorityScheduler,
    Request,
)
from repro.serving.events import RING_CAPACITY, EngineStats, RequestLatency, fold
from repro.serving.resilience import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ManualClock,
    ResilienceConfig,
)

SCHEDULERS = {
    "fifo/4": lambda: FIFOScheduler(prefill_chunk_tokens=4),
    "priority/4+preempt": lambda: PriorityScheduler(prefill_chunk_tokens=4, preempt=True),
    "paged/6": lambda: PagedScheduler(page_tokens=6),
    "fifo": FIFOScheduler,
}
REASONS = frozenset({"stop", "length", "cancelled", "expired", "error"})
Outcome = namedtuple("Outcome", "reason tokens error")
FAULTS = st.builds(
    FaultSpec,
    kind=st.sampled_from(FAULT_KINDS),
    step=st.integers(1, 6),
    site=st.sampled_from(("any", "prefill", "decode")),
    request_id=st.none() | st.integers(0, 2),
    exception=st.sampled_from(("runtime", "overflow")),
    repeats=st.integers(1, 3),
    stall_seconds=st.just(10.0),
)


@lru_cache(maxsize=None)
def tiny_model() -> Mamba2Model:
    return Mamba2Model.from_config(get_preset("mamba2-tiny"), InitConfig(seed=0))


@lru_cache(maxsize=None)
def solo(request: Request):
    """The request decoded on its own: the reference every stream must match."""
    if request.temperature is None:
        return greedy_decode(
            tiny_model(), request.prompt, request.max_new_tokens, stop_token=request.stop_token
        )
    return sample_decode(
        tiny_model(), request.prompt, request.max_new_tokens, temperature=request.temperature,
        top_k=request.top_k, seed=request.seed, stop_token=request.stop_token,
    )


def leaked(refs, allowed=0):
    """Whether more than ``allowed`` weakly referenced objects are alive.

    A fault's traceback holds the frames it passed through (and what they
    hold) in a reference cycle until the collector runs: collect before
    calling anything a leak.
    """
    if sum(ref() is not None for ref in refs) > allowed:
        gc.collect()
    return sum(ref() is not None for ref in refs) > allowed


class DirectedPreemption:
    """A real scheduler whose next plan with an in-flight prefill, once armed,
    also evicts one.

    ``pick`` selects the prefill (modulo their number); the plan stops
    resuming that slot.  Only the public ``Scheduler`` protocol is used.
    """

    def __init__(self, inner):
        self.inner = inner
        self.pick = None

    def plan(self, queue, ctx):
        plan = self.inner.plan(queue, ctx)
        if self.pick is None or not ctx.prefilling:
            return plan
        slot = ctx.prefilling[self.pick % len(ctx.prefilling)].slot
        self.pick = None
        return AdmissionPlan(
            resume=tuple(grant for grant in plan.resume if grant[0] != slot),
            admit=plan.admit,
            preempt=tuple(sorted({*plan.preempt, slot})),
        )


class LifecycleMachine(RuleBasedStateMachine):
    """Submit / step / cancel / clock against a model of what must hold.

    The model keeps no completion and no latency record (per request: its
    ``Request``, deadline, stream and :data:`Outcome`), so a record still
    alive is one the engine kept.  Every rule checks the invariants before
    it returns (:meth:`check`), so a hand-driven :func:`replay` checks what a
    generated run checks.
    """

    ids = Bundle("ids")

    @initialize(
        scheduler=st.sampled_from(list(SCHEDULERS)),
        slots=st.integers(1, 3),
        faults=st.none() | st.lists(FAULTS, min_size=1, max_size=5).map(tuple),
        max_attempts=st.integers(1, 3),
        backoff_base_iterations=st.integers(1, 2),
        watchdog_budget_s=st.just(1.0),  # a stall always times out; it still moves the clock
    )
    def setup(self, scheduler, slots, faults=None, **resilience):
        """A fresh engine; ``faults=None`` is bare, a tuple supervised under
        ``ResilienceConfig(**resilience)``."""
        self.clock = ManualClock()
        self.scheduler = DirectedPreemption(SCHEDULERS[scheduler]())
        self.injector = None if faults is None else FaultInjector(
            FaultPlan(faults=faults), clock_advance=self.clock.advance
        )
        self.engine = InferenceEngine(
            tiny_model(), max_batch_size=slots, scheduler=self.scheduler, clock=self.clock,
            resilience=None if faults is None else ResilienceConfig(**resilience),
            fault_injector=self.injector,
        )
        self.requests, self.deadlines, self.streamed, self.outcomes = {}, {}, {}, {}
        self.live, self.pending = set(), set()
        self.raised = {}  # request id -> tokens it had streamed when on_token raised
        self.arms, self.refused, self.callback_failures = [], [], []
        self.records, self.caches = [], []
        self.admitted = 0
        new_cache = self.engine.runner.new_cache

        def tracked_cache():
            cache = new_cache()
            self.caches.append(weakref.ref(cache))
            return cache

        self.engine.runner.new_cache = tracked_cache

    # --- rules ------------------------------------------------------------
    @precondition(lambda self: len(self.live) < 5)  # steps keep pace; the final drain stays short
    @rule(
        target=ids,
        prompt_len=st.sampled_from((1, 5, 24)),
        budget=st.integers(0, 5),
        seed=st.none() | st.integers(0, 3),
        stop=st.none() | st.integers(0, 2),
        priority=st.integers(0, 2),
        timeout=st.none() | st.sampled_from((1.0, 4.0)),
    )
    def submit(self, prompt_len, budget, seed=None, stop=None, priority=0, timeout=None):
        """Greedy (``seed=None``) or seeded sampling; ``stop=j`` stops on the
        ``j``-th token of the request's solo run, so stop tokens do fire."""
        rid = len(self.requests)
        rng = np.random.default_rng([prompt_len, rid])
        prompt = tuple(int(t) for t in rng.integers(0, tiny_model().config.vocab_size, prompt_len))
        sampling = {} if seed is None else {"temperature": 0.8, "top_k": 8, "seed": seed}
        request = Request(prompt=prompt, max_new_tokens=budget, **sampling)
        if stop is not None and stop < len(solo(request).tokens):
            request = Request(prompt, budget, stop_token=solo(request).tokens[stop], **sampling)
        assert self.engine.submit(request, priority=priority, timeout=timeout) == rid
        self.requests[rid] = request
        self.deadlines[rid] = None if timeout is None else self.clock() + timeout
        self.live.add(rid)
        self.check()
        return rid

    @rule(request_id=st.one_of(ids, st.just(99)))
    def cancel(self, request_id):
        """A live, finished or unknown id: ``True`` iff the request is live."""
        expected = request_id in self.live - self.pending
        assert self.engine.cancel(request_id) is expected, f"cancel({request_id})"
        if expected:
            self.pending.add(request_id)
        self.check()

    @precondition(lambda self: self.engine.num_prefilling + self.engine.num_active > 0)
    @rule(pick=st.integers(0, 2))
    def cancel_admitted(self, pick):
        """Cancel a prefilling or decoding request (``cancel`` mostly draws
        ids that are waiting or gone)."""
        admitted = sorted(r for r in self.live - self.pending if r not in self.engine.queue)
        self.cancel(admitted[pick % len(admitted)])

    @precondition(lambda self: self.engine.num_prefilling > 0)
    @rule()
    def cancel_prefilling(self):
        """Cancel a request between two prefill chunks (admitted, no token yet)."""
        queue, live = self.engine.queue, self.live - self.pending
        self.cancel(min(r for r in live if r not in queue and r not in self.streamed))

    @precondition(lambda self: self.live - self.pending)
    @rule(
        pick=st.integers(0, 3),
        at=st.integers(1, 5),
        action=st.sampled_from(("cancel", "raise")),
        other=st.none() | st.integers(0, 3),
    )
    def arm_live(self, pick, at, action, other):
        """:meth:`arm` for the ``pick``-th live request (``other`` picks the
        same way): arms on finished requests would never fire."""
        live = sorted(self.live - self.pending)
        other = None if other is None else live[other % len(live)]
        self.arm(live[pick % len(live)], at, action, other)

    @precondition(lambda self: self.live - self.pending)
    @rule(pick=st.integers(0, 3))
    def cancel_on_terminal(self, pick):
        """The ``pick``-th live request cancels itself from its terminal token."""
        live = sorted(self.live - self.pending)
        self.arm(live[pick % len(live)])

    def arm(self, request_id, at=None, action="cancel", other=None):
        """At ``request_id``'s ``at``-th token (its terminal one when ``None``),
        ``on_token`` cancels ``other`` (the request itself when ``None``) or raises."""
        self.arms.append((request_id, at, action, other))

    @rule()
    def step(self):
        live = self.live - self.pending
        now = self.clock()
        due = {r for r in live if r in self.engine.queue and now >= (self.deadlines[r] or inf)}
        self.take(self.engine.step(self.on_token), live)
        assert all(self.outcomes[r].reason == "expired" for r in due), "a deadline passed unseen"
        self.check()

    @rule(seconds=st.sampled_from((0.5, 1.0, 3.0)))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule(pick=st.integers(0, 2))
    def preempt(self, pick):
        """The next plan with an in-flight prefill evicts one to the queue,
        its progress parked."""
        self.scheduler.pick = pick

    def drain(self, max_idle=None, max_wall=None):
        """``run()`` to the end; a tripped guard aborts with ``"error"``."""
        live = self.live - self.pending
        self.take(
            self.engine.run(
                on_token=self.on_token, max_idle_iterations=max_idle, max_wall_seconds=max_wall
            ),
            live,
        )
        self.check()
        assert not self.live

    def teardown(self):
        if not hasattr(self, "engine") or sys.exc_info()[0] is not None:
            return  # no engine yet, or a rule failed: report that, not its aftermath
        self.drain(max_idle=50)
        engine, stats = self.engine, self.engine.stats
        reasons = Counter(outcome.reason for outcome in self.outcomes.values())
        assert stats.completed == reasons["stop"] + reasons["length"]
        assert (stats.cancelled, stats.expired) == (reasons["cancelled"], reasons["expired"])
        assert stats.quarantined + stats.aborted == reasons["error"]
        assert stats.admitted == self.admitted
        held = {
            name: value for name, value in vars(engine.runner).items()
            if isinstance(value, (dict, set, list)) and value
        }
        assert not held, f"runner bookkeeping outlived the drain: {held}"
        assert getattr(engine.runner, "retrying", []) == []

    # --- the callback and the checks ---------------------------------------
    def drops(self, rid):
        trace = self.injector.trace if self.injector is not None else ()
        return sum(t["site"] == "callback" and t["request_ids"] == [rid] for t in trace)

    def on_token(self, rid, token, logprob):
        stream = self.streamed.setdefault(rid, [])
        stream.append((token, logprob))
        request = self.requests[rid]
        position = len(stream) + self.drops(rid)
        terminal = token == request.stop_token or position == request.max_new_tokens
        for arm in [a for a in self.arms if a[0] == rid and a[1] in (position, None)]:
            if arm[1] is None and not terminal:
                continue
            self.arms.remove(arm)
            _, _, action, other = arm
            if action == "raise":
                self.raised[rid] = len(stream)
                raise RuntimeError(f"on_token raised for request {rid}")
            target = rid if other is None else other
            returned, live = self.engine.cancel(target), target in self.live - self.pending
            try:
                if target == rid:  # a terminal token wins the race
                    assert returned == (live and not terminal), f"cancel of {rid} from its token"
                assert not returned or live, f"cancel of {target} (not live) from {rid}'s token"
            except AssertionError as exc:  # the engine swallows callback errors
                self.callback_failures.append(exc)
            if returned:
                self.pending.add(target)
            else:
                self.refused.append(target)

    def take(self, completions, live_before):
        """Check each completion once, against solo decode and the stream."""
        if self.callback_failures:
            raise self.callback_failures[0]
        done = {c.request_id for c in completions}
        for target in self.refused:  # refused from a callback: gone, or retired this step
            assert target not in live_before or target in done | self.pending, target
        self.refused.clear()
        degraded = self.engine.events.request_ids("degrade")
        for c in completions:
            rid, reason, lat = c.request_id, c.finish_reason, c.latency
            tokens, logprobs = c.result.tokens, c.result.logprobs
            assert rid in self.live, f"request {rid} completed twice"
            assert reason in REASONS, reason
            assert (reason == "cancelled") == (rid in self.pending), f"request {rid}: {reason}"
            assert (reason == "error") == bool(c.error)
            self.live.discard(rid)
            self.pending.discard(rid)
            self.outcomes[rid] = Outcome(reason, tuple(tokens), c.error)
            self.admitted += lat.admitted_step is not None
            assert (lat.request_id, lat.finish_reason) == (rid, reason)
            assert lat.decode_iterations == len(tokens) == len(logprobs)
            assert (lat.first_token_step is None) == (not tokens)
            assert lat.first_token_step is None or lat.admitted_step is not None, lat
            assert lat.admitted_step is None or lat.admitted_step > lat.submitted_step, lat
            steps = [lat.admitted_step, lat.first_token_step, lat.finished_step]
            steps = [lat.submitted_step, *(s for s in steps if s is not None)]
            assert steps == sorted(steps) and steps[-1] <= self.engine.stats.engine_steps, lat
            if reason == "expired":
                assert not tokens and self.deadlines[rid] <= self.clock()
            if rid not in degraded:
                ref = solo(self.requests[rid])
                assert tokens == ref.tokens[: len(tokens)], f"request {rid} left solo decode"
                assert reason not in ("stop", "length") or len(tokens) == len(ref.tokens)
                np.testing.assert_allclose(logprobs, ref.logprobs[: len(tokens)], atol=1e-10)
            stream, dropped = self.streamed.pop(rid, []), self.drops(rid)
            expected = list(zip(tokens, logprobs))
            remaining = iter(expected)
            assert all(pair in remaining for pair in stream), f"request {rid} streamed {stream}"
            assert dropped or stream == expected[: len(stream)]
            if rid in self.raised:
                assert len(stream) == self.raised[rid], f"request {rid} streamed after raising"
            else:
                assert len(stream) + dropped == len(expected), f"request {rid} lost a token"
            assert (lat.callback_error is not None) == (rid in self.raised)
            self.records.append(weakref.ref(lat))

    def check(self):
        engine = self.engine
        in_engine = engine.num_waiting + engine.num_prefilling + engine.num_active
        assert in_engine == len(self.live - self.pending), "a request leaked or vanished"
        assert engine.num_prefilling + engine.num_active <= engine.max_batch_size
        assert engine.stats.callback_errors == len(self.raised)
        assert engine.stats.callback_drops == sum(map(self.drops, self.requests))
        assert not leaked(self.records), "a latency record outlived its completion"
        parked = engine.num_waiting + engine.num_prefilling
        assert not leaked(self.caches, parked), "a prefill cache outlived its install"
        if len(engine.events) < RING_CAPACITY:  # the ring has not wrapped
            entries = [*engine.queue.entries(), *engine._prefilling.values()]
            entries += [slot.entry for slot in engine._slots if slot is not None]
            live = {entry.request_id: entry.latency for entry in entries}
            recount = {rid: RequestLatency(rid, lat.submitted_step) for rid, lat in live.items()}
            stats = EngineStats()
            for event in engine.events:
                fold(event, stats, recount.get(event.request_id))
            assert vars(stats) == vars(engine.stats), "a counter drifted from its events"
            assert recount == live, "a latency record drifted from its events"


TestLifecycle = settings(
    max_examples=200,
    stateful_step_count=25,
    derandomize=True,
    deadline=None,
    print_blob=True,
    report_multiple_bugs=False,
    # The explain phase reruns a failing example ~1 700 times; shrinking suffices.
    phases=[phase for phase in Phase if phase is not Phase.explain],
    suppress_health_check=[HealthCheck.too_slow],
)(LifecycleMachine).TestCase


@contextmanager
def replay(scheduler="fifo", slots=1, faults=None, **resilience):
    """The machine driven by hand, as a printed falsifying example drives it.

    Yields the machine after ``setup``; every rule called on it checks the
    invariants, and leaving the block drains the engine and runs the final
    checks.  ``resilience`` holds ``ResilienceConfig`` fields.
    """
    state = LifecycleMachine()
    state.setup(scheduler, slots, faults, **resilience)
    yield state
    state.teardown()
