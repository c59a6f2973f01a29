"""Chaos soak: randomized fault schedules against the engine supervisor.

This module turns the deterministic fault-injection layer
(:mod:`repro.serving.resilience`) into a *soak harness*: seeded random
workloads run under seeded random :class:`~repro.serving.resilience.FaultPlan`
schedules, and every run is checked against the supervisor's conservation
invariants:

- **exactly-once completion** -- every submitted request terminates exactly
  once, with a valid ``finish_reason`` (``stop``/``length`` for successes,
  ``error`` for quarantined or aborted requests);
- **no slot leaks** -- after the drain the engine holds no active slots, no
  in-flight prefills, no retrying recoveries, and the queue is empty;
- **bit-identical survivors** -- every request that finished successfully and
  was *not* degraded to the sequential-oracle fallback produces exactly the
  token stream of a fault-free reference run (same workload, same scheduler,
  supervisor enabled, no injector).  Recovery is rollback-exact, so even
  requests that faulted and recovered must match bit for bit.
- **exact streaming** -- the ``on_token`` stream of every request is its
  completion's tokens with exactly the injected ``callback_drop`` deliveries
  missing, and ``stats.callback_drops`` counts those firings.

Everything is deterministic: the workload from its seed, the fault schedule
from its seed, time from a :class:`~repro.serving.resilience.ManualClock`.
A failing ``(scheduler, seed)`` pair therefore replays exactly in a debugger.

The pytest soak (``tests/test_resilience.py``) and the CI chaos job
(``benchmarks/chaos_soak.py``) are thin wrappers over :func:`run_chaos_soak`.
The same invariants, over any interleaving of submit / step / cancel / clock
with drawn fault plans (and cancellations and deadlines, which this workload
has none of), are checked by the lifecycle state machine in
``tests/test_lifecycle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: ``request id -> [(engine iteration, token), ...]`` as ``on_token`` saw them.
Streamed = Dict[int, List[Tuple[int, int]]]

import numpy as np

from repro.serving.engine import InferenceEngine, Request
from repro.serving.resilience import (
    FaultInjector,
    FaultPlan,
    ManualClock,
    ResilienceConfig,
)
from repro.serving.scheduler import (
    FIFOScheduler,
    PagedScheduler,
    PriorityScheduler,
    Scheduler,
)

__all__ = [
    "ChaosReport",
    "SCHEDULER_NAMES",
    "build_scheduler",
    "build_workload",
    "run_chaos_soak",
    "soak_once",
]

#: Scheduler policies the soak cycles through.
SCHEDULER_NAMES: Tuple[str, ...] = ("fifo", "priority", "paged")

#: Valid terminal states for a chaos-soak request (no deadlines or cancels in
#: the generated workload, so ``expired``/``cancelled`` never appear).
_VALID_REASONS = frozenset({"stop", "length", "error"})


def build_scheduler(name: str, *, max_batch_size: int) -> Scheduler:
    """One scheduler instance per policy name, sized for chunked prefill."""
    if name == "fifo":
        return FIFOScheduler(prefill_chunk_tokens=4)
    if name == "priority":
        return PriorityScheduler(prefill_chunk_tokens=4, preempt=True)
    if name == "paged":
        return PagedScheduler(page_tokens=max_batch_size + 4)
    raise ValueError(f"unknown scheduler {name!r}; pick one of {SCHEDULER_NAMES}")


def build_workload(
    seed: int,
    *,
    vocab_size: int,
    num_requests: int = 6,
    max_prompt: int = 10,
    max_new: int = 7,
) -> Tuple[List[Request], List[int]]:
    """A seeded mixed workload: ``(requests, priorities)``, submit in order.

    Mixes greedy and temperature/top-k sampled requests (with explicit
    per-request seeds, so token streams do not depend on engine seeding),
    ragged prompt lengths, occasional stop tokens, and varied priorities.
    """
    rng = np.random.default_rng(seed)
    requests: List[Request] = []
    priorities: List[int] = []
    for i in range(num_requests):
        prompt_len = int(rng.integers(2, max_prompt + 1))
        prompt = rng.integers(0, vocab_size, size=prompt_len).tolist()
        sampled = bool(rng.random() < 0.4)
        requests.append(
            Request(
                prompt=prompt,
                max_new_tokens=int(rng.integers(2, max_new + 1)),
                temperature=0.8 if sampled else None,
                top_k=8 if sampled else None,
                seed=int(rng.integers(0, 2**31)) if sampled else None,
                stop_token=int(rng.integers(0, vocab_size))
                if rng.random() < 0.25
                else None,
            )
        )
        priorities.append(int(rng.integers(0, 3)))
    return requests, priorities


#: The ``EngineStats`` counters a report carries.
_REPORTED_STATS = (
    "engine_steps", "faults", "rollbacks", "retries", "recovered", "requeued_faults",
    "quarantined", "degraded", "watchdog_timeouts", "aborted", "snapshot_rows",
    "snapshot_bytes", "callback_drops",
)


@dataclass
class ChaosReport:
    """Outcome of one seeded chaos run (one scheduler, one fault schedule)."""

    scheduler: str
    seed: int
    num_requests: int
    finish_reasons: Dict[int, str]
    violations: List[str]
    degraded_requests: Tuple[int, ...]
    fault_trace: List[Dict[str, object]] = field(default_factory=list)
    resilience_events: List[Dict[str, object]] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> Dict[str, object]:
        return {
            "scheduler": self.scheduler,
            "seed": self.seed,
            "num_requests": self.num_requests,
            "ok": self.ok,
            "finish_reasons": {str(k): v for k, v in self.finish_reasons.items()},
            "violations": list(self.violations),
            "degraded_requests": list(self.degraded_requests),
            "fault_trace": self.fault_trace,
            "resilience_events": self.resilience_events,
            "stats": self.stats,
        }


def _run(
    model,
    requests: Sequence[Request],
    priorities: Sequence[int],
    scheduler_name: str,
    *,
    resilience: ResilienceConfig,
    injector: Optional[FaultInjector] = None,
    clock: Optional[ManualClock] = None,
    max_idle_iterations: int = 64,
) -> Tuple[InferenceEngine, List, Streamed]:
    engine = InferenceEngine(
        model,
        max_batch_size=3,
        scheduler=build_scheduler(scheduler_name, max_batch_size=3),
        clock=clock if clock is not None else ManualClock(),
        resilience=resilience,
        fault_injector=injector,
    )
    for request, priority in zip(requests, priorities):
        engine.submit(request, priority=priority)
    streamed: Streamed = {}

    def on_token(request_id: int, token: int, logprob: float) -> None:
        streamed.setdefault(request_id, []).append((engine.stats.engine_steps, token))

    completions = engine.run(on_token=on_token, max_idle_iterations=max_idle_iterations)
    return engine, completions, streamed


def soak_once(
    model,
    *,
    seed: int,
    scheduler: str = "fifo",
    num_requests: int = 6,
    num_faults: Optional[int] = None,
    resilience: Optional[ResilienceConfig] = None,
    reference_tokens: Optional[Dict[int, List[int]]] = None,
) -> ChaosReport:
    """One seeded chaos run; checks every conservation invariant.

    ``reference_tokens`` (request id -> fault-free token stream) may be
    passed in to share one reference run across several fault schedules for
    the same ``(scheduler, workload)``; it is computed here when omitted.
    """
    if resilience is None:
        resilience = ResilienceConfig(
            max_attempts=3,
            backoff_base_iterations=1,
            backoff_cap_iterations=4,
            degrade_after=2,
            watchdog_budget_s=1.0,
        )
    requests, priorities = build_workload(
        seed, vocab_size=model.config.vocab_size, num_requests=num_requests
    )
    if reference_tokens is None:
        _, ref, _ = _run(model, requests, priorities, scheduler, resilience=resilience)
        reference_tokens = {c.request_id: list(c.result.tokens) for c in ref}

    plan = FaultPlan.random(
        seed,
        horizon=24,
        request_ids=tuple(range(len(requests))),
        num_faults=num_faults,
    )
    clock = ManualClock()
    injector = FaultInjector(plan, clock_advance=clock.advance)
    engine, completions, streamed = _run(
        model,
        requests,
        priorities,
        scheduler,
        resilience=resilience,
        injector=injector,
        clock=clock,
    )

    violations: List[str] = []
    seen: Dict[int, str] = {}
    for completion in completions:
        if completion.request_id in seen:
            violations.append(f"request {completion.request_id} completed twice")
        seen[completion.request_id] = completion.finish_reason
        if completion.finish_reason not in _VALID_REASONS:
            violations.append(
                f"request {completion.request_id} finished with invalid reason "
                f"{completion.finish_reason!r}"
            )
        if completion.finish_reason == "error" and not completion.error:
            violations.append(
                f"request {completion.request_id} errored without an error message"
            )
    for request_id in range(len(requests)):
        if request_id not in seen:
            violations.append(f"request {request_id} never completed")

    if engine.has_work:
        violations.append("engine still has work after run() drained")
    if engine.num_active or engine.num_prefilling or len(engine.queue):
        violations.append(
            f"slot leak: active={engine.num_active} "
            f"prefilling={engine.num_prefilling} queued={len(engine.queue)}"
        )
    if engine.runner.retrying:
        violations.append(f"recovery leak: slots {engine.runner.retrying}")

    degraded = engine.events.request_ids("degrade")
    for completion in completions:
        if completion.finish_reason not in ("stop", "length"):
            continue
        if completion.request_id in degraded:
            continue
        expected = reference_tokens.get(completion.request_id)
        if list(completion.result.tokens) != expected:
            violations.append(
                f"request {completion.request_id} diverged from the fault-free "
                f"run: {list(completion.result.tokens)} != {expected}"
            )

    # Every token is delivered in the iteration that selected it, unless an
    # injected callback_drop fired for that request in that iteration.
    drops = [t for t in injector.trace if t["spec"]["kind"] == "callback_drop"]
    if engine.stats.callback_drops != len(drops):
        violations.append(
            f"callback_drops={engine.stats.callback_drops} but {len(drops)} drops fired"
        )
    for completion in completions:
        rid = completion.request_id
        dropped = [(t["step"], None) for t in drops if t["request_ids"] == [rid]]
        deliveries = sorted(streamed.get(rid, []) + dropped, key=lambda d: d[0])
        tokens = list(completion.result.tokens)
        if len(deliveries) != len(tokens) or any(
            seen is not None and seen != token for (_, seen), token in zip(deliveries, tokens)
        ):
            violations.append(
                f"request {rid} streamed {streamed.get(rid, [])} with drops at "
                f"{[step for step, _ in dropped]} for tokens {tokens}"
            )

    return ChaosReport(
        scheduler=scheduler,
        seed=seed,
        num_requests=len(requests),
        finish_reasons=seen,
        violations=violations,
        degraded_requests=tuple(degraded),
        fault_trace=list(injector.trace),
        resilience_events=[event.to_json() for event in engine.events.resilience()],
        stats={key: getattr(engine.stats, key) for key in _REPORTED_STATS},
    )


def run_chaos_soak(
    model,
    *,
    seeds: Sequence[int],
    schedulers: Sequence[str] = SCHEDULER_NAMES,
    num_requests: int = 6,
) -> List[ChaosReport]:
    """The full soak matrix: every scheduler x every seeded fault schedule.

    The fault-free reference is computed once per ``(scheduler, seed)``
    workload and shared with the faulted run.  Returns one
    :class:`ChaosReport` per cell; callers assert ``all(r.ok ...)``.
    """
    reports: List[ChaosReport] = []
    for scheduler in schedulers:
        for seed in seeds:
            reports.append(
                soak_once(
                    model,
                    seed=seed,
                    scheduler=scheduler,
                    num_requests=num_requests,
                )
            )
    return reports
