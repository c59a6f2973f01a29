"""Chaos soak: randomized fault schedules against the engine supervisor.

Seeded random workloads run under seeded random
:class:`~repro.serving.resilience.FaultPlan` schedules, across every shipped
scheduler policy, and every cell is checked against the supervisor's
conservation invariants:

- every submitted request terminates exactly once with a valid
  ``finish_reason`` (``stop``/``length``, or ``error`` for quarantines);
- the engine drains completely (no slot, queue, or recovery leaks);
- every non-degraded successful request's token stream is bit-identical to a
  fault-free reference run of the same workload under the same scheduler
  (recovery is rollback-exact, so requests that faulted and recovered match
  too);
- the ``on_token`` stream of every request is its completion's tokens with
  exactly the injected ``callback_drop`` deliveries missing.

Everything is deterministic: the workload and the fault schedule from their
seed, time from a :class:`~repro.serving.resilience.ManualClock`.  The full
per-run fault traces and supervisor event logs are written to the JSON
output -- CI uploads it as the ``chaos-fault-trace`` artifact, so a red run
is replayable from its ``(scheduler, seed)`` pair alone.  Exit status is
non-zero iff any invariant was violated; there is no performance number here
to regression-gate.  ``tests/test_resilience.py`` runs the same matrix, and
``tests/test_lifecycle.py`` checks the invariants over any interleaving of
submit / step / cancel / clock.

Run directly::

    PYTHONPATH=src python benchmarks/chaos_soak.py [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench import format_rows
from repro.mamba import InitConfig, Mamba2Model, get_preset
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

#: ``request id -> [(engine iteration, token), ...]`` as ``on_token`` saw them.
Streamed = Dict[int, List[Tuple[int, int]]]

#: Scheduler policies the soak cycles through.
SCHEDULER_NAMES: Tuple[str, ...] = ("fifo", "priority", "paged")

#: Fault-schedule seeds: 7 x 3 schedulers = 21 cells in full mode (the
#: acceptance floor is 20), 2 x 3 = 6 cells in CI smoke mode.
FULL_SEEDS = range(7)
SMOKE_SEEDS = range(2)

#: Requests per workload; prompts of 2..10 tokens, 2..7 new tokens each.
NUM_REQUESTS, MAX_PROMPT, MAX_NEW = 6, 10, 7

#: The supervisor every run (faulted and fault-free reference) is served by.
RESILIENCE = ResilienceConfig(
    max_attempts=3,
    backoff_base_iterations=1,
    backoff_cap_iterations=4,
    degrade_after=2,
    watchdog_budget_s=1.0,
)

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


def build_workload(seed: int, *, vocab_size: int) -> Tuple[List[Request], List[int]]:
    """A seeded mixed workload: ``(requests, priorities)``, submit in order.

    Mixes greedy and temperature/top-k sampled requests (with explicit
    per-request seeds, so token streams do not depend on engine seeding),
    ragged prompt lengths, occasional stop tokens, and varied priorities.
    """
    rng = np.random.default_rng(seed)
    requests: List[Request] = []
    priorities: List[int] = []
    for _ in range(NUM_REQUESTS):
        prompt_len = int(rng.integers(2, MAX_PROMPT + 1))
        prompt = rng.integers(0, vocab_size, size=prompt_len).tolist()
        sampled = bool(rng.random() < 0.4)
        requests.append(
            Request(
                prompt=prompt,
                max_new_tokens=int(rng.integers(2, MAX_NEW + 1)),
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
    injector: Optional[FaultInjector] = None,
    clock: Optional[ManualClock] = None,
) -> Tuple[InferenceEngine, List, Streamed]:
    engine = InferenceEngine(
        model,
        max_batch_size=3,
        scheduler=build_scheduler(scheduler_name, max_batch_size=3),
        clock=clock if clock is not None else ManualClock(),
        resilience=RESILIENCE,
        fault_injector=injector,
    )
    for request, priority in zip(requests, priorities):
        engine.submit(request, priority=priority)
    streamed: Streamed = {}

    def on_token(request_id: int, token: int, logprob: float) -> None:
        streamed.setdefault(request_id, []).append((engine.stats.engine_steps, token))

    completions = engine.run(on_token=on_token, max_idle_iterations=64)
    return engine, completions, streamed


def soak_once(model, *, seed: int, scheduler: str = "fifo") -> ChaosReport:
    """One seeded chaos run against its fault-free reference run; checks
    every conservation invariant."""
    requests, priorities = build_workload(seed, vocab_size=model.config.vocab_size)
    _, ref, _ = _run(model, requests, priorities, scheduler)
    reference_tokens = {c.request_id: list(c.result.tokens) for c in ref}

    plan = FaultPlan.random(seed, horizon=24, request_ids=tuple(range(len(requests))))
    clock = ManualClock()
    injector = FaultInjector(plan, clock_advance=clock.advance)
    engine, completions, streamed = _run(
        model, requests, priorities, scheduler, injector=injector, clock=clock
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
    model, *, seeds: Sequence[int], schedulers: Sequence[str] = SCHEDULER_NAMES
) -> List[ChaosReport]:
    """The soak matrix: one :class:`ChaosReport` per scheduler x seeded fault
    schedule; callers assert ``all(r.ok ...)``."""
    return [
        soak_once(model, seed=seed, scheduler=scheduler)
        for scheduler in schedulers
        for seed in seeds
    ]


def run_soak(*, smoke: bool) -> dict:
    model = Mamba2Model.from_config(get_preset("mamba2-tiny"), InitConfig(seed=0))
    seeds = list(SMOKE_SEEDS if smoke else FULL_SEEDS)
    start = time.perf_counter()
    reports = run_chaos_soak(model, seeds=seeds, schedulers=SCHEDULER_NAMES)
    elapsed = time.perf_counter() - start
    return {
        "benchmark": "chaos_soak",
        "mode": "smoke" if smoke else "full",
        "seeds": seeds,
        "schedulers": list(SCHEDULER_NAMES),
        "runs": len(reports),
        "failures": sum(not r.ok for r in reports),
        "elapsed_s": elapsed,
        "totals": {
            key: sum(r.stats[key] for r in reports)
            for key in (
                "faults",
                "rollbacks",
                "retries",
                "recovered",
                "requeued_faults",
                "quarantined",
                "degraded",
                "watchdog_timeouts",
                "callback_drops",
            )
        },
        "reports": [r.to_json() for r in reports],
    }


def format_summary(payload: dict) -> str:
    rows = []
    for report in payload["reports"]:
        stats = report["stats"]
        rows.append(
            {
                "scheduler": report["scheduler"],
                "seed": report["seed"],
                "ok": "yes" if report["ok"] else "NO",
                "faults": int(stats["faults"]),
                "recovered": int(stats["recovered"]),
                "requeued": int(stats["requeued_faults"]),
                "quarantined": int(stats["quarantined"]),
                "degraded": int(stats["degraded"]),
                "watchdog": int(stats["watchdog_timeouts"]),
            }
        )
    totals = payload["totals"]
    lines = [
        format_rows(rows),
        "",
        f"{payload['runs']} runs, {payload['failures']} failures; totals: "
        + ", ".join(f"{k}={v}" for k, v in totals.items()),
    ]
    for report in payload["reports"]:
        for violation in report["violations"]:
            lines.append(
                f"VIOLATION [{report['scheduler']} seed={report['seed']}]: {violation}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: fewer fault-schedule seeds per scheduler",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).parent / "output" / "chaos_soak.json",
        help="where to write the JSON report (the CI fault-trace artifact)",
    )
    args = parser.parse_args(argv)

    payload = run_soak(smoke=args.smoke)
    print(format_summary(payload))
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"[saved to {args.output}]")
    return 1 if payload["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
