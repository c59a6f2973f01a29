"""Deterministic fault injection and the supervisor that survives it.

The serving layer's failure semantics live here, apart from the engine loop
(:mod:`repro.serving.engine`, mechanics) and the model-call site
(:mod:`repro.serving.runner`):

- **Fault injection** -- :class:`FaultPlan` / :class:`FaultInjector`: a
  seeded, schedule-addressable description of *when* (engine iteration),
  *where* (``"prefill"`` / ``"decode"`` model-call site) and *to whom*
  (request id, or any) a failure happens, covering the four failure modes the
  supervisor must survive: a raising kernel (``OverflowError`` from the MMU's
  static overflow guard, or an injected ``RuntimeError``), a corrupted cache
  row (non-finite state, the software stand-in for an ECC / integrity fault),
  a stalled iteration that blows the watchdog budget, and a dropped
  ``on_token`` callback.  Every firing is recorded in the injector's trace,
  so a chaos run is fully reproducible and auditable from its seed.
- **Supervisor policy** -- :class:`ResilienceConfig`: retry attempts, capped
  exponential backoff (in deterministic engine iterations, not wall time),
  the degradation threshold after which a request falls back to the
  sequential oracle, and the iteration watchdog budget.
- **The supervisor** -- :class:`Supervisor` wraps a
  :class:`~repro.serving.runner.ModelRunner`, owns all fault state (attempt
  counts, held snapshots, degraded requests) and hands the engine
  :class:`Verdict` objects, which the engine applies mechanically, as it
  applies an :class:`~repro.serving.scheduler.AdmissionPlan`.
- **Accounting** -- every action is one event on the engine's
  :class:`~repro.serving.events.EventLog` (kinds: :class:`~repro.serving.events.Event`),
  which folds it into the counters.

The injector is *passive*: the supervisor asks it at each model call whether
a fault applies (:meth:`FaultInjector.on_model_call`,
:meth:`FaultInjector.corrupt_rows`, :meth:`FaultInjector.drop_callback`), so
fault placement is exact and deterministic -- no monkeypatching, no races.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.mamba.cache import InferenceCache, QuantizedSSMState
from repro.serving.events import EventLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.engine import TokenCallback
    from repro.serving.runner import ModelRunner

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "IterationTimeout",
    "ManualClock",
    "ResilienceConfig",
    "StateCorruptionError",
    "Supervisor",
    "Verdict",
    "unhealthy_rows",
]

#: The four injectable failure modes, in canonical order.
FAULT_KINDS: Tuple[str, ...] = (
    "kernel_raise",
    "state_corrupt",
    "stall",
    "callback_drop",
)

_SITES = ("any", "prefill", "decode")
_EXCEPTIONS: Dict[str, type] = {"runtime": RuntimeError, "overflow": OverflowError}


class IterationTimeout(RuntimeError):
    """A supervised model call exceeded the iteration watchdog budget."""


class StateCorruptionError(RuntimeError):
    """Non-finite values detected in a slot's state or logits after a call."""


class ManualClock:
    """A hand-advanced monotonic clock for deterministic stall/watchdog tests.

    Matches the queue's ``Clock`` protocol (zero-argument callable returning a
    float); :meth:`advance` is the hook a :class:`FaultInjector` stall fault
    drives to simulate a stuck iteration without sleeping.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self.now += float(seconds)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    The fault *arms* at engine iteration ``step`` (1-based, matching
    ``EngineStats.engine_steps``) and fires at the first ``repeats`` matching
    opportunities from then on -- an opportunity being a model call at a
    matching ``site`` involving a matching request (``request_id is None``
    matches any request).  ``kind`` selects the failure mode:

    - ``"kernel_raise"`` -- the model call raises (``exception`` picks
      ``"runtime"`` -> :class:`RuntimeError` or ``"overflow"`` ->
      :class:`OverflowError`, the MMU guard's exception type) before any
      state is touched.
    - ``"state_corrupt"`` -- the matched request's working cache row is
      poisoned with non-finite values before the call (the supervisor
      applies the poison; the injector only attributes it).
    - ``"stall"`` -- the call is delayed by ``stall_seconds`` (an injected
      clock is advanced; with a real clock the spec is a no-op), tripping
      the supervisor's watchdog if a budget is configured.
    - ``"callback_drop"`` -- the matched request's next ``on_token``
      delivery is suppressed (``site`` is ignored: delivery is not a
      model-call site).
    """

    kind: str
    step: int
    site: str = "any"
    request_id: Optional[int] = None
    exception: str = "runtime"
    repeats: int = 1
    stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.site not in _SITES:
            raise ValueError(f"unknown fault site {self.site!r}; expected one of {_SITES}")
        if self.step < 1:
            raise ValueError("fault step is 1-based (the first engine iteration is step 1)")
        if self.repeats < 1:
            raise ValueError("repeats must be positive")
        if self.exception not in _EXCEPTIONS:
            raise ValueError(
                f"unknown exception kind {self.exception!r}; expected one of "
                f"{tuple(_EXCEPTIONS)}"
            )
        if self.kind == "stall" and self.stall_seconds <= 0:
            raise ValueError("a stall fault needs a positive stall_seconds")

    def make_exception(self) -> BaseException:
        return _EXCEPTIONS[self.exception](
            f"injected {self.exception} fault (site={self.site}, step>={self.step})"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "step": self.step,
            "site": self.site,
            "request_id": self.request_id,
            "exception": self.exception,
            "repeats": self.repeats,
            "stall_seconds": self.stall_seconds,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "FaultSpec":
        return cls(**payload)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults, optionally derived from a seed."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: Optional[int] = None

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        horizon: int = 32,
        request_ids: Sequence[int] = (),
        num_faults: Optional[int] = None,
        kinds: Sequence[str] = FAULT_KINDS,
        stall_seconds: float = 10.0,
    ) -> "FaultPlan":
        """A reproducible random schedule: same seed, same plan, always.

        ``horizon`` bounds the arming steps, ``request_ids`` the candidate
        targets (each spec targets a specific request with probability 3/4,
        any request otherwise).  ``num_faults`` defaults to 3..6 draws.
        """
        if horizon < 1:
            raise ValueError("horizon must be positive")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        rng = np.random.default_rng(seed)
        count = int(rng.integers(3, 7)) if num_faults is None else int(num_faults)
        specs: List[FaultSpec] = []
        for _ in range(count):
            kind = str(rng.choice(list(kinds)))
            request_id: Optional[int] = None
            if request_ids and rng.random() < 0.75:
                request_id = int(rng.choice(list(request_ids)))
            specs.append(
                FaultSpec(
                    kind=kind,
                    step=int(rng.integers(1, horizon + 1)),
                    site=str(rng.choice(_SITES)),
                    request_id=request_id,
                    exception=str(rng.choice(list(_EXCEPTIONS))),
                    repeats=int(rng.integers(1, 3)),
                    stall_seconds=stall_seconds if kind == "stall" else 0.0,
                )
            )
        return cls(faults=tuple(specs), seed=seed)

    def to_json(self) -> Dict[str, object]:
        return {"seed": self.seed, "faults": [s.to_json() for s in self.faults]}

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "FaultPlan":
        faults = tuple(FaultSpec.from_json(f) for f in payload.get("faults", ()))
        seed = payload.get("seed")
        return cls(faults=faults, seed=None if seed is None else int(seed))


class FaultInjector:
    """Replays a :class:`FaultPlan` against the engine's model-call sites.

    The supervisor consults the injector at each supervised call; the injector
    decides deterministically (plan order, first-armed-first) which faults
    fire, consumes their ``repeats`` budget, and appends an entry to
    :attr:`trace` for every firing.  ``clock_advance`` (typically
    :meth:`ManualClock.advance`) is how a ``"stall"`` fault simulates lost
    wall time.
    """

    def __init__(
        self,
        plan: FaultPlan,
        clock_advance: Optional[Callable[[float], None]] = None,
    ):
        self.plan = plan
        self.clock_advance = clock_advance
        self._remaining = [spec.repeats for spec in plan.faults]
        self.trace: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    def _matches(
        self, idx: int, spec: FaultSpec, site: str, step: int, request_ids: Sequence[int]
    ) -> bool:
        if self._remaining[idx] <= 0 or step < spec.step:
            return False
        # A callback drop happens at token delivery, not at a model-call
        # site: whatever ``site`` the spec was drawn with does not apply.
        if spec.kind != "callback_drop" and spec.site not in ("any", site):
            return False
        if spec.request_id is not None and spec.request_id not in request_ids:
            return False
        return True

    def _consume(
        self, idx: int, spec: FaultSpec, site: str, step: int, request_ids: Sequence[int]
    ) -> None:
        self._remaining[idx] -= 1
        self.trace.append(
            {
                "step": step,
                "site": site,
                "request_ids": list(request_ids),
                "spec": spec.to_json(),
            }
        )

    # ------------------------------------------------------------------
    def on_model_call(self, site: str, step: int, request_ids: Sequence[int]) -> None:
        """Fire stall then kernel-raise faults scheduled for this call.

        Stalls advance the injected clock (all matching stalls accumulate);
        the first matching kernel fault then raises its exception.  State
        corruption and callback drops are queried separately
        (:meth:`corrupt_rows`, :meth:`drop_callback`).

        A *targeted* fault (``request_id`` set) spends its ``repeats`` budget
        only on single-request calls: it keeps firing on batched calls, so
        the supervisor's binary-search isolation converges on the culprit
        instead of the batch-level firing swallowing the fault.  An
        *untargeted* fault is consumed by whichever call it hits first -- it
        models a transient batch-wide failure that re-running resolves.
        """
        for idx, spec in enumerate(self.plan.faults):
            if spec.kind != "stall" or not self._matches(idx, spec, site, step, request_ids):
                continue
            if spec.request_id is None or len(request_ids) == 1:
                self._consume(idx, spec, site, step, request_ids)
            if self.clock_advance is not None:
                self.clock_advance(spec.stall_seconds)
        for idx, spec in enumerate(self.plan.faults):
            if spec.kind != "kernel_raise":
                continue
            if self._matches(idx, spec, site, step, request_ids):
                if spec.request_id is None or len(request_ids) == 1:
                    self._consume(idx, spec, site, step, request_ids)
                raise spec.make_exception()

    def corrupt_rows(self, site: str, step: int, request_ids: Sequence[int]) -> List[int]:
        """Row positions (within ``request_ids``) to poison before the call.

        A spec targeting a specific request poisons that request's row; an
        untargeted spec poisons row 0 of the call.  The supervisor applies
        the actual poison to state it has snapshotted, so survivors are never
        touched and rollback is trivial.
        """
        rows: List[int] = []
        for idx, spec in enumerate(self.plan.faults):
            if spec.kind != "state_corrupt":
                continue
            if not self._matches(idx, spec, site, step, request_ids):
                continue
            row = 0 if spec.request_id is None else list(request_ids).index(spec.request_id)
            self._consume(idx, spec, site, step, [request_ids[row]])
            if row not in rows:
                rows.append(row)
        return rows

    def drop_callback(self, step: int, request_id: int) -> bool:
        """Whether this request's ``on_token`` delivery is suppressed now."""
        for idx, spec in enumerate(self.plan.faults):
            if spec.kind != "callback_drop":
                continue
            if self._matches(idx, spec, "callback", step, [request_id]):
                self._consume(idx, spec, "callback", step, [request_id])
                return True
        return False

    @property
    def exhausted(self) -> bool:
        """Every scheduled fault has fired its full ``repeats`` budget."""
        return all(r <= 0 for r in self._remaining)


@dataclass(frozen=True)
class ResilienceConfig:
    """Supervisor policy: retries, backoff, degradation, watchdog.

    ``max_attempts``
        Failures tolerated per request before it is quarantined with
        ``finish_reason="error"`` (attempt counts persist across requeues).
    ``backoff_base_iterations`` / ``backoff_cap_iterations``
        Retry ``k`` waits ``min(cap, base * 2**(k-1))`` engine iterations --
        deterministic backoff, testable without wall time.
    ``degrade_after``
        Prefill failures after which the request falls back to the
        sequential oracle (``scan_impl="sequential"``: for a quantized model
        its decode step per token, no chunked scan); an ``OverflowError``
        -- an integer kernel's static overflow guard, which retrying cannot
        fix -- degrades immediately.
    ``watchdog_budget_s``
        Wall-clock budget per supervised model call (measured on the queue's
        injected clock); a call exceeding it fails with
        :class:`IterationTimeout` and enters the same retry/quarantine path.
        ``None`` disables the watchdog.
    """

    max_attempts: int = 3
    backoff_base_iterations: int = 1
    backoff_cap_iterations: int = 8
    degrade_after: int = 2
    watchdog_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.backoff_base_iterations < 0 or self.backoff_cap_iterations < 0:
            raise ValueError("backoff iterations must be non-negative")
        if self.degrade_after < 1:
            raise ValueError("degrade_after must be positive")
        if self.watchdog_budget_s is not None and self.watchdog_budget_s <= 0:
            raise ValueError("watchdog_budget_s must be positive (or None)")

    def backoff_iterations(self, attempts: int) -> int:
        """Iterations to wait before retry number ``attempts`` (1-based)."""
        if attempts < 1:
            raise ValueError("attempts is 1-based")
        return min(
            self.backoff_cap_iterations,
            self.backoff_base_iterations * (2 ** (attempts - 1)),
        )


# ----------------------------------------------------------------------
# The supervisor: a runner wrapper that turns faults into verdicts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Verdict:
    """What the engine must do about the faulted request at ``slot``.

    Every policy choice (attempt budget, backoff, degradation) is already
    made; the engine applies a verdict mechanically.
    ``"retry"``: the decoding request keeps its slot but sits out select /
    decode until iteration ``step``, when the engine decodes the slot again,
    alone, with its last token.  ``"requeue"``: the prefilling request goes back to
    the queue, progress parked and ``prefill_pos`` kept, invisible to the
    scheduler until iteration ``step`` (``attempts``: its failures so far).
    ``"quarantine"``: the request retires with
    ``finish_reason="error"`` and ``error``.
    """

    action: str
    slot: int
    step: int = 0
    attempts: int = 0
    error: str = ""


@dataclass
class _Recovery:
    """A decoding slot held in the retry loop.

    The slot's pool row holds the pre-fault state (every failed call is
    rolled back); ``snapshot`` is the authoritative 1-row checkpoint retries
    roll back to.  The already-selected (and already streamed / appended)
    token stays with the engine; only the state advance is retried.
    """

    request_id: int
    snapshot: InferenceCache


class Supervisor:
    """A :class:`~repro.serving.runner.ModelRunner` with failure semantics.

    Exposes the runner's calls; ``prefill`` and ``decode`` run supervised and
    answer a fault with :class:`Verdict` objects instead of raising.  The
    affected state is snapshotted first (cheap -- Mamba state is fixed-size,
    and quantized models checkpoint resident integer codes + PoT scales
    directly), so a failed call rolls back bit-exactly: survivors of a
    faulting batch and recovered requests are identical to a fault-free run.
    A faulting request is isolated, then retried with capped exponential
    backoff -- in place for decode, requeued with its progress for prefill --
    until it recovers, degrades to the sequential oracle, or is quarantined.
    Consumer-thread only, like the engine's ``step``.  ``events`` is the
    engine's event log: the iteration counter and the watchdog's clock are
    read from it, and every supervisor action is emitted to it.
    """

    def __init__(
        self, runner: "ModelRunner", config: ResilienceConfig,
        injector: Optional[FaultInjector], events: EventLog,
    ):
        self.runner = runner
        self.config = config
        self.injector = injector if injector is not None else FaultInjector(FaultPlan())
        self.events = events
        #: decoding slots held in the retry loop (slot -> _Recovery)
        self._recovering: Dict[int, _Recovery] = {}
        #: cumulative fault attempts per request (spans prefill, requeues, decode)
        self._fault_attempts: Dict[int, int] = {}
        #: requests degraded to the sequential-oracle prefill fallback
        self._degraded: Set[int] = set()

    # --- the runner's unsupervised calls, passed through ---------------
    def new_cache(self) -> InferenceCache:
        return self.runner.new_cache()

    def install(self, slot: int, cache: InferenceCache, logits: np.ndarray) -> None:
        self.runner.install(slot, cache, logits)

    def logits(self, slots) -> np.ndarray:
        return self.runner.logits(slots)

    def release(self, request_id: int) -> None:
        """Per-request fault bookkeeping dies with the request."""
        self._fault_attempts.pop(request_id, None)
        self._degraded.discard(request_id)
        for slot in [s for s, r in self._recovering.items() if r.request_id == request_id]:
            del self._recovering[slot]
        self.runner.release(request_id)

    @property
    def retrying(self) -> List[int]:
        """Slots whose request is held in the retry loop (none once drained)."""
        return sorted(self._recovering)

    # user-callback: on_token
    def streaming(self, on_token: Optional["TokenCallback"]) -> Optional["TokenCallback"]:
        """``on_token`` with the injector's ``callback_drop`` faults applied."""
        if on_token is None:
            return None

        def deliver(request_id: int, token: int, logprob: float) -> None:
            if self.injector.drop_callback(self.events.stats.engine_steps, request_id):
                self.events.emit("callback_drop", request_id)
            else:
                on_token(request_id, token, logprob)

        return deliver

    # --- the supervised calls -------------------------------------------
    def prefill(
        self, segment: np.ndarray, cache: InferenceCache, *, slot: int, request_id: int,
        prefill_pos: int = 0,
    ) -> Union[Tuple[np.ndarray, InferenceCache], Verdict]:
        """Continue ``cache`` (``prefill_pos`` prompt tokens) over ``segment``
        on a working copy.

        ``cache`` itself is the snapshot: the advanced copy is returned (with
        the logits) only when the segment commits; a failing one (kernel
        raise, detected corruption, watchdog timeout) returns a requeue or
        quarantine verdict.  A degraded request runs the per-token sequential
        oracle (the decode step, no chunked scan), still integer-resident.
        """
        self.events.emit("snapshot", n=cache.batch_size or 1, nbytes=cache.resident_state_bytes())
        work = cache.copy()
        call = partial(
            self.runner.prefill, segment, work, slot=slot, request_id=request_id,
            scan_impl="sequential" if request_id in self._degraded else None,
        )
        try:
            logits, _ = self._call("prefill", [request_id], work, None, call)
            if unhealthy_rows(work, logits):
                raise StateCorruptionError(
                    f"non-finite state or logits after prefill of request {request_id}"
                )
        except Exception as exc:
            self.events.emit("rollback", request_id, "prefill", repr(exc))
            return self._prefill_failure(slot, request_id, prefill_pos, exc)
        self._note_recovered(request_id, "prefill")
        return logits, work

    def decode(
        self, slots: Sequence[int], tokens: np.ndarray, request_ids: Sequence[int]
    ) -> List[Verdict]:
        """Advance ``slots`` by one token; one verdict per row that did not.

        Snapshots the rows, then decodes them in the pool: a raising call is
        rolled back and isolated by binary-searching the batch, detected
        corruption carries its own per-row attribution, and every faulting
        row is rolled back to its snapshot and enters the retry loop or is
        quarantined once its attempt budget is exhausted.  Survivors are
        bit-identical to a fault-free run: batch rows are independent
        (per-row quant grids), so neither a neighbour's poison nor the
        isolation's smaller batches change their numerics.  A held slot
        decoded alone is a retry: it re-derives from its held bit-exact
        snapshot with the same already-selected token, so a recovered
        request's stream is identical to a fault-free run too.
        """
        pool = self.runner.pool
        held = self._recovering.get(slots[0]) if len(slots) == 1 else None
        if held is None:
            snapshot = pool.snapshot_rows(slots)
            self.events.emit("snapshot", n=len(slots), nbytes=snapshot.resident_state_bytes())
        else:
            snapshot = held.snapshot
        failures: List[Tuple[int, BaseException]] = []  # (position, what went wrong)
        commits = 0  # calls that kept at least one row

        def solve(positions: List[int]) -> None:
            nonlocal commits
            rows = [slots[p] for p in positions]
            ids = [request_ids[p] for p in positions]
            call = partial(self.runner.decode, rows, tokens[positions], ids)
            try:
                self._call("decode", ids, pool, rows, call)
            except Exception as exc:
                pool.restore_rows(rows, snapshot.gather(positions))
                if len(positions) == 1:
                    failures.append((positions[0], exc))
                    return
                # Isolate the culprit: binary-search the batch.  Healthy
                # halves commit on their own call; a fault that does not
                # reproduce on the halves was transient and every row commits.
                self.events.emit("isolate", None, "decode", f"{len(positions)} rows, {exc!r}")
                mid = len(positions) // 2
                solve(positions[:mid])
                solve(positions[mid:])
                return
            bad = unhealthy_rows(pool, self.runner.logits(rows), rows)
            commits += len(bad) < len(rows)
            for i in bad:
                pool.restore_rows([rows[i]], snapshot.gather([positions[i]]))
                exc = StateCorruptionError(f"non-finite state or logits for request {ids[i]}")
                failures.append((positions[i], exc))

        solve(list(range(len(slots))))
        solve = None  # it calls itself through its closure: a cycle holding the snapshot
        # The engine's decode event counts the iteration's call and its rows;
        # each further committing call of an isolation is one more call.
        for _ in range(commits - 1):
            self.events.emit("decode")
        if held is not None and not failures:
            del self._recovering[slots[0]]
            self._note_recovered(held.request_id, "decode")
        try:
            return [
                self._decode_failure(slots[p], request_ids[p], snapshot.gather([p]), exc)
                for p, exc in failures
            ]
        finally:
            # A caught exception's traceback reaches this frame and the
            # engine's above it: held here, it would keep their locals (the
            # step's retired completions among them) until the next collection.
            failures.clear()

    # --- the protocol, written once --------------------------------------
    def _call(
        self, site: str, request_ids: Sequence[int], cache: InferenceCache,
        rows: Optional[Sequence[int]], call: Callable[[], object],
    ):
        """One supervised model call on state the caller has snapshotted.

        ``cache`` is what the call advances: rows ``rows`` of the pool, or a
        private single-sequence working copy (``rows=None``).  Injected
        corruption is applied to it first (non-finite conv-window taps, which
        the caller's :func:`unhealthy_rows` check attributes exactly; numpy's
        floating-point warnings are silenced for a poisoned call); the
        injector may then stall (advancing an injected clock) or raise; and
        the watchdog turns a call whose wall time on ``clock`` exceeded the
        budget into an :class:`IterationTimeout`, which takes the same retry
        / quarantine path as any failure -- a stuck step becomes a timed-out
        retirement instead of a hung run.  The caller rolls back.
        """
        step, clock = self.events.stats.engine_steps, self.events.clock
        poisoned = self.injector.corrupt_rows(site, step, request_ids)
        for position in poisoned:
            for layer in cache.layers:
                layer.conv_state[... if rows is None else rows[position]] = np.nan
            self.events.emit("corrupt", request_ids[position], site)
        guard = np.errstate(invalid="ignore", over="ignore") if poisoned else nullcontext()
        start = clock()
        with guard:
            self.injector.on_model_call(site, step, request_ids)
            result = call()
        budget = self.config.watchdog_budget_s
        if budget is not None and (elapsed := clock() - start) > budget:
            self.events.emit(
                "watchdog", request_ids[0] if len(request_ids) == 1 else None, site,
                f"elapsed {elapsed:.3f}s > budget {budget:.3f}s",
            )
            raise IterationTimeout(
                f"supervised {site} call took {elapsed:.3f}s (watchdog budget {budget:.3f}s)"
            )
        return result

    # --- policy: what a failure costs the request -------------------------
    def _decode_failure(
        self, slot: int, request_id: int, row_snapshot: InferenceCache, exc: BaseException
    ) -> Verdict:
        """Schedule a rolled-back decode row's retry, or quarantine it."""
        attempts = self._count_fault(request_id, "decode", exc)
        self.events.emit("rollback", request_id, "decode")
        self._recovering.setdefault(slot, _Recovery(request_id, row_snapshot))
        if attempts >= self.config.max_attempts:
            return self._quarantine(slot, request_id, "decode", exc)
        retry_step = self.events.stats.engine_steps + self.config.backoff_iterations(attempts)
        detail = f"attempt {attempts}, retry at step {retry_step}"
        self.events.emit("backoff", request_id, "decode", detail)
        return Verdict("retry", slot, step=retry_step)

    def _prefill_failure(
        self, slot: int, request_id: int, prefill_pos: int, exc: BaseException
    ) -> Verdict:
        """Requeue (with backoff), degrade, or quarantine a faulted prefill.

        An ``OverflowError`` (an integer kernel's static overflow guard --
        retrying cannot fix it) or ``degrade_after`` cumulative failures
        switch the request to the sequential-oracle fallback for all its
        remaining prefill work.
        """
        attempts = self._count_fault(request_id, "prefill", exc)
        if request_id not in self._degraded and (
            isinstance(exc, OverflowError) or attempts >= self.config.degrade_after
        ):
            self._degraded.add(request_id)
            self.events.emit("degrade", request_id, "prefill", "sequential-oracle fallback")
        if attempts >= self.config.max_attempts:
            return self._quarantine(slot, request_id, "prefill", exc)
        hold = self.events.stats.engine_steps + self.config.backoff_iterations(attempts)
        detail = f"attempt {attempts}, prefill_pos {prefill_pos}, hold until step {hold}"
        self.events.emit("requeue", request_id, "prefill", detail)
        return Verdict("requeue", slot, step=hold, attempts=attempts)

    def _count_fault(self, request_id: int, site: str, exc: BaseException) -> int:
        """Emit a fault and charge it to the request's whole-life attempt budget."""
        self.events.emit("fault", request_id, site, repr(exc))
        attempts = self._fault_attempts.get(request_id, 0) + 1
        self._fault_attempts[request_id] = attempts
        return attempts

    def _note_recovered(self, request_id: int, site: str) -> None:
        if self._fault_attempts.pop(request_id, 0):
            self.events.emit("recovered", request_id, site)

    def _quarantine(self, slot: int, request_id: int, site: str, exc: BaseException) -> Verdict:
        """Give up on a request: it retires with ``finish_reason="error"``."""
        self.events.emit("quarantine", request_id, site, repr(exc))
        return Verdict("quarantine", slot, error=repr(exc))


# ----------------------------------------------------------------------
# State health check (corruption detection)
# ----------------------------------------------------------------------
def unhealthy_rows(
    cache: InferenceCache, logits: np.ndarray, rows: Optional[Sequence[int]] = None
) -> List[int]:
    """Positions of a cache/logits pair carrying non-finite values.

    The supervisor's corruption detector: a poisoned row keeps non-finite
    values in its logits or in its post-call state (the conv window rolls the
    poison along for ``d_conv`` steps; quantized states surface it through
    their float scales).  Quantization grids are per-row, so poison cannot
    leak across rows -- attribution is exact.  ``logits`` has one row per
    checked state row: ``rows`` of a batched ``cache`` (every row when
    ``None``); a single-sequence cache with its ``(vocab,)`` logits is one row.
    """
    logits = np.atleast_2d(logits)
    n = logits.shape[0]
    good = np.isfinite(logits).all(axis=1)
    for layer in cache.layers:
        state = layer.ssm_state
        # Codes are integers (always finite); poison shows in the scales.
        floats = state.scales if isinstance(state, QuantizedSSMState) else state
        for values in (layer.conv_state, floats):
            picked = values if rows is None else values[rows]
            good &= np.isfinite(picked.reshape(n, -1)).all(axis=1)
    return [int(i) for i in np.nonzero(~good)[0]]
