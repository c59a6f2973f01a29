"""Deterministic fault injection and the engine supervisor's policy objects.

The serving layer's failure semantics are built from three pieces that live
here so they can be tested (and reasoned about) independently of the engine:

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
- **Accounting** -- :class:`ResilienceLog`: the per-event ledger the engine
  appends to (rollbacks, retries, requeues, degradations, quarantines), the
  structured counterpart of the aggregate counters in
  :class:`~repro.serving.engine.EngineStats`.

The injector is *passive*: the engine asks it at each model call site whether
a fault applies (:meth:`FaultInjector.on_model_call`,
:meth:`FaultInjector.corrupt_rows`, :meth:`FaultInjector.drop_callback`), so
fault placement is exact and deterministic -- no monkeypatching, no races.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.mamba.cache import InferenceCache, QuantizedSSMState

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "IterationTimeout",
    "ManualClock",
    "ResilienceConfig",
    "ResilienceEvent",
    "ResilienceLog",
    "StateCorruptionError",
    "cache_unhealthy",
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
      poisoned with non-finite values before the call (the engine applies
      the poison; the injector only attributes it).
    - ``"stall"`` -- the call is delayed by ``stall_seconds`` (an injected
      clock is advanced; with a real clock the spec is a no-op), tripping
      the engine's watchdog if a budget is configured.
    - ``"callback_drop"`` -- the matched request's next ``on_token``
      delivery is suppressed.
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

    The engine consults the injector at each supervised call; the injector
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
        if spec.site not in ("any", site):
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
        untargeted spec poisons row 0 of the call.  The engine applies the
        actual poison to its *working copy* of the state, so survivors are
        never touched and rollback is trivial.
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
            if self._matches(idx, spec, "any", step, [request_id]):
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
        the per-token fake-quant step, no chunked scan); an ``OverflowError``
        -- an integer kernel's static overflow guard, which retrying cannot
        fix -- degrades immediately.
    ``watchdog_budget_s``
        Wall-clock budget per supervised model call (measured on the queue's
        injected clock); a call exceeding it fails with
        :class:`IterationTimeout` and enters the same retry/quarantine path.
        ``None`` disables the watchdog.
    ``quarantine_slots``
        Also retire the *slot* (not just the request) when a corruption
        fault is attributed to it, modelling a bad memory bank; at least one
        slot always stays in service.
    """

    max_attempts: int = 3
    backoff_base_iterations: int = 1
    backoff_cap_iterations: int = 8
    degrade_after: int = 2
    watchdog_budget_s: Optional[float] = None
    quarantine_slots: bool = False

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


@dataclass(frozen=True)
class ResilienceEvent:
    """One supervisor action, stamped with the engine iteration."""

    step: int
    action: str
    request_id: Optional[int] = None
    site: Optional[str] = None
    detail: str = ""

    def to_json(self) -> Dict[str, object]:
        return {
            "step": self.step,
            "action": self.action,
            "request_id": self.request_id,
            "site": self.site,
            "detail": self.detail,
        }


@dataclass
class ResilienceLog:
    """Ordered ledger of supervisor actions (the degradation ledger's detail).

    Actions: ``fault`` (a supervised call failed), ``rollback`` (a slot's
    state was restored from its snapshot), ``backoff`` (a retry was
    scheduled), ``recovered`` (a faulted request resumed cleanly),
    ``requeue`` (a faulted prefill went back to the queue, progress kept),
    ``degrade`` (fallback to the sequential oracle), ``quarantine``
    (retired with ``finish_reason="error"``), ``slot_quarantine``,
    ``watchdog`` (budget exceeded), ``corrupt`` (a row was poisoned),
    ``callback_drop`` / ``callback_error``, and ``abort`` (a ``run()``
    guard tripped).
    """

    events: List[ResilienceEvent] = field(default_factory=list)

    def record(
        self,
        step: int,
        action: str,
        request_id: Optional[int] = None,
        site: Optional[str] = None,
        detail: str = "",
    ) -> None:
        self.events.append(
            ResilienceEvent(
                step=step, action=action, request_id=request_id, site=site, detail=detail
            )
        )

    def actions(self, action: str) -> List[ResilienceEvent]:
        return [e for e in self.events if e.action == action]

    def request_ids(self, *actions: str) -> List[int]:
        """Distinct request ids touched by any of ``actions`` (event order)."""
        seen: List[int] = []
        for event in self.events:
            if event.action in actions and event.request_id is not None:
                if event.request_id not in seen:
                    seen.append(event.request_id)
        return seen

    def to_json(self) -> List[Dict[str, object]]:
        return [e.to_json() for e in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ResilienceEvent]:
        return iter(self.events)


# ----------------------------------------------------------------------
# State health checks (corruption detection) and degradation plumbing
# ----------------------------------------------------------------------
def unhealthy_rows(cache: InferenceCache, logits: np.ndarray) -> List[int]:
    """Rows of a batched cache/logits pair carrying non-finite values.

    The supervisor's corruption detector: a poisoned row keeps non-finite
    values in its logits or in its post-call state (the conv window rolls the
    poison along for ``d_conv`` steps; quantized states surface it through
    their float scales).  Quantization grids are per-row, so poison cannot
    leak across rows -- attribution is exact.
    """
    n = logits.shape[0]
    bad = ~np.isfinite(logits.reshape(n, -1)).all(axis=1)
    for layer in cache.layers:
        bad |= ~np.isfinite(layer.conv_state.reshape(n, -1)).all(axis=1)
        state = layer.ssm_state
        if isinstance(state, QuantizedSSMState):
            # Codes are integers (always finite); poison shows in the scales.
            bad |= ~np.isfinite(state.scales.reshape(n, -1)).all(axis=1)
        else:
            bad |= ~np.isfinite(state.reshape(n, -1)).all(axis=1)
    return [int(i) for i in np.nonzero(bad)[0]]


def cache_unhealthy(cache: InferenceCache) -> bool:
    """Whether a single-sequence cache carries non-finite state values."""
    for layer in cache.layers:
        if not np.isfinite(layer.conv_state).all():
            return True
        state = layer.ssm_state
        if isinstance(state, QuantizedSSMState):
            if not np.isfinite(state.scales).all():
                return True
        elif not np.isfinite(state).all():
            return True
    return False
