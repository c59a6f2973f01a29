"""The serving layer's one model-call site.

:class:`ModelRunner` owns the slot-pool cache and the pending-logits table and
is the only code under :mod:`repro.serving` that calls ``model.prefill`` /
``model.step`` / ``model.new_cache``.  It offers the engine loop what one
iteration needs -- a fresh single-sequence cache, *prefill one segment into a
private cache*, *install a finished prefill into a slot*, *decode these slots
with these tokens*, *read a slot's logits* -- hiding the pool layout and the
in-place-or-gathered choice.  It is the seam a wrapper takes
(:class:`~repro.serving.resilience.Supervisor`) and a test fakes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.mamba.cache import InferenceCache
from repro.mamba.model import Mamba2Model

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.engine import TokenCallback

__all__ = ["ModelRunner"]


class ModelRunner:
    """Model calls against a fixed pool of ``num_slots`` batch rows.

    ``slot`` / ``request_id(s)`` / ``prefill_pos`` arguments *label* a call
    for wrappers (fault attribution); nothing here reads them.
    """

    def __init__(self, model: Mamba2Model, num_slots: int):
        self.model = model
        self.num_slots = num_slots
        # The model's own cache factory: lightmamba* models get a
        # codes-resident pool, so installs and decodes move integer codes.
        self.pool = model.new_cache(batch_size=num_slots)
        self._logits = np.zeros((num_slots, model.config.vocab_size), dtype=np.float64)

    def new_cache(self) -> InferenceCache:
        """A fresh single-sequence cache for one request's prefill."""
        return self.model.new_cache()

    def prefill(
        self, segment: np.ndarray, cache: InferenceCache, *, scan_impl: Optional[str] = None,
        slot: Optional[int] = None, request_id: Optional[int] = None,
        prefill_pos: Optional[int] = None,
    ) -> Tuple[np.ndarray, InferenceCache]:
        """Continue ``cache`` over ``segment``: (last-token logits, advanced cache)."""
        return self.model.prefill(segment, cache=cache, scan_impl=scan_impl)

    def install(self, slot: int, cache: InferenceCache, logits: np.ndarray) -> None:
        """Move a finished prefill into pool row ``slot``, its logits pending."""
        self.pool.scatter([slot], InferenceCache.stack([cache]))
        self._logits[slot] = logits

    def decode(
        self, slots: Sequence[int], tokens: np.ndarray,
        request_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """Advance rows ``slots`` (ascending) by one token each; logits stay pending."""
        if len(slots) == self.num_slots:
            # Every row decodes: step the pool in place and skip the
            # per-token gather / scatter copies.
            logits = self.model.step(tokens, self.pool)
        else:
            batch = self.pool.gather(slots)
            logits = self.model.step(tokens, batch)
            self.pool.scatter(slots, batch)
        self._logits[slots] = logits

    def logits(self, slots) -> np.ndarray:
        """Pending next-token logits of one slot (or of a list of slots)."""
        return self._logits[slots]

    def release(self, request_id: int) -> None:
        """A request retired.  Nothing is kept per request here; a wrapper
        that does (fault attempts, held snapshots) drops it."""

    def streaming(self, on_token: Optional["TokenCallback"]) -> Optional["TokenCallback"]:
        """The callback one engine step delivers tokens through (a
        fault-injecting wrapper substitutes one that drops deliveries)."""
        return on_token
