"""Token-selection primitives shared by the decoders and the serving engine.

Every function operates on next-token logits with an optional leading batch
axis -- ``(vocab,)`` or ``(batch, vocab)`` -- so the single-sequence decoders
in :mod:`repro.mamba.generation` and the batched serving path in
:mod:`repro.serving` select tokens with *identical* arithmetic.  Given the
same logits and RNG stream, batched and per-request decoding therefore make
the same choices.

Two decode-path fixes live here (and are inherited by both paths):

- **Exact top-k.**  The filter keeps *exactly* ``k`` candidates.  Ties at the
  k-th logit are broken stably by token id (lowest id wins), instead of
  retaining every tied candidate as a naive ``logits < kth_value`` mask does.
- **Log-softmax log-probabilities.**  Per-token log-probabilities are computed
  as ``shifted - logsumexp(shifted)`` rather than ``log(softmax(x) + eps)``,
  which biased small probabilities and needed a full-vocabulary softmax in the
  greedy path.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "log_softmax",
    "top_k_filter",
    "greedy_select",
    "sample_select",
]


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax: ``shifted - logsumexp(shifted)``.

    Entries equal to ``-inf`` (e.g. masked by :func:`top_k_filter`) stay
    ``-inf`` in the output.
    """
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    with np.errstate(invalid="ignore"):  # -inf - -inf never occurs: max is finite
        log_z = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - log_z


def top_k_filter(logits: np.ndarray, top_k: int) -> np.ndarray:
    """Mask all but exactly ``top_k`` candidates per row to ``-inf``.

    Candidates are ranked by logit; ties at the k-th value are broken by token
    id (lower id kept first), so exactly ``top_k`` entries survive regardless
    of duplicates.  Works on ``(vocab,)`` or ``(batch, vocab)`` inputs.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    if top_k >= logits.shape[-1]:
        return logits.copy()
    # Stable sort on the negated logits: equal values keep ascending token id.
    order = np.argsort(-logits, axis=-1, kind="stable")
    keep = order[..., :top_k]
    out = np.full_like(logits, -np.inf)
    np.put_along_axis(out, keep, np.take_along_axis(logits, keep, axis=-1), axis=-1)
    return out


def greedy_select(logits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Argmax token per row plus its log-probability.

    Parameters
    ----------
    logits:
        ``(vocab,)`` or ``(batch, vocab)``.

    Returns
    -------
    (tokens, logprobs)
        Integer and float arrays with the leading shape of ``logits``
        (0-d for single-sequence input).
    """
    logits = np.asarray(logits, dtype=np.float64)
    tokens = np.argmax(logits, axis=-1)
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):  # a NaN or all -inf row: its log-prob is NaN
        log_z = np.log(np.sum(np.exp(shifted), axis=-1))
    # log_softmax at the argmax, whose shifted logit is exactly 0.0: no
    # vocabulary-wide subtraction and gather for the one entry kept.
    return tokens, 0.0 - log_z


def _draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of one token id from a probability row."""
    cdf = np.cumsum(probs)
    # Guard against rounding drift at the *last nonzero-probability* bin, so
    # trailing candidates masked by top-k can never absorb the residual mass.
    positive = np.nonzero(probs > 0)[0]
    last = int(positive[-1]) if positive.size else len(probs) - 1
    cdf[last:] = 1.0
    u = rng.random()
    return int(min(np.searchsorted(cdf, u, side="right"), last))


def sample_select(
    logits: np.ndarray,
    rngs: Sequence[np.random.Generator],
    temperature: float = 1.0,
    top_k: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Temperature / top-k sampling over a batch of next-token logits.

    Parameters
    ----------
    logits:
        ``(batch, vocab)`` next-token logits.
    rngs:
        One :class:`numpy.random.Generator` per batch row.  Keeping a
        dedicated stream per request makes batched sampling reproduce
        per-request single-sequence sampling exactly, independent of how
        requests are packed into batches.
    temperature:
        Softmax temperature (> 0).
    top_k:
        Optional exact-k candidate cut (see :func:`top_k_filter`).

    Returns
    -------
    (tokens, logprobs)
        ``(batch,)`` integer token ids and their log-probabilities under the
        *sampling* distribution (after temperature and top-k).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"logits must have shape (batch, vocab), got {logits.shape}")
    if len(rngs) != logits.shape[0]:
        raise ValueError("need exactly one rng per batch row")
    if temperature <= 0:
        raise ValueError("temperature must be positive; use greedy_select for argmax")
    scaled = logits / temperature
    if top_k is not None:
        scaled = top_k_filter(scaled, top_k)
    logp = log_softmax(scaled)
    probs = np.exp(logp)
    tokens = np.empty(logits.shape[0], dtype=np.int64)
    for i, rng in enumerate(rngs):
        tokens[i] = _draw(probs[i], rng)
    logprobs = logp[np.arange(logits.shape[0]), tokens]
    return tokens, logprobs
