"""Batched autoregressive generation over a fixed set of requests.

:class:`BatchedGenerator` runs one decode loop for a whole batch: every model
call advances *all* still-active requests by one token, so the projection
weights are read once per step instead of once per request -- the batching
amortization the LightMamba / FastMamba style accelerators rely on.  Requests
may have ragged prompts, per-request stop tokens and per-request length
budgets; finished requests are evicted from the running batch with
:meth:`~repro.mamba.cache.InferenceCache.gather` so the remaining requests
keep decoding in a smaller batch.

Results reproduce the single-sequence decoders request for request: greedy
requests match :func:`~repro.mamba.generation.greedy_decode` and sampled
requests match :func:`~repro.mamba.generation.sample_decode` run with the same
per-request seed.  Token selection shares the exact same code; the underlying
model math is numerically equivalent to 1e-10 (batched BLAS kernels may round
the last bits differently), so token streams agree unless a decode step lands
on an exact logit tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.mamba.generation import GenerationResult, _check_prompt
from repro.mamba.model import Mamba2Model
from repro.mamba.sampling import greedy_select, sample_select

__all__ = ["BatchedGenerator"]


def _per_request(value, n: int, name: str) -> list:
    """Broadcast a scalar-or-sequence option to one value per request."""
    if value is None or np.isscalar(value):
        return [value] * n
    value = list(value)
    if len(value) != n:
        raise ValueError(f"{name} must be a scalar or have one entry per request")
    return value


@dataclass
class BatchedGenerator:
    """Vectorized greedy / sampling decoding over a batch of requests.

    Parameters
    ----------
    model:
        The (possibly quantized) Mamba2 model.
    """

    model: Mamba2Model

    def generate(
        self,
        prompts: Sequence[Sequence[int]],
        max_new_tokens,
        *,
        temperature: Optional[float] = None,
        top_k: Optional[int] = None,
        stop_tokens=None,
        seed: int = 0,
        seeds: Optional[Sequence[int]] = None,
        on_token: Optional[Callable[[int, int, float], None]] = None,
    ) -> List[GenerationResult]:
        """Decode every prompt to completion and return per-request results.

        Parameters
        ----------
        prompts:
            One token-id sequence per request; lengths may differ -- ragged
            batches are right-padded and prefilled in one batched chunked
            model call (see :meth:`_prefill`).
        max_new_tokens:
            Per-request or shared generation budget.
        temperature:
            ``None`` selects greedy (argmax) decoding; a positive value
            enables temperature / top-k sampling.
        top_k:
            Optional exact-k candidate cut for sampling.
        stop_tokens:
            ``None``, a shared stop token id, or one optional id per request.
            As in the single-sequence decoders the stop token is appended to
            the output before the request terminates.
        seed, seeds:
            Sampling RNG seeds.  Request ``i`` draws from
            ``default_rng(seeds[i])`` (default ``seed + i``), so its tokens do
            not depend on which other requests share the batch.
        on_token:
            Optional streaming callback, mirroring the engine's:
            ``on_token(request_index, token, logprob)`` is called for every
            generated token the moment it is selected, before the batch
            finishes -- request_index is the position in ``prompts``.
        """
        n = len(prompts)
        if n == 0:
            return []
        vocab = self.model.config.vocab_size
        prompt_arrays = []
        for i, prompt in enumerate(prompts):
            try:
                prompt_arrays.append(_check_prompt(prompt, vocab))
            except ValueError as exc:
                # Name the offending request so a ragged batch with one bad
                # (e.g. zero-length) prompt is easy to debug; an empty text
                # should be encoded as a single BOS token upstream.
                raise ValueError(f"prompts[{i}]: {exc}") from None

        budgets = _per_request(max_new_tokens, n, "max_new_tokens")
        if any(b is None or b < 0 for b in budgets):
            raise ValueError("max_new_tokens must be non-negative")
        stops = _per_request(stop_tokens, n, "stop_tokens")
        if temperature is None:
            if top_k is not None or seeds is not None:
                raise ValueError(
                    "top_k / seeds only apply to sampling; pass a temperature "
                    "(greedy decoding ignores them)"
                )
        elif temperature <= 0:
            raise ValueError("temperature must be positive; omit it for greedy decoding")
        if seeds is not None and len(seeds) != n:
            raise ValueError("seeds must have one entry per request")
        rngs = None
        if temperature is not None:
            rngs = [
                np.random.default_rng(seed + i if seeds is None else seeds[i])
                for i in range(n)
            ]

        logits, cache = self._prefill(prompt_arrays)

        tokens: List[List[int]] = [[] for _ in range(n)]
        logprobs: List[List[float]] = [[] for _ in range(n)]
        active = np.array(
            [i for i in range(n) if budgets[i] > 0], dtype=np.int64
        )
        if active.size < n:
            logits = logits[active]
            cache = cache.gather(active)

        while active.size:
            if temperature is None:
                picked, logprob = greedy_select(logits)
            else:
                picked, logprob = sample_select(
                    logits, [rngs[i] for i in active], temperature=temperature, top_k=top_k
                )
            keep_rows = []
            for row, request in enumerate(active):
                token = int(picked[row])
                tokens[request].append(token)
                logprobs[request].append(float(logprob[row]))
                if on_token is not None:
                    on_token(int(request), token, float(logprob[row]))
                stop = stops[request]
                done = (stop is not None and token == int(stop)) or len(
                    tokens[request]
                ) >= budgets[request]
                if not done:
                    keep_rows.append(row)
            if not keep_rows:
                break
            if len(keep_rows) < active.size:
                # Evict finished requests: compact the batch to the survivors.
                cache = cache.gather(keep_rows)
                active = active[keep_rows]
                picked = picked[keep_rows]
            logits = self.model.step(picked, cache)

        return [
            GenerationResult(
                prompt=list(map(int, prompt_arrays[i])),
                tokens=tokens[i],
                logprobs=logprobs[i],
            )
            for i in range(n)
        ]

    # ------------------------------------------------------------------
    def _prefill(self, prompts: List[np.ndarray]):
        """Prefill all prompts with one padded batched model call.

        Ragged prompts are right-padded to the longest length and handed to
        the chunked prefill with their true ``seq_lens``: the model reads each
        row's logits at its true last token and snapshots its recurrent state
        there, so one model call covers every request regardless of length
        (pad positions are never observed -- the model is causal).  Quantized
        lightmamba* models take the same path through their own
        chunk-parallel quantized scan.
        """
        lengths = np.array([prompt.shape[0] for prompt in prompts], dtype=np.int64)
        max_len = int(lengths.max())
        if np.all(lengths == max_len):
            return self.model.prefill(np.stack(prompts))
        padded = np.zeros((len(prompts), max_len), dtype=np.int64)
        for i, prompt in enumerate(prompts):
            padded[i, : prompt.shape[0]] = prompt
        return self.model.prefill(padded, seq_lens=lengths)
