"""The full Mamba2 language model.

``Mamba2Model`` stacks the embedding table, ``n_layer`` Mamba2 blocks, a final
RMSNorm and the LM head (tied to the embedding by default).  It supports:

- :meth:`forward` -- full-sequence evaluation returning per-position logits
  (used for perplexity / calibration);
- :meth:`prefill` + :meth:`step` -- prompt summarisation followed by
  autoregressive single-token decode against a fixed-size
  :class:`~repro.mamba.cache.InferenceCache`;
- activation collection hooks used by calibration and by the figures that
  visualise activation distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.mamba.block import MambaBlock
from repro.mamba.cache import InferenceCache, LayerCache
from repro.mamba.config import Mamba2Config
from repro.mamba.init import InitConfig, init_block_params, init_embedding
from repro.mamba.rmsnorm import RMSNorm

__all__ = ["Mamba2Model"]

#: Tokens per piece of a prefill (rounded up to a multiple of ``chunk_size``):
#: every block runs one piece before the next piece enters the stack, so the
#: activations are segment-sized whatever the prompt length.  Half of it, 64
#: rows, is the shortest piece of a longer prompt: OpenBLAS sums a GEMM of a
#: few rows (<= 4 at K = 512, 1 at K = 256) in another order than a taller
#: one, so a piece that short would move the last bit of the projections.
PREFILL_SEGMENT_TOKENS = 128


@dataclass
class Mamba2Model:
    """A complete Mamba2 language model over numpy parameters."""

    config: Mamba2Config
    embedding: np.ndarray                 # (vocab, d_model)
    blocks: List[MambaBlock]
    norm_f: RMSNorm
    lm_head_weight: Optional[np.ndarray] = None  # (vocab, d_model); None = tied

    def __post_init__(self) -> None:
        cfg = self.config
        self.embedding = np.asarray(self.embedding, dtype=np.float64)
        if self.embedding.shape != (cfg.vocab_size, cfg.d_model):
            raise ValueError(
                f"embedding must have shape ({cfg.vocab_size}, {cfg.d_model}), "
                f"got {self.embedding.shape}"
            )
        if len(self.blocks) != cfg.n_layer:
            raise ValueError(
                f"expected {cfg.n_layer} blocks, got {len(self.blocks)}"
            )
        if self.lm_head_weight is not None:
            self.lm_head_weight = np.asarray(self.lm_head_weight, dtype=np.float64)
            if self.lm_head_weight.shape != (cfg.vocab_size, cfg.d_model):
                raise ValueError("lm_head_weight has the wrong shape")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls, config: Mamba2Config, init: Optional[InitConfig] = None
    ) -> "Mamba2Model":
        """Build a synthetic model from a configuration.

        The initialisation injects the activation-outlier structure described
        in :mod:`repro.mamba.init` unless an explicit ``init`` disables it.
        """
        init = init or InitConfig()
        embedding = init_embedding(config, init)
        blocks = [
            MambaBlock(config=config, layer_idx=i, **init_block_params(config, init, i))
            for i in range(config.n_layer)
        ]
        rng = np.random.default_rng(init.seed + 777)
        norm_f = RMSNorm(
            init.final_norm_scale
            * (np.ones(config.d_model) + 0.05 * rng.normal(size=config.d_model)),
            eps=config.norm_eps,
        )
        lm_head = None
        if not config.tie_embeddings:
            lm_head = rng.normal(
                0.0, 1.0 / np.sqrt(config.d_model), size=(config.vocab_size, config.d_model)
            )
        return cls(
            config=config,
            embedding=embedding,
            blocks=blocks,
            norm_f=norm_f,
            lm_head_weight=lm_head,
        )

    # ------------------------------------------------------------------
    # Heads
    # ------------------------------------------------------------------
    @property
    def head_weight(self) -> np.ndarray:
        """The LM-head weight (the embedding matrix when tied)."""
        if self.lm_head_weight is not None:
            return self.lm_head_weight
        return self.embedding

    def embed(self, tokens: np.ndarray) -> np.ndarray:
        """Look up token embeddings; ``tokens`` is an integer array of any shape.

        Any other dtype (floats, bools) is a ``TypeError``, never truncated.
        """
        return self.embedding[self._token_ids(tokens)]

    def _token_ids(self, tokens) -> np.ndarray:
        """``tokens`` as an array, checked as :meth:`embed` checks them."""
        tokens = np.asarray(tokens)
        if tokens.dtype.kind not in "iu":
            raise TypeError(f"token ids must be integers, got an array of {tokens.dtype}")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab_size):
            raise ValueError("token id out of range")
        return tokens

    def logits_from_hidden(self, hidden: np.ndarray) -> np.ndarray:
        """Apply the final norm and LM head to residual-stream activations."""
        normed = self.norm_f(hidden)
        return normed @ self.head_weight.T

    # ------------------------------------------------------------------
    # Full-sequence evaluation
    # ------------------------------------------------------------------
    def forward(
        self,
        tokens: np.ndarray,
        collect: Optional[List[Dict[str, np.ndarray]]] = None,
        *,
        scan_impl: Optional[str] = None,
    ) -> np.ndarray:
        """Evaluate the model on a token sequence.

        Parameters
        ----------
        tokens:
            Integer array of shape ``(seq_len,)``.
        collect:
            Optional list; if provided it receives one dictionary of captured
            activations per block.
        scan_impl:
            ``"chunked"`` (the default, at ``config.chunk_size``) or
            ``"sequential"``, the per-token recurrence -- the decode step --
            for FP and quantized models alike (see :meth:`MambaBlock.forward
            <repro.mamba.block.MambaBlock.forward>`).

        Returns
        -------
        Logits of shape ``(seq_len, vocab_size)``.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 1:
            raise ValueError("tokens must be a 1-d integer array")
        hidden = self.embed(tokens)
        for block in self.blocks:
            block_collect: Optional[Dict[str, np.ndarray]] = None
            if collect is not None:
                block_collect = {}
                collect.append(block_collect)
            hidden = block.forward(hidden, collect=block_collect, scan_impl=scan_impl)
        return self.logits_from_hidden(hidden)

    __call__ = forward

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def new_cache(self, batch_size: Optional[int] = None) -> InferenceCache:
        """A fresh zero inference cache matching each block's state layout.

        A block with an installed ``ssm_impl`` gets the cache that
        implementation decodes on (``impl.zeros_cache``: an integer-resident
        :class:`~repro.mamba.cache.QuantizedLayerCache` for every default
        lightmamba* model, floats for the Fig. 3 ablation configurations);
        FP blocks get the float :class:`~repro.mamba.cache.LayerCache`.  This
        is the factory every decode entry point (:meth:`prefill`, the serving
        engine's slot pool) uses, so the resident representation is threaded
        through admission / eviction automatically.
        """
        return InferenceCache(
            layers=[
                LayerCache.zeros(self.config, batch_size)
                if block.ssm_impl is None
                else block.ssm_impl.zeros_cache(self.config, batch_size)
                for block in self.blocks
            ]
        )

    def prefill(
        self,
        tokens: np.ndarray,
        *,
        cache: Optional[InferenceCache] = None,
        scan_impl: Optional[str] = None,
    ) -> tuple[np.ndarray, InferenceCache]:
        """Summarise a prompt and return (last-token logits, cache).

        ``tokens`` of shape ``(seq_len,)`` returns logits ``(vocab,)`` and a
        single-sequence cache; a batch of equal-length prompts of shape
        ``(batch, seq_len)`` returns logits ``(batch, vocab)`` and a batched
        cache (leading ``(batch, ...)`` axis on every state tensor).

        The prompt goes through the whole layer stack one segment at a time
        (:meth:`_segments`: chunk-aligned pieces of about
        :data:`PREFILL_SEGMENT_TOKENS` tokens), each segment continuing the
        cache the one before it left, so the activations alive at once are a
        few segment-sized buffers whatever the prompt length.  The bytes are
        a one-shot prefill's: the chunked scan hands off at the same chunk
        boundaries, and every other stage works row by row.

        Parameters
        ----------
        cache:
            Optional warm cache to continue from (e.g. the next segment of a
            long prompt processed in chunks); a fresh zero cache is created
            when omitted.  Must match the batch shape of ``tokens``.  A
            continuation at chunk-aligned boundaries gives the bytes of a
            one-shot prefill, except where a piece is only a few tokens long:
            OpenBLAS sums a GEMM of <= 4 rows at K = 512 (and of 1 row at
            K = 256) in another order, which can move the last bit of the
            logits (about 1e-13).
        scan_impl:
            ``"chunked"`` (the default, at ``config.chunk_size``) or
            ``"sequential"``, the per-token recurrence.  Applies to quantized
            lightmamba* models too: their ``ssm_impl`` serves the chunked
            path chunk-parallel and the sequential one with its decode step,
            on the cache's state as it is (integer codes stay codes).
        """
        tokens = np.asarray(tokens)
        if tokens.ndim not in (1, 2):
            raise ValueError("tokens must have shape (seq_len,) or (batch, seq_len)")
        if tokens.ndim == 2 and tokens.shape[0] == 0:
            raise ValueError("prefill needs at least one prompt; a (0, seq_len) batch has none")
        if tokens.shape[-1] == 0:
            # Guard the zero-length prompt here so callers get a clear error
            # instead of an index error from the last-token logit extraction
            # (an empty prompt should be encoded as BOS-only upstream).
            raise ValueError(
                "prefill needs at least one token per prompt; encode an empty "
                "prompt as a single BOS token instead"
            )
        tokens = self._token_ids(tokens)  # every id checked before the cache moves
        batch_size = tokens.shape[0] if tokens.ndim == 2 else None
        if cache is None:
            cache = self.new_cache(batch_size=batch_size)
        elif cache.batch_size != batch_size:
            raise ValueError(
                f"cache batch size {cache.batch_size} does not match tokens batch "
                f"size {batch_size}"
            )
        for segment in self._segments(tokens.shape[-1]):
            hidden = self.embedding[tokens[..., segment]]
            for layer, block in zip(cache.layers, self.blocks):
                hidden = block.forward(hidden, cache=layer, scan_impl=scan_impl)
        logits = self.logits_from_hidden(hidden[..., -1, :])
        return logits, cache

    def _segments(self, length: int) -> List[slice]:
        """The pieces :meth:`prefill` runs a ``length``-token prompt in.

        Boundaries fall every :data:`PREFILL_SEGMENT_TOKENS` rounded up to a
        multiple of ``config.chunk_size``, counted from the prompt's first
        token, so the chunked scan hands off where a one-shot prefill would.
        A remainder shorter than half a segment joins the piece before it:
        no piece but a whole prompt is shorter than half a segment.
        """
        chunk = self.config.chunk_size
        size = chunk * -(-PREFILL_SEGMENT_TOKENS // chunk)
        starts = list(range(0, length, size))
        if len(starts) > 1 and 2 * (length - starts[-1]) < size:
            starts.pop()
        return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [length])]

    def step(
        self,
        token,
        cache: InferenceCache,
        collect: Optional[List[Dict[str, np.ndarray]]] = None,
    ) -> np.ndarray:
        """Decode one token per sequence given the recurrent cache.

        ``token`` is a scalar token id for a single-sequence cache, or an
        integer array of shape ``(batch,)`` advancing every request of a
        batched cache by one token in lock-step.  Returns next-token logits of
        shape ``(vocab,)`` (scalar input) or ``(batch, vocab)``.
        """
        token = np.asarray(token)
        if token.ndim == 0:
            hidden = self.embed(token[None])[0]
        elif token.ndim == 1:
            hidden = self.embed(token)
        else:
            raise ValueError("token must be a scalar or a 1-d (batch,) array")
        for i, block in enumerate(self.blocks):
            block_collect: Optional[Dict[str, np.ndarray]] = None
            if collect is not None:
                block_collect = {}
                collect.append(block_collect)
            hidden = block.step(hidden, cache.layers[i], collect=block_collect)
        return self.logits_from_hidden(hidden)

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        """Total parameter count (embedding included, head counted once if tied)."""
        total = int(self.embedding.size + self.norm_f.weight.size)
        if self.lm_head_weight is not None:
            total += int(self.lm_head_weight.size)
        total += sum(block.num_parameters() for block in self.blocks)
        return total

    def copy(self) -> "Mamba2Model":
        """Deep copy of the model (parameters duplicated; projection transforms and
        ``ssm_impl`` shared)."""
        return Mamba2Model(
            config=self.config,
            embedding=self.embedding.copy(),
            blocks=[block.copy() for block in self.blocks],
            norm_f=self.norm_f.copy(),
            lm_head_weight=None if self.lm_head_weight is None else self.lm_head_weight.copy(),
        )
