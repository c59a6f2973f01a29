"""The segmented prefill: a prompt runs through the layer stack a piece at a time.

``Mamba2Model.prefill`` runs every block over one chunk-aligned segment
(about :data:`~repro.mamba.model.PREFILL_SEGMENT_TOKENS` tokens) before the
next segment enters, carrying the cache along the ``cache=`` continuation
path.  Two properties pin it:

- **Bytes.**  ``prefill(p)`` equals, byte for byte (logits and every cache
  array), a one-shot pass of the whole prompt through each block and an
  explicit continuation -- ``prefill`` called piece by piece on one cache --
  at any chunk-aligned boundaries whose pieces are at least 64 tokens long:
  FP and lightmamba* W4A4, solo and batched, from a fresh or a warm cache, at
  chunk sizes 1 and 64, on whichever executors this run has (tier-1 runs it
  compiled and ``--no-kernel``).
- **Memory.**  The traced peak of a prefill does not grow with the prompt.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mamba import InitConfig, Mamba2Config, Mamba2Model
from repro.mamba.model import PREFILL_SEGMENT_TOKENS
from repro.quant import QuantConfig, QuantMethod, quantize_model

#: The shortest piece of an explicit continuation: OpenBLAS sums a GEMM of a
#: few rows in another order than a taller one, so shorter pieces may move
#: the last bit (see ``Mamba2Model.prefill``).
MIN_PIECE = PREFILL_SEGMENT_TOKENS // 2


@pytest.fixture(scope="module")
def models(tiny_model, with_chunk_size):
    """``(kind, chunk_size) -> model`` for FP and lightmamba* W4A4 at chunk sizes 1 and 64."""
    w4a4 = quantize_model(tiny_model, QuantConfig.w4a4(QuantMethod.LIGHTMAMBA_STAR))
    return {
        (kind, chunk): with_chunk_size(model, chunk)
        for kind, model in (("fp", tiny_model), ("w4a4", w4a4))
        for chunk in (1, 64)
    }


def _one_shot(model, tokens, cache):
    """The whole prompt through each block at once: the unsegmented prefill."""
    hidden = model.embed(tokens)
    for layer, block in zip(cache.layers, model.blocks):
        hidden = block.forward(hidden, cache=layer)
    return model.logits_from_hidden(hidden[..., -1, :]), cache


def _continued(model, tokens, cache, bounds):
    """``prefill`` called on each piece ``tokens[bounds[i]:bounds[i + 1]]`` in turn."""
    for start, stop in zip(bounds, bounds[1:]):
        logits, cache = model.prefill(tokens[..., start:stop], cache=cache)
    return logits, cache


def _bytes(result, cache_arrays):
    logits, cache = result
    return [np.ascontiguousarray(a).tobytes() for a in (logits, *cache_arrays(cache))]


EDGES = sorted({1, 63, 64, 65, 700} | {
    edge + delta
    for edge in range(PREFILL_SEGMENT_TOKENS // 2, 700, PREFILL_SEGMENT_TOKENS // 2)
    for delta in (-1, 0, 1)
})


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(1, 700) | st.sampled_from(EDGES),
    rows=st.sampled_from([1, 3]),
    warm=st.booleans(),
    kind=st.sampled_from(["fp", "w4a4"]),
    chunk=st.sampled_from([1, 64]),
    data=st.data(),
)
@example(length=192, rows=1, warm=False, kind="w4a4", chunk=64, data=None)
@example(length=191, rows=3, warm=True, kind="w4a4", chunk=64, data=None)
@example(length=577, rows=1, warm=True, kind="fp", chunk=1, data=None)
def test_prefill_equals_chunk_aligned_continuation(models, cache_arrays, length, rows, warm,
                                                   kind, chunk, data):
    model = models[kind, chunk]
    rng = np.random.default_rng(length)
    shape = (length,) if rows == 1 else (rows, length)
    tokens = rng.integers(0, model.config.vocab_size, size=shape)
    # Chunk-aligned cuts, every piece at least MIN_PIECE tokens long.
    bounds = [0]
    while data is not None and length - bounds[-1] >= 2 * MIN_PIECE and data.draw(st.booleans()):
        cut = data.draw(st.integers(bounds[-1] + MIN_PIECE, length - MIN_PIECE))
        bounds.append(cut - cut % chunk)
    bounds.append(length)

    def start():
        cache = model.new_cache(None if rows == 1 else rows)
        if warm:
            model.prefill(rng.integers(0, model.config.vocab_size, size=shape[:-1] + (37,)),
                          cache=cache)
        return cache

    first = start()
    got = _bytes(model.prefill(tokens, cache=first.copy()), cache_arrays)
    assert got == _bytes(_one_shot(model, tokens, first.copy()), cache_arrays)
    assert got == _bytes(_continued(model, tokens, first.copy(), bounds), cache_arrays)


@pytest.mark.parametrize("length,pieces", [
    (1, [1]), (127, [127]), (128, [128]), (191, [191]), (192, [128, 64]),
    (511, [128, 128, 128, 127]), (520, [128, 128, 128, 136]), (577, [128] * 4 + [65]),
])
def test_segments_are_chunk_aligned_and_never_short(models, length, pieces):
    """The pieces of the default chunk size: 128-token segments, a remainder
    under 64 joined to the segment before it."""
    segments = models["w4a4", 64]._segments(length)
    assert [s.stop - s.start for s in segments] == pieces
    assert segments[0].start == 0 and all(a.stop == b.start for a, b in zip(segments, segments[1:]))


#: The ``benchmarks/e2e`` model dims, as in ``tests/test_fingerprint.py``.
E2E_CONFIG = Mamba2Config(
    name="e2e-dims", d_model=256, n_layer=2, vocab_size=512, d_state=128, headdim=64
)


def test_traced_prefill_peak_does_not_grow_with_the_prompt():
    """W4A4 lightmamba* at the e2e dims: the ``tracemalloc`` peak of a
    2 560-token prefill is within 10 % of a 256-token one's (a whole-prompt
    pass holds about eight times as much at 2 560 tokens)."""
    model = quantize_model(Mamba2Model.from_config(E2E_CONFIG, InitConfig(seed=0)),
                           QuantConfig.w4a4(QuantMethod.LIGHTMAMBA_STAR))
    rng = np.random.default_rng(0)
    model.prefill(rng.integers(0, E2E_CONFIG.vocab_size, size=200))  # lazy set-up, untraced
    peaks = {}
    for length in (256, 2560):
        tokens = rng.integers(0, E2E_CONFIG.vocab_size, size=length)
        tracemalloc.start()
        try:
            model.prefill(tokens)
            peaks[length] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2560] <= 1.1 * peaks[256], peaks
