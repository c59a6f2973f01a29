"""The system under test: the only benchmark file that touches the construction API.

Everything else in ``benchmarks/e2e`` reaches the program through the objects
built here, so a PR that reshapes how a quantized model, engine or server is
constructed edits this file and nothing else in the benchmark.

Pinned import surface (listed in the README): ``Mamba2Config``, ``InitConfig``,
``Mamba2Model``, ``QuantizedLayerCache``, ``greedy_decode``, ``sample_decode``,
``quantize_model``, ``QuantConfig``, ``QuantMethod``, ``SSMQuantConfig``,
``InferenceEngine``, ``Request``, ``MambaServer``, ``ServerConfig``.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.mamba import (
    InitConfig,
    Mamba2Config,
    Mamba2Model,
    QuantizedLayerCache,
    greedy_decode,
    sample_decode,
)
from repro.quant import QuantConfig, QuantMethod, SSMQuantConfig, quantize_model
from repro.serving import InferenceEngine, MambaServer, Request, ServerConfig

from benchmarks.e2e.workloads import VOCAB_SIZE, Spec

#: The dims of the committed ``BENCH_int_decode.json`` record, so the numbers
#: of the two benchmarks line up.
CONFIG = Mamba2Config(
    name="e2e-bench", d_model=256, n_layer=2, vocab_size=VOCAB_SIZE, d_state=128, headdim=64
)


def build_fp_model() -> Mamba2Model:
    return Mamba2Model.from_config(CONFIG, InitConfig(seed=0))


def _ssm_config() -> SSMQuantConfig:
    # Integer residency is opt-in today; once it is the default (or the flag
    # is replaced) the plain config is the integer path and the assertion in
    # quantize() still holds the benchmark to it.
    if any(f.name == "persistent_state" for f in dataclasses.fields(SSMQuantConfig)):
        return SSMQuantConfig(persistent_state=True)
    return SSMQuantConfig()


def quantize(fp_model: Mamba2Model, bits: str = "w4a4") -> Mamba2Model:
    """lightmamba* at ``bits`` with the integer-resident SSM state."""
    make = {"w4a4": QuantConfig.w4a4, "w8a8": QuantConfig.w8a8}[bits]
    model = quantize_model(fp_model, make(QuantMethod.LIGHTMAMBA_STAR, ssm=_ssm_config()))
    for layer in model.new_cache().layers:
        if not isinstance(layer, QuantizedLayerCache):
            raise RuntimeError(
                "the quantized model fell back to a float state cache "
                f"({type(layer).__name__}); the benchmark measures the integer path only"
            )
    return model


def build_engine(model: Mamba2Model, slots: int) -> InferenceEngine:
    """Default engine: FIFO, whole-prompt admission, no supervisor."""
    return InferenceEngine(model, max_batch_size=slots)


def build_server(engine: InferenceEngine) -> MambaServer:
    """Default server: free-running engine loop on an ephemeral localhost port."""
    return MambaServer(engine, ServerConfig())


def make_request(spec: Spec) -> Request:
    return Request(
        prompt=tuple(spec["prompt"]),
        max_new_tokens=spec["max_new_tokens"],
        temperature=spec.get("temperature"),
        top_k=spec.get("top_k"),
        seed=spec.get("seed"),
    )


def reference_tokens(model: Mamba2Model, spec: Spec) -> List[int]:
    """The solo decode the engine output is pinned bit-identical to."""
    if spec.get("temperature") is None:
        result = greedy_decode(model, spec["prompt"], spec["max_new_tokens"])
    else:
        result = sample_decode(
            model,
            spec["prompt"],
            spec["max_new_tokens"],
            temperature=spec["temperature"],
            top_k=spec.get("top_k"),
            seed=spec["seed"],
        )
    return [int(t) for t in result.tokens]
