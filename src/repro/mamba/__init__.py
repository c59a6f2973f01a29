"""Mamba2 model substrate.

A numpy implementation of the Mamba2 architecture (Dao & Gu, 2024) as described
in Fig. 1 of the LightMamba paper: each block consists of an input projection,
a short causal 1-d convolution over ``(x, B, C)``, the SSM (state space model)
recurrence, a gated RMSNorm and an output projection.  The model supports both
prefill (summarising a prompt) and autoregressive decode with a fixed-size
recurrent cache.

The implementation favours clarity and testability over raw speed: every layer
is a plain dataclass over numpy arrays with an explicit ``forward``/``step``
method, so quantization passes and the hardware simulator can introspect and
rewrite parameters directly.

Batch convention: every decode-path entry point accepts either the classic
single-sequence shapes or the same shapes with one leading ``(batch, ...)``
axis shared by all arguments (tokens, activations, and cache state alike).
The batched forms advance all requests in lock-step and are numerically
equivalent to running each request alone; :mod:`repro.serving` builds the
batch generator and continuous-batching engine on top of them.
"""

from repro.mamba.config import Mamba2Config, MODEL_PRESETS, get_preset
from repro.mamba.ops import silu, softplus, rms_normalize
from repro.mamba.rmsnorm import RMSNorm, GatedRMSNorm
from repro.mamba.conv1d import CausalConv1d
from repro.mamba.ssm import SSMParams, ssm_step, ssm_scan, ssd_chunked_scan
from repro.mamba.cache import LayerCache, InferenceCache, QuantizedLayerCache, QuantizedSSMState
from repro.mamba.block import Linear, MambaBlock, SSMImpl
from repro.mamba.model import Mamba2Model
from repro.mamba.generation import greedy_decode, sample_decode, GenerationResult
from repro.mamba.sampling import log_softmax, top_k_filter, greedy_select, sample_select
from repro.mamba.init import InitConfig, OutlierProfile

__all__ = [
    "Mamba2Config",
    "MODEL_PRESETS",
    "get_preset",
    "silu",
    "softplus",
    "rms_normalize",
    "RMSNorm",
    "GatedRMSNorm",
    "CausalConv1d",
    "SSMParams",
    "ssm_step",
    "ssm_scan",
    "ssd_chunked_scan",
    "LayerCache",
    "InferenceCache",
    "QuantizedLayerCache",
    "QuantizedSSMState",
    "Linear",
    "MambaBlock",
    "SSMImpl",
    "Mamba2Model",
    "greedy_decode",
    "sample_decode",
    "GenerationResult",
    "log_softmax",
    "top_k_filter",
    "greedy_select",
    "sample_select",
    "InitConfig",
    "OutlierProfile",
]
