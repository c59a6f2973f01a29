"""Mamba2 architecture configuration and the published model-family presets.

The LightMamba paper evaluates the Mamba2 family (130M ... 2.7B).  The presets
here record the published architecture hyper-parameters; the ``tiny`` /
``small`` / ``medium`` presets are scaled-down configurations with identical
structure that run quickly on a CPU and are used throughout the tests,
examples and algorithm-level benchmarks.  Each setting has one home: the
prefill chunk length is a field here, the per-token scan a per-call argument.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

__all__ = ["Mamba2Config", "MODEL_PRESETS", "get_preset"]


@dataclass(frozen=True)
class Mamba2Config:
    """Hyper-parameters of a Mamba2 model.

    Attributes
    ----------
    name:
        Human-readable preset name.
    d_model:
        Residual-stream width (``D`` in the paper).
    n_layer:
        Number of Mamba2 blocks.
    vocab_size:
        Vocabulary size of the embedding table and LM head.
    d_state:
        SSM state dimension per head (``n`` in Fig. 1).
    d_conv:
        Kernel width of the short causal convolution.
    expand:
        Expansion factor of the inner dimension (``d_inner = expand * d_model``).
    headdim:
        Per-head channel dimension (``p`` in Fig. 1).
    ngroups:
        Number of ``B`` / ``C`` groups shared across heads (Mamba2 uses 1).
    norm_eps:
        Epsilon of the RMSNorm layers.
    tie_embeddings:
        Whether the LM head shares the embedding matrix.
    chunk_size:
        Tokens per chunk of the chunked prefill scan (clamped to the sequence
        length at run time) -- the one place the chunk length is set.  The
        per-token recurrence is the per-call ``scan_impl="sequential"`` of
        :meth:`~repro.mamba.model.Mamba2Model.prefill` / ``forward``.
    """

    name: str = "custom"
    d_model: int = 768
    n_layer: int = 24
    vocab_size: int = 50288
    d_state: int = 128
    d_conv: int = 4
    expand: int = 2
    headdim: int = 64
    ngroups: int = 1
    norm_eps: float = 1e-5
    tie_embeddings: bool = True
    chunk_size: int = 64

    def __post_init__(self) -> None:
        if self.d_model <= 0 or self.n_layer <= 0 or self.vocab_size <= 0:
            raise ValueError("d_model, n_layer and vocab_size must be positive")
        if self.expand <= 0 or self.headdim <= 0 or self.d_state <= 0:
            raise ValueError("expand, headdim and d_state must be positive")
        if self.d_conv < 1:
            raise ValueError("d_conv must be at least 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if (self.expand * self.d_model) % self.headdim != 0:
            raise ValueError(
                f"d_inner ({self.expand * self.d_model}) must be divisible by "
                f"headdim ({self.headdim})"
            )

    # ------------------------------------------------------------------
    # Derived dimensions
    # ------------------------------------------------------------------
    @property
    def d_inner(self) -> int:
        """Inner (expanded) channel dimension."""
        return self.expand * self.d_model

    @property
    def nheads(self) -> int:
        """Number of SSM heads (``h`` in Fig. 1)."""
        return self.d_inner // self.headdim

    @property
    def d_in_proj(self) -> int:
        """Output width of the input projection: ``[z, x, B, C, dt]``."""
        return 2 * self.d_inner + 2 * self.ngroups * self.d_state + self.nheads

    @property
    def conv_dim(self) -> int:
        """Channel count fed through the causal convolution: ``[x, B, C]``."""
        return self.d_inner + 2 * self.ngroups * self.d_state

    @property
    def d_bc(self) -> int:
        """Width of one ``B`` (or ``C``) group block."""
        return self.ngroups * self.d_state

    # ------------------------------------------------------------------
    # Model statistics used by the hardware model
    # ------------------------------------------------------------------
    def block_linear_params(self) -> int:
        """Weight-parameter count of the two linear projections of one block."""
        return self.d_in_proj * self.d_model + self.d_model * self.d_inner

    def block_other_params(self) -> int:
        """Non-linear-layer parameters of one block (conv, A, D, dt_bias, norms)."""
        conv = self.conv_dim * self.d_conv + self.conv_dim
        small = 3 * self.nheads  # A_log, D, dt_bias
        norms = self.d_model + self.d_inner  # pre-norm + gated norm scales
        return conv + small + norms

    def num_parameters(self, include_embedding: bool = True) -> int:
        """Total parameter count of the model."""
        per_block = self.block_linear_params() + self.block_other_params()
        total = self.n_layer * per_block + self.d_model  # final norm
        if include_embedding:
            total += self.vocab_size * self.d_model
            if not self.tie_embeddings:
                total += self.vocab_size * self.d_model
        return total

    def ssm_state_elements(self) -> int:
        """Number of scalars in the per-layer SSM hidden state ``h`` (h, p, n)."""
        return self.nheads * self.headdim * self.d_state

    def conv_state_elements(self) -> int:
        """Number of scalars in the per-layer convolution state."""
        return self.conv_dim * self.d_conv

    def with_overrides(self, **kwargs) -> "Mamba2Config":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Published Mamba2 model-family presets (as evaluated in Fig. 9b of the paper)
#: plus scaled-down presets for CPU-speed experiments.
MODEL_PRESETS: Dict[str, Mamba2Config] = {
    # Scaled-down presets (structurally identical, CPU-friendly).
    "mamba2-tiny": Mamba2Config(
        name="mamba2-tiny",
        d_model=64,
        n_layer=2,
        vocab_size=512,
        d_state=16,
        headdim=16,
        d_conv=4,
    ),
    "mamba2-small": Mamba2Config(
        name="mamba2-small",
        d_model=128,
        n_layer=4,
        vocab_size=1024,
        d_state=32,
        headdim=32,
        d_conv=4,
    ),
    "mamba2-medium": Mamba2Config(
        name="mamba2-medium",
        d_model=256,
        n_layer=6,
        vocab_size=2048,
        d_state=64,
        headdim=64,
        d_conv=4,
    ),
    # Published family (architecture hyper-parameters of Mamba2).
    "mamba2-130m": Mamba2Config(
        name="mamba2-130m", d_model=768, n_layer=24, vocab_size=50288
    ),
    "mamba2-370m": Mamba2Config(
        name="mamba2-370m", d_model=1024, n_layer=48, vocab_size=50288
    ),
    "mamba2-780m": Mamba2Config(
        name="mamba2-780m", d_model=1536, n_layer=48, vocab_size=50288
    ),
    "mamba2-1.3b": Mamba2Config(
        name="mamba2-1.3b", d_model=2048, n_layer=48, vocab_size=50288
    ),
    "mamba2-2.7b": Mamba2Config(
        name="mamba2-2.7b", d_model=2560, n_layer=64, vocab_size=50288
    ),
}


def get_preset(name: str) -> Mamba2Config:
    """Return a published or scaled-down preset by name.

    Raises
    ------
    KeyError
        If ``name`` is not a known preset.  The error message lists the
        available preset names.
    """
    try:
        return MODEL_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_PRESETS))
        raise KeyError(f"unknown model preset '{name}'; known presets: {known}") from None
