"""The reference evaluation setup used by the algorithm benchmarks.

Table II, Table III, Fig. 2 and Fig. 4b all evaluate quantization quality on
a Mamba2 checkpoint.  In this offline reproduction the checkpoint is replaced
by a synthetic *evaluation model* whose statistics are tuned
(:data:`EVAL_OUTLIER_PROFILE`, :data:`EVAL_INIT` below) so that the phenomena
the paper relies on are present:

- scattered activation outliers at the output-projection input,
- token-stable outliers in the residual stream,
- strong per-block contributions (``residual_scale = 1``) so quantization
  error compounds through depth, as it does in trained checkpoints,
- a next-token distribution with natural-language-like entropy.

:func:`build_reference_setup` bundles the model together with calibration
sequences (the stand-in for the 128 WikiText2 calibration samples), held-out
evaluation sequences and the synthetic task suite, so every benchmark and
example evaluates against the same deterministic setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.eval.data import ZipfCorpusGenerator
from repro.eval.tasks import SyntheticTask, build_task_suite
from repro.mamba.config import Mamba2Config, get_preset
from repro.mamba.init import InitConfig, OutlierProfile
from repro.mamba.model import Mamba2Model
from repro.quant.calibration import CalibrationResult, collect_activation_stats

__all__ = [
    "EVAL_OUTLIER_PROFILE",
    "EVAL_INIT",
    "ReferenceSetup",
    "build_reference_model",
    "build_reference_setup",
]


#: Outlier structure of the evaluation model: every gate channel can spike
#: (heavy-tailed, token-dependent), which is what makes the output-projection
#: outliers *scattered* (the Mamba phenomenon of Fig. 2) rather than confined
#: to a fixed channel subset that channel-wise scaling could handle; a few
#: token-stable outlier channels are also injected into the residual stream.
EVAL_OUTLIER_PROFILE = OutlierProfile(
    scattered_fraction=1.0,
    scattered_gain=4.0,
    heavy_tail_sigma=1.5,
    fixed_channel_fraction=0.03,
    fixed_channel_gain=10.0,
)

#: Initialisation of the evaluation model (see the module docstring).
EVAL_INIT = InitConfig(
    seed=7,
    final_norm_scale=0.08,
    residual_scale=1.0,
    outliers=EVAL_OUTLIER_PROFILE,
)


def build_reference_model(
    preset: str = "mamba2-small",
    n_layer: int = 16,
    init: Optional[InitConfig] = None,
) -> Mamba2Model:
    """Build the deterministic synthetic evaluation model."""
    config = get_preset(preset).with_overrides(n_layer=n_layer)
    return Mamba2Model.from_config(config, init or EVAL_INIT)


@dataclass
class ReferenceSetup:
    """Model + data bundle shared by the algorithm benchmarks."""

    model: Mamba2Model
    calibration_sequences: List[np.ndarray]
    evaluation_sequences: List[np.ndarray]
    tasks: List[SyntheticTask]
    calibration: CalibrationResult = field(repr=False, default=None)

    @property
    def config(self) -> Mamba2Config:
        return self.model.config


def build_reference_setup(
    preset: str = "mamba2-small",
    n_layer: int = 16,
    num_calibration_sequences: int = 8,
    calibration_seq_len: int = 32,
    num_eval_sequences: int = 4,
    eval_seq_len: int = 32,
    num_task_examples: int = 16,
    seed: int = 0,
    store_calibration_samples: bool = True,
) -> ReferenceSetup:
    """Construct the full reference setup (model, data, calibration, tasks).

    The defaults keep the whole Table II / Table III pipeline runnable on a
    laptop CPU in minutes; the paper-scale equivalents (128 calibration
    sequences, thousands of task examples) are a matter of raising the
    counts.
    """
    model = build_reference_model(preset=preset, n_layer=n_layer)
    vocab = model.config.vocab_size
    calib_gen = ZipfCorpusGenerator(vocab, seed=seed + 1)
    eval_gen = ZipfCorpusGenerator(vocab, seed=seed + 2)
    calibration_sequences = calib_gen.sequences(num_calibration_sequences, calibration_seq_len)
    evaluation_sequences = eval_gen.sequences(num_eval_sequences, eval_seq_len)
    calibration = collect_activation_stats(
        model, calibration_sequences, store_samples=store_calibration_samples
    )
    tasks = build_task_suite(model, num_examples=num_task_examples, seed=seed + 3)
    return ReferenceSetup(
        model=model,
        calibration_sequences=calibration_sequences,
        evaluation_sequences=evaluation_sequences,
        tasks=tasks,
        calibration=calibration,
    )
