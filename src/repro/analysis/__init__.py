"""Repo-specific static verification.

Three rule families turn the repository's load-bearing invariants into
machine-checked properties of the source, gated in CI by
``python -m repro.analysis`` (see the package README for the annotation and
baseline workflow):

- **Guarded-by lock discipline** (:mod:`repro.analysis.locks`, ``GB1xx``):
  attributes annotated ``# guarded-by: <lock>`` must only be touched inside
  ``with self.<lock>:`` or in methods annotated ``# lock-held:``;
  ``Condition.wait``/``notify`` usage is checked too, and state or methods
  annotated ``# <name>-thread-only`` must stay on their declared thread.
- **Integer-path dtype flow** (:mod:`repro.analysis.dtypeflow`, ``DT2xx``):
  functions annotated ``# integer-resident`` may not materialize float
  tensors except at ``# quant-point:``-sanctioned sites.
- **Static overflow prover** (:mod:`repro.analysis.overflow`, ``OV3xx``):
  every registered integer contraction -- and every pre-aligned product of
  the tiled decode step's fused shift re-quantization -- is proven safe for
  its accumulator width symbolically, with a reported margin: the offline
  generalization of ``grouped_integer_matmul``'s runtime guard.
"""

from repro.analysis.core import (
    CODES,
    AnalysisReport,
    Baseline,
    Finding,
    SourceModule,
    analyze_paths,
    analyze_repo,
    repo_root,
    sanction_budget_finding,
)
from repro.analysis.dtypeflow import count_quant_points
from repro.analysis.overflow import (
    ContractionSpec,
    NarrowCodeSpec,
    ShiftAccumulatorSpec,
    default_registry,
    prove,
    prove_default_registry,
)

__all__ = [
    "CODES",
    "AnalysisReport",
    "Baseline",
    "ContractionSpec",
    "Finding",
    "ShiftAccumulatorSpec",
    "NarrowCodeSpec",
    "SourceModule",
    "analyze_paths",
    "analyze_repo",
    "count_quant_points",
    "default_registry",
    "prove",
    "prove_default_registry",
    "repo_root",
    "sanction_budget_finding",
]
