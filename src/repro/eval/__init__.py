"""Evaluation substrate: synthetic data, perplexity, zero-shot task harness.

The paper evaluates quantization quality with WikiText2 perplexity and six
zero-shot tasks through lm-eval-harness (Table III).  Neither pretrained
checkpoints nor the datasets are available in this offline environment, so
this package provides faithful *synthetic* substitutes, each documented in
its own module:

- :mod:`repro.eval.data` -- seeded Zipf / Markov token-corpus generators used
  for calibration, plus sequences sampled from the floating-point reference
  model used for evaluation;
- :mod:`repro.eval.perplexity` -- next-token perplexity of a model on a set
  of sequences;
- :mod:`repro.eval.tasks` -- a suite of synthetic cloze-style ranking tasks
  (stand-ins for LAMBADA, HellaSwag, PIQA, ARC-E/C, Winogrande, OpenbookQA)
  whose gold continuations are sampled from the FP reference model, so task
  accuracy measures exactly what Table III's accuracy deltas measure: how
  much a quantization scheme perturbs the model's predictive distribution;
- :mod:`repro.eval.harness` -- the evaluation loop producing per-task
  accuracy and the aggregate report;
- :mod:`repro.eval.metrics` -- agreement / divergence metrics between a
  quantized model and its FP reference.
"""

from repro.eval.data import (
    ZipfCorpusGenerator,
    MarkovCorpusGenerator,
    ModelSampledCorpus,
    split_into_sequences,
)
from repro.eval.perplexity import perplexity, sequence_cross_entropy
from repro.eval.tasks import (
    TaskExample,
    SyntheticTask,
    TaskSpec,
    DEFAULT_TASK_SPECS,
    build_task_suite,
)
from repro.eval.harness import (
    TaskResult,
    EvaluationReport,
    evaluate_task,
    evaluate_model,
    score_candidates,
    last_token_perplexity,
)
from repro.eval.metrics import top1_agreement, mean_kl_divergence, logit_mse
from repro.eval.reference import (
    EVAL_INIT,
    EVAL_OUTLIER_PROFILE,
    ReferenceSetup,
    build_reference_model,
    build_reference_setup,
)

__all__ = [
    "EVAL_INIT",
    "EVAL_OUTLIER_PROFILE",
    "ReferenceSetup",
    "build_reference_model",
    "build_reference_setup",
    "ZipfCorpusGenerator",
    "MarkovCorpusGenerator",
    "ModelSampledCorpus",
    "split_into_sequences",
    "perplexity",
    "sequence_cross_entropy",
    "TaskExample",
    "SyntheticTask",
    "TaskSpec",
    "DEFAULT_TASK_SPECS",
    "build_task_suite",
    "TaskResult",
    "EvaluationReport",
    "evaluate_task",
    "evaluate_model",
    "score_candidates",
    "last_token_perplexity",
    "top1_agreement",
    "mean_kl_divergence",
    "logit_mse",
]
