"""Tests for the evaluation substrate: data generators, perplexity, tasks, harness."""

import numpy as np
import pytest

from repro.eval import (
    MarkovCorpusGenerator,
    ModelSampledCorpus,
    TaskSpec,
    ZipfCorpusGenerator,
    build_task_suite,
    evaluate_model,
    evaluate_task,
    last_token_perplexity,
    logit_mse,
    mean_kl_divergence,
    perplexity,
    score_candidates,
    split_into_sequences,
    top1_agreement,
)
from repro.eval.harness import _candidate_loglikelihood
from repro.eval.tasks import SyntheticTask, TaskExample
from repro.mamba import InitConfig, Mamba2Model, get_preset


@pytest.fixture(scope="module")
def model():
    return Mamba2Model.from_config(get_preset("mamba2-tiny"), InitConfig(seed=4))


@pytest.fixture(scope="module")
def tasks(model):
    specs = [
        TaskSpec(name="toy-a", num_candidates=4, continuation_len=2, context_len=8),
        TaskSpec(name="toy-b", num_candidates=2, continuation_len=1, context_len=6),
    ]
    return build_task_suite(model, num_examples=6, specs=specs, seed=1)


class TestDataGenerators:
    def test_zipf_range_and_determinism(self):
        gen = ZipfCorpusGenerator(vocab_size=128, seed=3)
        a = gen.generate(500)
        b = gen.generate(500)
        assert a.min() >= 0 and a.max() < 128
        np.testing.assert_array_equal(a, b)

    def test_zipf_is_skewed(self):
        gen = ZipfCorpusGenerator(vocab_size=256, seed=0)
        tokens = gen.generate(5000)
        counts = np.bincount(tokens, minlength=256)
        top_share = np.sort(counts)[::-1][:10].sum() / 5000
        assert top_share > 0.3  # heavy head, unlike uniform (10/256 ~ 0.04)

    def test_zipf_sequences(self):
        seqs = ZipfCorpusGenerator(64, seed=1).sequences(5, 16)
        assert len(seqs) == 5 and all(len(s) == 16 for s in seqs)

    def test_markov_more_predictable_than_zipf(self):
        """The Markov chain has lower conditional entropy than i.i.d. Zipf."""
        vocab = 64
        markov = MarkovCorpusGenerator(vocab, branching=4, seed=0)
        tokens = markov.generate(4000)
        matrix = markov.transition_matrix()
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, rtol=1e-9)
        # Empirical bigram predictability.
        hits = np.mean(matrix[tokens[:-1]].argmax(axis=1) == tokens[1:])
        assert hits > 0.2  # far above the 1/64 chance level

    def test_model_sampled_corpus(self, model):
        corpus = ModelSampledCorpus(model, seed=2)
        seqs = corpus.sequences(2, 12)
        assert len(seqs) == 2
        assert all(len(s) == 12 for s in seqs)
        assert all(s.max() < model.config.vocab_size for s in seqs)

    def test_split_into_sequences(self):
        seqs = split_into_sequences(np.arange(10), 3)
        assert len(seqs) == 3
        np.testing.assert_array_equal(seqs[1], [3, 4, 5])

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfCorpusGenerator(vocab_size=1)
        with pytest.raises(ValueError):
            MarkovCorpusGenerator(vocab_size=16, branching=20)
        with pytest.raises(ValueError):
            split_into_sequences(np.arange(4), 0)


class TestPerplexity:
    def test_uniform_model_perplexity_is_vocab_size(self, model):
        """A model with all-zero logits has perplexity == vocab size."""
        uniform = model.copy()
        uniform.embedding = np.zeros_like(uniform.embedding)
        uniform.lm_head_weight = np.zeros((model.config.vocab_size, model.config.d_model))
        seqs = [np.arange(10) % model.config.vocab_size]
        assert perplexity(uniform, seqs) == pytest.approx(model.config.vocab_size, rel=1e-6)

    def test_lower_on_own_samples_than_random(self, model):
        """The model predicts its own generations better than random tokens."""
        own = ModelSampledCorpus(model, temperature=0.8, seed=5).sequences(2, 24)
        rng = np.random.default_rng(0)
        random_seqs = [rng.integers(0, model.config.vocab_size, size=24) for _ in range(2)]
        assert perplexity(model, own) < perplexity(model, random_seqs)

    def test_requires_sequences(self, model):
        with pytest.raises(ValueError):
            perplexity(model, [])
        with pytest.raises(ValueError):
            perplexity(model, [np.array([1])])


class TestTasks:
    def test_suite_structure(self, tasks):
        assert [t.name for t in tasks] == ["toy-a", "toy-b"]
        assert all(len(t) == 6 for t in tasks)
        for task in tasks:
            for ex in task.examples:
                assert len(ex.candidates) == (4 if task.name == "toy-a" else 2)
                assert 0 <= ex.gold_index < len(ex.candidates)

    def test_deterministic_given_seed(self, model):
        spec = [TaskSpec(name="t", num_candidates=3, continuation_len=1, context_len=6)]
        a = build_task_suite(model, num_examples=3, specs=spec, seed=9)
        b = build_task_suite(model, num_examples=3, specs=spec, seed=9)
        for ex_a, ex_b in zip(a[0].examples, b[0].examples):
            np.testing.assert_array_equal(ex_a.context, ex_b.context)
            assert ex_a.gold_index == ex_b.gold_index

    def test_chance_accuracy(self):
        task = SyntheticTask(
            name="x",
            examples=[
                TaskExample(np.array([1, 2]), [np.array([0]), np.array([1])], 0),
                TaskExample(
                    np.array([1, 2]),
                    [np.array([0]), np.array([1]), np.array([2]), np.array([3])],
                    1,
                ),
            ],
        )
        assert task.chance_accuracy == pytest.approx((0.5 + 0.25) / 2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(name="bad", num_candidates=1)
        with pytest.raises(ValueError):
            TaskSpec(name="bad", gold_temperature=1.5, distractor_temperature=1.0)

    def test_example_validation(self):
        with pytest.raises(ValueError):
            TaskExample(np.array([1]), [np.array([0])], 0)
        with pytest.raises(ValueError):
            TaskExample(np.array([1]), [np.array([0]), np.array([1])], 5)


class TestHarness:
    def test_reference_model_beats_chance(self, model, tasks):
        """The FP reference must rank its own likely continuations above chance."""
        for task in tasks:
            result = evaluate_task(model, task)
            assert result.accuracy > task.chance_accuracy

    def test_incremental_scoring_matches_full_forward(self, model, tasks):
        """The cache-based scorer must agree with the full-sequence scorer."""
        example = tasks[0].examples[0]
        fast = score_candidates(model, example)
        slow_scores = [
            _candidate_loglikelihood(model, example.context, cand)
            for cand in example.candidates
        ]
        assert fast == int(np.argmax(slow_scores))

    def test_evaluate_model_report(self, model, tasks):
        report = evaluate_model(model, tasks, label="fp")
        assert len(report.task_results) == len(tasks)
        assert 0.0 <= report.average_accuracy <= 1.0
        row = report.as_row()
        assert "average" in row and "toy-a" in row
        assert report.accuracy("toy-a") == report.task_results[0].accuracy
        with pytest.raises(KeyError):
            report.accuracy("missing")

    def test_last_token_perplexity_fp_lower_than_shuffled(self, model, tasks):
        """A model with shuffled weights scores higher gold perplexity."""
        broken = model.copy()
        rng = np.random.default_rng(0)
        for block in broken.blocks:
            block.out_proj.weight = rng.permutation(block.out_proj.weight.ravel()).reshape(
                block.out_proj.weight.shape
            )
        assert last_token_perplexity(model, tasks[0]) < last_token_perplexity(broken, tasks[0])

    def test_empty_task_rejected(self, model):
        with pytest.raises(ValueError):
            evaluate_task(model, SyntheticTask(name="empty", examples=[]))


class TestFidelityMetrics:
    def test_identical_models(self, model):
        seqs = [np.arange(8), np.arange(4) + 2]
        assert top1_agreement(model, model, seqs) == 1.0
        assert mean_kl_divergence(model, model, seqs) == pytest.approx(0.0, abs=1e-9)
        assert logit_mse(model, model, seqs) == 0.0

    def test_perturbed_model_diverges(self, model):
        noisy = model.copy()
        rng = np.random.default_rng(1)
        for block in noisy.blocks:
            block.out_proj.weight = block.out_proj.weight + 0.05 * rng.normal(
                size=block.out_proj.weight.shape
            )
        seqs = [np.arange(12)]
        assert mean_kl_divergence(model, noisy, seqs) > 0.0
        assert logit_mse(model, noisy, seqs) > 0.0
        assert top1_agreement(model, noisy, seqs) <= 1.0

    def test_requires_sequences(self, model):
        with pytest.raises(ValueError):
            top1_agreement(model, model, [])
