import numpy as np
import pytest

from sentaxis.corpus import make_corpus
from sentaxis.errors import ConfigError
from sentaxis.sgns import (
    SgnsConfig,
    negative_sampling_grads,
    negative_sampling_loss,
    train_sgns,
    _keep_probabilities,
    _noise_cdf,
)
from sentaxis.vectors import cosine_similarity, nearest_neighbors

from synthgen import make_reviews


def two_sentence_corpus():
    return make_corpus([
        [("this", "DT"), ("movie", "NN"), ("is", "VBZ"), ("very", "RB"), ("good", "JJ")],
        [("this", "DT"), ("movie", "NN"), ("is", "VBZ"), ("very", "RB"), ("bad", "JJ")],
    ])


def central_difference(loss, params: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(params)
    flat = params.ravel()
    out = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        hi = loss()
        flat[k] = orig - h
        lo = loss()
        flat[k] = orig
        out[k] = (hi - lo) / (2.0 * h)
    return grad


class TestGradients:
    """Analytic gradients against central finite differences (frozen fixture)."""

    def frozen_sample(self):
        # 5-word vocabulary, dim 7: center plus one context and three negatives
        rng = np.random.default_rng(2024)
        center = rng.normal(scale=0.8, size=7)
        outputs = rng.normal(scale=0.8, size=(4, 7))
        return center, outputs

    def test_center_gradient_matches_finite_differences(self):
        center, outputs = self.frozen_sample()
        analytic, _ = negative_sampling_grads(center.copy(), outputs.copy())
        numeric = central_difference(
            lambda: negative_sampling_loss(center, outputs), center)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-8)

    def test_output_gradients_match_finite_differences(self):
        center, outputs = self.frozen_sample()
        _, analytic = negative_sampling_grads(center.copy(), outputs.copy())
        numeric = central_difference(
            lambda: negative_sampling_loss(center, outputs), outputs)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-8)

    def test_batched_positives_match_finite_differences(self):
        # the trainer batches several contexts per center step
        center, outputs = self.frozen_sample()
        d_center, d_outputs = negative_sampling_grads(center.copy(), outputs.copy(), 2)
        num_center = central_difference(
            lambda: negative_sampling_loss(center, outputs, 2), center)
        num_outputs = central_difference(
            lambda: negative_sampling_loss(center, outputs, 2), outputs)
        assert np.allclose(d_center, num_center, rtol=1e-4, atol=1e-8)
        assert np.allclose(d_outputs, num_outputs, rtol=1e-4, atol=1e-8)


class TestTraining:
    def test_paradigmatic_pair_lands_close(self):
        # two sentences differing only in the last word: good/bad end up
        # mutual top-3 neighbors with high cosine similarity
        config = SgnsConfig(dim=16, window=5, negatives=5, epochs=100, min_count=1,
                            subsample_threshold=0.0, rng_seed=1,
                            initial_learning_rate=0.05)
        table = train_sgns(two_sentence_corpus(), config)
        assert "bad" in [w for w, _ in nearest_neighbors(table, "good", 3)]
        assert "good" in [w for w, _ in nearest_neighbors(table, "bad", 3)]
        assert cosine_similarity(table["good"], table["bad"]) > 0.5

    def test_min_count_above_all_counts_raises(self):
        config = SgnsConfig(min_count=100)
        with pytest.raises(ConfigError):
            train_sgns(two_sentence_corpus(), config)

    def test_vocabulary_respects_min_count(self):
        corpus = make_corpus([
            [("a", "DT")] * 5 + [("b", "NN")] * 2 + [("c", "JJ")],
        ])
        config = SgnsConfig(dim=4, min_count=2, epochs=1, rng_seed=1)
        table = train_sgns(corpus, config)
        assert set(table.words) == {"a", "b"}

    def test_deterministic_given_seed(self):
        corpus = make_reviews(30, seed=8)
        config = SgnsConfig(dim=12, epochs=2, min_count=2, rng_seed=77)
        first = train_sgns(corpus, config)
        second = train_sgns(corpus, config)
        assert first.words == second.words
        assert np.array_equal(first.matrix, second.matrix)

    def test_different_seed_differs(self):
        corpus = make_reviews(30, seed=8)
        first = train_sgns(corpus, SgnsConfig(dim=12, epochs=1, min_count=2, rng_seed=1))
        second = train_sgns(corpus, SgnsConfig(dim=12, epochs=1, min_count=2, rng_seed=2))
        assert not np.array_equal(first.matrix, second.matrix)

    def test_vectors_finite_and_nonzero(self):
        corpus = make_reviews(20, seed=3)
        table = train_sgns(corpus, SgnsConfig(dim=10, epochs=1, min_count=1, rng_seed=5))
        assert np.all(np.isfinite(table.matrix))
        assert np.all(np.linalg.norm(table.matrix, axis=1) > 0)

    def test_metadata_records_config_and_token_count(self):
        corpus = two_sentence_corpus()
        config = SgnsConfig(dim=8, epochs=2, min_count=1, rng_seed=4)
        table = train_sgns(corpus, config)
        assert table.metadata["dim"] == 8
        assert table.metadata["rng_seed"] == 4
        assert table.metadata["corpus_tokens"] == 10

    def test_small_corpus_sanity_inequality(self):
        # paradigmatic neighbors score above unrelated frequent words
        corpus = make_reviews(300, seed=21)
        table = train_sgns(corpus, SgnsConfig(dim=32, epochs=3, min_count=5, rng_seed=9))
        assert cosine_similarity(table["good"], table["great"]) > \
            cosine_similarity(table["good"], table["the"])


class TestConfig:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ConfigError):
            SgnsConfig(dim=0)
        with pytest.raises(ConfigError):
            SgnsConfig(epochs=0)

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ConfigError):
            SgnsConfig(initial_learning_rate=1.5)


class TestSamplingHelpers:
    def test_keep_probabilities_disabled_at_zero_threshold(self):
        counts = np.array([100.0, 10.0, 1.0])
        assert np.all(_keep_probabilities(counts, 0.0) == 1.0)

    def test_keep_probabilities_penalize_frequent_words(self):
        counts = np.array([1000.0, 10.0])
        keep = _keep_probabilities(counts, 1e-3)
        assert keep[0] < keep[1]
        assert np.all(keep > 0.0)
        assert np.all(keep <= 1.0)

    def test_noise_cdf_follows_three_quarter_power(self):
        counts = np.array([16.0, 1.0])
        cdf = _noise_cdf(counts)
        # 16^0.75 = 8, so the first word owns 8/9 of the mass
        assert cdf[0] == pytest.approx(8.0 / 9.0)
        assert cdf[-1] == pytest.approx(1.0)
