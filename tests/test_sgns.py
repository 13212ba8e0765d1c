import math
import shutil
from functools import partial

import numpy as np
import pytest

from sentaxis import compiled, sgns
from sentaxis.errors import ConfigError
from sentaxis.sgns import (
    SgnsConfig,
    negative_sampling_grads,
    negative_sampling_loss,
    train_sgns,
    _keep_probabilities,
    _noise_cdf,
)
from sentaxis.vectors import cosine_similarity

from corpus_helpers import make_corpus
from synthgen import make_reviews


def two_sentence_corpus():
    return make_corpus([
        [("this", "DT"), ("movie", "NN"), ("is", "VBZ"), ("very", "RB"), ("good", "JJ")],
        [("this", "DT"), ("movie", "NN"), ("is", "VBZ"), ("very", "RB"), ("bad", "JJ")],
    ])


def top_neighbors(table, word: str, k: int) -> list[str]:
    """The k other words most cosine-similar to ``word``, ties by spelling."""
    others = (w for w in table.words if w != word)
    return sorted(others, key=lambda w: (-cosine_similarity(table[word], table[w]), w))[:k]


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
        assert "bad" in top_neighbors(table, "good", 3)
        assert "good" in top_neighbors(table, "bad", 3)
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

    def test_rejects_counts_beyond_64_bits(self):
        # ctypes would pass 2**64 + 5 to the kernel as 5
        with pytest.raises(ConfigError, match="window"):
            SgnsConfig(window=2**64 + 5)

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ConfigError):
            SgnsConfig(initial_learning_rate=1.5)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1e-3])
    def test_rejects_bad_subsample_threshold(self, threshold):
        with pytest.raises(ConfigError, match="subsample_threshold"):
            SgnsConfig(subsample_threshold=threshold)


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


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def recorded_documents(monkeypatch):
    """The (kept, shrink, negs) of every document the numpy loop steps through."""
    seen = []
    step = sgns._numpy_step
    monkeypatch.setattr(sgns, "_numpy_step",
                        lambda kept, shrink, negs, *rest: seen.append((kept, shrink, negs))
                        or step(kept, shrink, negs, *rest))
    return seen


def draws_hitting_context(kept, shrink, negs, negatives):
    # noise draws equal to their own pair's context word, one pair at a time
    pairs = [kept[j] for i, b in enumerate(shrink)
             for j in range(max(0, i - b), min(kept.size, i + b + 1)) if j != i]
    return sum(int(negs[p * negatives + q] == word)
               for p, word in enumerate(pairs) for q in range(negatives))


# noise mass mostly on words 2 and 3, so draws often hit their context
FIVE_WORDS = np.cumsum([0.02, 0.03, 0.5, 0.4, 0.05])


class NoiseDrawRecorder:
    """A Generator stand-in for sgns._train_documents that keeps its noise
    draws: the ``random`` call after each ``integers`` call (the radii)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.noise = []
        self.after_radii = False

    def integers(self, *args, **kwargs):
        self.after_radii = True
        return self.rng.integers(*args, **kwargs)

    def random(self, size=None, out=None):
        draws = self.rng.random(size, out=out)
        if self.after_radii:
            self.noise.extend(draws.tolist())
        self.after_radii = False
        return draws


def entry_on_a_draw(draws):
    """Five words whose cdf holds one of ``draws`` as an entry, and a bucket
    edge just above 0.6 as another: the kernel's guide table has
    ``sgns._MIN_GUIDE_BUCKETS`` buckets for five words, so b / buckets is an
    edge."""
    drawn = next(u for u in draws if 0.05 < u < 0.55)
    buckets = sgns._MIN_GUIDE_BUCKETS
    edge = math.ceil(0.6 * buckets) / buckets
    return np.array([drawn / 2, drawn, (drawn + 0.6) / 2, edge, 1.0])


# the kernel's vectors on make_reviews(60, seed=3), SgnsConfig(dim=dim, epochs=2,
# min_count=2, rng_seed=7), by dim
KERNEL_FINGERPRINTS = {12: "3722fa76e6675b48", 100: "ecbfbedd4f5bd1d0", 37: "6ff338f5d78b9229"}


def kernel_fingerprint(dim):
    table = train_sgns(make_reviews(60, seed=3),
                       SgnsConfig(dim=dim, epochs=2, min_count=2, rng_seed=7))
    assert table.metadata["sgns_kernel"] == "c"
    return table.fingerprint()


class TestKernel:
    def test_numpy_step_keeps_the_random_stream(self, monkeypatch):
        # the fingerprint the per-center loop gave before the draws were
        # hoisted out of it, one document at a time
        monkeypatch.setattr(sgns, "_load_kernel", lambda: None)
        table = train_sgns(make_reviews(60, seed=3),
                           SgnsConfig(dim=12, epochs=2, min_count=2, rng_seed=7))
        assert table.metadata["sgns_kernel"] == "numpy"
        assert table.fingerprint() == "73dd5a9b40a269eb"

    @pytest.mark.parametrize("n_reviews, dim", [(60, 12), (60, 37), (150, 16), (100, 50),
                                                (300, 100)])
    def test_trained_matrix_starts_on_a_64_byte_boundary(self, n_reviews, dim):
        # so the kernel's row loads split cache lines alike in every run
        table = train_sgns(make_reviews(n_reviews, seed=1),
                           SgnsConfig(dim=dim, epochs=1, min_count=3, rng_seed=1))
        assert table.matrix.ctypes.data % 64 == 0

    def test_numpy_loop_out_of_memory_is_a_config_error(self, monkeypatch):
        # the numpy loop sizes its noise draws before it trains, as the kernel
        # sizes its scratch, so it fails as the kernel path does
        monkeypatch.setattr(sgns, "_load_kernel", lambda: None)
        for negatives in (10**9, 2**61):
            with pytest.raises(ConfigError, match=f"--negatives {negatives} need more memory"):
                train_sgns(make_reviews(20, seed=3),
                           SgnsConfig(negatives=negatives, epochs=1, min_count=1))

    @needs_cc
    def test_kernel_keeps_the_per_document_step_vectors(self):
        # the fingerprint of the per-document C step the training loop replaced
        assert kernel_fingerprint(12) == KERNEL_FINGERPRINTS[12]

    @needs_cc
    @pytest.mark.parametrize("dim, fingerprint", [(100, KERNEL_FINGERPRINTS[100]),
                                                  (37, KERNEL_FINGERPRINTS[37])])
    def test_kernel_keeps_its_vectors_at_whole_and_odd_dims(self, dim, fingerprint):
        # recorded before the AVX2 clone and the guide table: dim 100 is whole
        # vectors of four doubles, 37 also runs every remainder loop
        assert kernel_fingerprint(dim) == fingerprint

    @needs_cc
    def test_baseline_isa_body_keeps_the_vectors(self, monkeypatch, tmp_path):
        # without its target_clones line the source builds the baseline-ISA
        # body alone, which a CPU with AVX2 would otherwise never run
        source = (compiled.PACKAGE / "sgns_kernel.c").read_text()
        (clone,) = [line for line in source.splitlines(keepends=True)
                    if "target_clones(" in line]
        (tmp_path / "sgns_kernel.c").write_text(source.replace(clone, ""))
        monkeypatch.setattr(compiled, "PACKAGE", tmp_path)
        monkeypatch.setattr(compiled, "CACHE", tmp_path / "cache")
        compiled.kernel.cache_clear()
        try:
            assert {dim: kernel_fingerprint(dim) for dim in KERNEL_FINGERPRINTS} == \
                KERNEL_FINGERPRINTS
            assert len(list((tmp_path / "cache").glob("sgns_kernel-*.so"))) == 1
        finally:
            compiled.kernel.cache_clear()

    @needs_cc
    @pytest.mark.parametrize("docs, keep, window, hits, noise_cdf", [
        ([[0, 1]], 1.0, 2, False, FIVE_WORDS),
        ([[2, 3, 2, 4], [3, 2]], 1.0, 3, True, FIVE_WORDS),
        ([[1, 1, 1, 1, 1]], 1.0, 2, False, FIVE_WORDS),
        # radii from an empty range: the generator draws none
        ([[0, 3, 1, 4, 2]], 1.0, 1, False, FIVE_WORDS),
        # one-token documents and ones that keep fewer than two draw only their mask
        ([[4], [0, 1, 2], [3, 3, 1], [2, 0], [1]], 0.4, 2, False, FIVE_WORDS),
        ([[0, 1, 2], [4, 3]], 1.0, 10**6, False, FIVE_WORDS),
        # words without mass: equal neighbours, and a first entry of 0
        ([[0, 1, 2, 3, 4, 0, 3], [4, 4, 1]], 1.0, 2, True, np.cumsum([0, 0.3, 0, 0.2, 0.5])),
        # a tail below 1.0, as rounding can leave it, but far enough below that
        # draws land past it and take the last word
        ([[0, 3, 1, 4, 2, 4]], 1.0, 3, True, np.array([0.1, 0.3, 0.5, 0.6, 0.7])),
        # the noise draws do not depend on the cdf, so one can be made an entry
        ([[0, 1, 2, 3, 4], [2, 1, 0]], 1.0, 2, False, entry_on_a_draw),
        # every draw is the one word, so every draw hits its context
        ([[0, 0, 0, 0, 0]], 1.0, 2, True, np.array([1.0])),
        # more words than the guide table's fewest buckets, with Zipf counts
        ([[0, 5000, 17, 1, 4999, 2, 0, 3], [3, 4500, 1]], 1.0, 3, False,
         _noise_cdf(1e6 / np.arange(1.0, 5002.0))),
    ], ids=["two-tokens", "draws-hit-context", "repeated-rows", "window-one",
            "short-kept-documents", "window-wider-than-documents", "tied-cdf-entries",
            "cdf-tail-below-one", "draw-on-a-cdf-entry", "one-word-vocabulary",
            "more-words-than-buckets"])
    def test_kernel_matches_numpy_step(self, monkeypatch, docs, keep, window, hits,
                                       noise_cdf):
        ids = np.array([i for d in docs for i in d], dtype=np.int64)
        offsets = np.cumsum([0] + [len(d) for d in docs])
        config = SgnsConfig(window=window, negatives=3, epochs=3, initial_learning_rate=0.05)
        if callable(noise_cdf):
            recorder = NoiseDrawRecorder(11)
            sgns._train_documents(np.empty(sgns._document_sizes(offsets, config)[2]), ids,
                                  offsets, np.zeros((5, 7)), np.zeros((5, 7)), np.ones(5),
                                  FIVE_WORDS, config, recorder, 40)
            noise_cdf = noise_cdf(recorder.noise)
            assert set(noise_cdf.tolist()) & set(recorder.noise)
        vocab = noise_cdf.size
        keep_p = np.full(vocab, keep)
        start = np.random.default_rng(0)
        weights = (start.normal(scale=0.5, size=(vocab, 7)),
                   start.normal(scale=0.5, size=(vocab, 7)))
        kernel = sgns._load_kernel()
        assert kernel is not None
        stepped = recorded_documents(monkeypatch)
        runs = []
        for train in (partial(sgns._train_kernel, kernel,
                              sgns._kernel_scratch(offsets, vocab, config)),
                      partial(sgns._train_documents,
                              np.empty(sgns._document_sizes(offsets, config)[2]))):
            rng = np.random.default_rng(11)
            w_in, w_out = weights[0].copy(), weights[1].copy()
            train(ids, offsets, w_in, w_out, keep_p, noise_cdf, config, rng, 40)
            runs.append((w_in, w_out, rng.bit_generator.state))
        (w_in, w_out, state), (ref_in, ref_out, ref_state) = runs
        assert not np.array_equal(ref_out, weights[1])
        assert np.max(np.abs(w_in - ref_in)) <= 1e-9
        assert np.max(np.abs(w_out - ref_out)) <= 1e-9
        # the same draws, and as many: both loops leave the generator alike
        assert state == ref_state
        if hits:
            assert sum(draws_hitting_context(*doc, 3) for doc in stepped) > 0

    @needs_cc
    @pytest.mark.parametrize("corpus, config", [
        (make_reviews(60, seed=3), SgnsConfig(dim=12, epochs=2, min_count=2, rng_seed=7)),
        # every window covers the whole document, so only the clamping decides
        (two_sentence_corpus(),
         SgnsConfig(dim=4, window=10**6, epochs=2, min_count=1, rng_seed=2)),
        (make_reviews(30, seed=4), SgnsConfig(dim=8, window=1, min_count=2, rng_seed=3)),
        (make_reviews(30, seed=5),
         SgnsConfig(dim=8, epochs=2, min_count=2, subsample_threshold=0.0, rng_seed=4)),
    ], ids=["reviews", "window-wider-than-documents", "window-one", "no-subsampling"])
    def test_kernel_training_matches_numpy_training(self, monkeypatch, corpus, config):
        compiled = train_sgns(corpus, config)
        monkeypatch.setattr(sgns, "_load_kernel", lambda: None)
        reference = train_sgns(corpus, config)
        assert compiled.metadata["sgns_kernel"] == "c"
        assert compiled.words == reference.words
        assert np.max(np.abs(compiled.matrix - reference.matrix)) <= 1e-9
