"""Skip-gram negative-sampling trainer, from scratch on numpy.

The update math lives in two pure functions (:func:`negative_sampling_loss`
and :func:`negative_sampling_grads`) so the analytic gradients can be checked
against finite differences; the training loop applies exactly those gradients.

Training runs in one thread and draws every random number from one generator
seeded by ``rng_seed``, so equal seeds give bit-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .corpus import TaggedCorpus, count_frequencies
from .errors import ConfigError
from .vectors import EmbeddingTable


@dataclass(frozen=True, slots=True)
class SgnsConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_learning_rate: float = 0.025
    min_count: int = 5
    subsample_threshold: float = 1e-3
    rng_seed: int = 1

    def __post_init__(self):
        for name in ("dim", "window", "negatives", "epochs", "min_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.initial_learning_rate < 1.0:
            raise ConfigError("initial_learning_rate must be in (0, 1)")
        if self.subsample_threshold < 0.0:
            raise ConfigError("subsample_threshold must be >= 0")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(log sigmoid): overflow-safe for large |x|
    return np.exp(-np.logaddexp(0.0, -x))


def negative_sampling_loss(center: np.ndarray, outputs: np.ndarray,
                           n_positive: int = 1) -> float:
    """Loss of one (center, contexts, negatives) sample.

    The first ``n_positive`` rows of ``outputs`` are observed context vectors,
    the rest are noise words: -sum log s(u_ctx.v) - sum log s(-u_neg.v).
    """
    scores = outputs @ center
    # log sigmoid via logaddexp for numerical stability
    pos_terms = -np.logaddexp(0.0, -scores[:n_positive])
    neg_terms = -np.logaddexp(0.0, scores[n_positive:])
    return float(-(pos_terms.sum() + neg_terms.sum()))


def negative_sampling_grads(center: np.ndarray, outputs: np.ndarray,
                            n_positive: int = 1):
    """Analytic gradients of :func:`negative_sampling_loss`.

    Returns (d_center, d_outputs) with shapes matching the inputs.
    """
    coeff = _sigmoid(outputs @ center)
    coeff[:n_positive] -= 1.0
    d_center = coeff @ outputs
    d_outputs = np.outer(coeff, center)
    return d_center, d_outputs


def _build_vocab(corpus: TaggedCorpus, min_count: int):
    freq = count_frequencies(corpus)
    kept = [(w, c) for w, c in freq.counts.items() if c >= min_count]
    if not kept:
        raise ConfigError(
            f"min_count {min_count} leaves an empty vocabulary "
            f"(most frequent word occurs {max(freq.counts.values(), default=0)} times)")
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    words = [w for w, _ in kept]
    counts = np.array([c for _, c in kept], dtype=np.float64)
    return words, counts, freq.total


def _keep_probabilities(counts: np.ndarray, threshold: float) -> np.ndarray:
    """word2vec-style subsampling keep probability per vocabulary word."""
    if threshold <= 0.0:
        return np.ones_like(counts)
    freq = counts / counts.sum()
    ratio = threshold / freq
    return np.minimum(1.0, np.sqrt(ratio) + ratio)


def _noise_cdf(counts: np.ndarray) -> np.ndarray:
    weights = counts ** 0.75
    return np.cumsum(weights / weights.sum())


def train_sgns(corpus: TaggedCorpus, config: SgnsConfig) -> EmbeddingTable:
    """Train input-side word vectors on the corpus token streams (tags ignored)."""
    if len(corpus) == 0:
        raise ConfigError("corpus is empty")
    words, counts, corpus_total = _build_vocab(corpus, config.min_count)
    word_id = {w: i for i, w in enumerate(words)}
    vocab_size = len(words)
    rng = np.random.default_rng(config.rng_seed)

    w_in = (rng.random((vocab_size, config.dim)) - 0.5) / config.dim
    w_out = np.zeros((vocab_size, config.dim))

    keep_p = _keep_probabilities(counts, config.subsample_threshold)
    noise_cdf = _noise_cdf(counts)

    doc_ids = [
        np.array([word_id[t.text] for t in doc.tokens if t.text in word_id], dtype=np.intp)
        for doc in corpus.documents
    ]
    doc_ids = [ids for ids in doc_ids if ids.size]
    total_tokens = int(counts.sum())
    _train_documents(doc_ids, w_in, w_out, keep_p, noise_cdf, config, rng,
                     config.epochs * total_tokens)

    metadata = {"model": "sgns", "corpus_tokens": corpus_total,
                "vocab_tokens": total_tokens, **asdict(config)}
    return EmbeddingTable(words, w_in, metadata=metadata)


def _train_documents(doc_ids, w_in, w_out, keep_p, noise_cdf, config, rng,
                     planned) -> None:
    lr0 = config.initial_learning_rate
    lr_floor = 1e-4 * lr0
    window = config.window
    negatives = config.negatives
    tokens = 0

    for _ in range(config.epochs):
        for ids in doc_ids:
            kept = ids[rng.random(ids.size) < keep_p[ids]]
            n = kept.size
            tokens += ids.size
            if n < 2:
                continue
            lr = max(lr_floor, lr0 * (1.0 - tokens / (planned + 1)))
            shrink = rng.integers(1, window + 1, size=n)
            for i in range(n):
                # all context pairs of one center step together (one
                # mini-batch), sharing the pre-update parameters
                b = shrink[i]
                lo = i - b if i >= b else 0
                hi = min(n, i + b + 1)
                targets = np.concatenate((kept[lo:i], kept[i + 1:hi]))
                m = targets.size
                if m == 0:
                    continue
                negs = np.searchsorted(noise_cdf, rng.random(m * negatives))
                # guard: cdf tail can round below 1.0
                negs = np.minimum(negs, len(noise_cdf) - 1)
                # drop noise draws that hit their own pair's context word
                negs = negs.reshape(m, negatives)
                keep_negs = negs[negs != targets[:, None]]
                rows = np.concatenate((targets, keep_negs))
                center = kept[i]
                v = w_in[center]
                d_center, d_outputs = negative_sampling_grads(v, w_out[rows], m)
                w_in[center] = v - lr * d_center
                np.subtract.at(w_out, rows, lr * d_outputs)
