"""Skip-gram negative-sampling trainer on numpy, with a compiled training loop.

The update math lives in two pure functions (:func:`negative_sampling_loss`
and :func:`negative_sampling_grads`) so the analytic gradients can be checked
against finite differences; the training loop applies exactly those gradients.

Training runs in one thread and draws every random number from one generator
seeded by ``rng_seed``, so equal seeds give bit-identical tables. The whole
epoch and document loop is one call of ``sgns_kernel.c``, built and bound by
:mod:`sentaxis.compiled`; its scratch memory is sized in Python with exact
integers and allocated by numpy, so a size no memory holds is a
:class:`ConfigError` naming the flags. It links numpy's ``libnpyrandom.a`` and draws from the
generator's own ``bitgen_t``, through the functions ``Generator.random`` and
``Generator.integers`` call, so it takes the same numbers in the same order
as the numpy loop. On x86-64 with glibc the update body is compiled twice,
for AVX2 and for the baseline ISA (``target_clones``), and the dynamic
loader picks one for the CPU it runs on, so the cached library needs no
``-march`` flag and stays shareable between machines; both bodies give the
same bits. Each center's update runs in phases over all its rows (scores
four rows at a time, sigmoids, the center gradient 16 columns at a time,
then the updates), so rows and columns overlap while every sum keeps its
order. Noise words are found through a guide table of ``max(vocab, 4096)``
buckets, built once per call, which returns exactly ``np.searchsorted``'s
index. Without a compiler, numpy's random header or that library, or if
the build fails, :func:`_train_documents` runs instead: it draws each
document's numbers in Python, its noise draws into an array sized up front
as the kernel's scratch is, and applies them with :func:`_numpy_step`, the
per-center numpy loop the kernel reproduces (to about 1e-13: only the order
of the dot-product sums differs).
``table.metadata["sgns_kernel"]`` records which loop ran: ``"c"`` or
``"numpy"``."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import partial
from pathlib import Path

import numpy as np

from .corpus import TaggedCorpus
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
            # the kernel takes them as 64-bit integers and doubles the window
            if not 1 <= getattr(self, name) < 2**62:
                raise ConfigError(f"{name} must be in [1, 2**62)")
        if not 0.0 < self.initial_learning_rate < 1.0:
            raise ConfigError("initial_learning_rate must be in (0, 1)")
        if not (math.isfinite(self.subsample_threshold) and self.subsample_threshold >= 0.0):
            raise ConfigError("subsample_threshold must be a finite number >= 0")


# the learning rate decays linearly, but never below this fraction of its initial value
_LR_FLOOR = 1e-4


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
    """The words seen at least ``min_count`` times, most frequent first (ties
    by word), their counts, and the corpus's token count."""
    counts = np.bincount(corpus.word_ids, minlength=len(corpus.words))
    kept = [(w, c) for w, c in zip(corpus.words, counts.tolist()) if c >= min_count]
    if not kept:
        raise ConfigError(
            f"min_count {min_count} leaves an empty vocabulary "
            f"(most frequent word occurs {counts.max(initial=0)} times)")
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    words = [w for w, _ in kept]
    return words, np.array([c for _, c in kept], dtype=np.float64), len(corpus.word_ids)


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
    kernel = _load_kernel()
    # each token's vocabulary index, -1 for a word below min_count; the kept
    # tokens of document d are ids[offsets[d]:offsets[d + 1]]
    ids = np.array([word_id.get(w, -1) for w in corpus.words], dtype=np.int64)[corpus.word_ids]
    kept = ids >= 0
    ids, offsets = ids[kept], np.concatenate(([0], np.cumsum(kept)))[corpus.offsets]
    try:
        w_in, w_out = (_aligned_zeros(vocab_size, config.dim) for _ in range(2))
        np.subtract(rng.random(out=w_in), 0.5, out=w_in)
        w_in /= config.dim
        if kernel is None:  # its noise draws too are sized here, as the kernel's scratch is
            train = partial(_train_documents, np.empty(_document_sizes(offsets, config)[2]))
        else:
            train = partial(_train_kernel, kernel, _kernel_scratch(offsets, vocab_size, config))
    except (MemoryError, ValueError):
        # numpy raises ValueError for an array larger than it can address
        raise ConfigError(f"--dim {config.dim}, --window {config.window} and --negatives "
                          f"{config.negatives} need more memory than can be allocated") from None

    keep_p = _keep_probabilities(counts, config.subsample_threshold)
    noise_cdf = _noise_cdf(counts)
    total_tokens = int(counts.sum())
    train(ids, offsets, w_in, w_out, keep_p, noise_cdf, config, rng,
          config.epochs * total_tokens)

    metadata = {"model": "sgns", "corpus_tokens": corpus_total,
                "vocab_tokens": total_tokens, **asdict(config),
                "sgns_kernel": "numpy" if kernel is None else "c"}
    return EmbeddingTable(words, w_in, metadata=metadata)


def _train_documents(draws, ids, offsets, w_in, w_out, keep_p, noise_cdf, config, rng,
                     planned) -> None:
    """Draw each document's random numbers, then apply :func:`_numpy_step` to it;
    document d is ``ids[offsets[d]:offsets[d + 1]]``. ``draws`` has room for
    the noise draws of any one document.

    The draws come in the order the per-center loop made them (keep mask,
    window radii, then every center's noise words in center order). This is
    the reference the kernel's ``sgns_train`` reproduces draw for draw.
    """
    lr0 = config.initial_learning_rate
    lr_floor = _LR_FLOOR * lr0
    window = config.window
    negatives = config.negatives
    bounds = offsets.tolist()
    tokens = 0

    for _ in range(config.epochs):
        for start, end in zip(bounds, bounds[1:]):
            doc = ids[start:end]
            kept = doc[rng.random(doc.size) < keep_p[doc]]
            n = kept.size
            tokens += doc.size
            if n < 2:
                continue
            lr = max(lr_floor, lr0 * (1.0 - tokens / (planned + 1)))
            shrink = rng.integers(1, window + 1, size=n)
            pos = np.arange(n)
            contexts = np.minimum(n, pos + shrink + 1) - np.maximum(0, pos - shrink) - 1
            count = int(contexts.sum()) * negatives
            negs = np.searchsorted(noise_cdf, rng.random(out=draws[:count]))
            # guard: cdf tail can round below 1.0
            negs = np.minimum(negs, len(noise_cdf) - 1)
            _numpy_step(kept, shrink, negs, lr, w_in, w_out, negatives)


def _numpy_step(kept, shrink, negs, lr, w_in, w_out, negatives) -> None:
    """One document of updates, one center at a time; the kernel's reference."""
    n = kept.size
    drawn = 0
    for i in range(n):
        # all context pairs of one center step together (one
        # mini-batch), sharing the pre-update parameters
        b = shrink[i]
        lo = i - b if i >= b else 0
        hi = min(n, i + b + 1)
        targets = np.concatenate((kept[lo:i], kept[i + 1:hi]))
        m = targets.size
        pair_negs = negs[drawn:drawn + m * negatives].reshape(m, negatives)
        drawn += m * negatives
        # drop noise draws that hit their own pair's context word
        keep_negs = pair_negs[pair_negs != targets[:, None]]
        rows = np.concatenate((targets, keep_negs))
        center = kept[i]
        v = w_in[center]
        d_center, d_outputs = negative_sampling_grads(v, w_out[rows], m)
        w_in[center] = v - lr * d_center
        np.subtract.at(w_out, rows, lr * d_outputs)


def _aligned_zeros(rows: int, cols: int) -> np.ndarray:
    """A float64 zero matrix starting on a 64-byte boundary, so that its rows
    split cache lines alike in every run."""
    buffer = np.zeros(rows * cols + 8)
    return buffer[-buffer.ctypes.data % 64 // 8:][:rows * cols].reshape(rows, cols)


def _numpy_random_library() -> Path:
    """numpy's static library of the generator's C functions."""
    return Path(np.random.__file__).parent / "lib" / "libnpyrandom.a"


def _load_kernel():
    """``sgns_train`` of ``sgns_kernel.c``, linked against numpy's
    ``libnpyrandom.a`` (see :mod:`sentaxis.compiled`), or None if it cannot be
    built or loaded."""
    import ctypes
    from numpy.ctypeslib import ndpointer

    from . import compiled  # here, not at the top: importing sentaxis stays as fast

    ids = ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    table = ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    matrix = ndpointer(np.float64, ndim=2, flags=("C_CONTIGUOUS", "WRITEABLE"))
    count = ctypes.c_int64
    scratch = tuple(ndpointer(dtype, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
                    for dtype in _SCRATCH_TYPES)
    return compiled.kernel(
        "sgns_kernel", "sgns_train",
        (ids, ids, count, table, table, count, count, count, count, count,
         ctypes.c_double, ctypes.c_double, count, matrix, matrix, ctypes.c_void_p, *scratch,
         count),
        None, (_numpy_random_library(),))


# the kernel's scratch arrays, in its argument order: kept, shrink, uniform,
# rows, coeff, grad, draws, negs, guide
_SCRATCH_TYPES = (np.int64, np.int64, np.float64, np.int64, np.float64, np.float64,
                  np.float64, np.int64, np.int64)

# the fewest buckets of the kernel's noise-word guide table: the unigram^0.75
# cdf is skewed, so with one bucket a word most draws step through several
_MIN_GUIDE_BUCKETS = 4096


def _document_sizes(offsets, config: SgnsConfig) -> tuple[int, int, int]:
    """The longest document's token count, the most rows one center has and
    the most noise draws one document takes, as exact integers, so no size wraps."""
    longest = int(np.diff(offsets).max())
    span = min(2 * config.window, longest - 1)  # the context words of one center
    return longest, span * (1 + config.negatives), longest * span * config.negatives


def _kernel_scratch(offsets, vocab_size: int, config: SgnsConfig) -> list[np.ndarray]:
    """The kernel's scratch arrays (see ``sgns_train``), sized for the longest
    document, so the kernel allocates nothing."""
    longest, rows, draws = _document_sizes(offsets, config)
    sizes = (longest, longest, longest, rows, rows, config.dim, draws, draws,
             max(vocab_size, _MIN_GUIDE_BUCKETS))
    return [np.empty(size, dtype) for size, dtype in zip(sizes, _SCRATCH_TYPES)]


def _train_kernel(kernel, scratch, ids, offsets, w_in, w_out, keep_p, noise_cdf, config, rng,
                  planned) -> None:
    """:func:`_train_documents` as one call of ``kernel``, with the arrays of
    :func:`_kernel_scratch`."""
    lr0 = config.initial_learning_rate
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        kernel(ids, offsets, len(offsets) - 1, keep_p, noise_cdf, noise_cdf.size, config.epochs,
               config.window, config.negatives, w_in.shape[1], lr0, _LR_FLOOR * lr0, planned,
               w_in, w_out, bit_generator.ctypes.bit_generator, *scratch, scratch[-1].size)
