"""Sentiment-axis construction and word orientation scoring.

Pipeline: pairwise cosine-distance matrix over the point words -> principal
components of the row space -> split at the origin of the first component (or
by a polarity lexicon) -> average each side into a reference vector -> orient
the pair by closeness to a seed word -> score every vocabulary word by the
difference of cosine similarities to the two references.

The orientation of a word w is cos(vec_pos, w) - cos(vec_neg, w), i.e. the
distance-to-negative minus distance-to-positive, so positive words score
positive and the seed's own score is non-negative by construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pca, records
from .errors import (
    AmbiguousOrientationError,
    ConfigError,
    DegenerateMatrixError,
    DegenerateVectorError,
    InsufficientDataError,
    ParseError,
    PartitionError,
    SeedMissingError,
)
from .patterns import PointWordSet
from .vectors import EmbeddingTable, cosine_distance

MODE_UNSUPERVISED = "unsupervised"
MODE_SEMI_SUPERVISED = "semi-supervised"

DEFAULT_SEED_WORD = "excellent"

#: Distance differences below this are treated as an orientation tie.
ORIENTATION_TIE_EPS = 1e-12

# Rows per row-norm block in score_vocabulary: 1,024 rows of 100 dims square
# into 0.8 MB, where a 20,000-row table would square into 16 MB at once.
NORM_BLOCK_ROWS = 1024


@dataclass(frozen=True, slots=True)
class DistanceMatrix:
    words: tuple[str, ...]
    d: np.ndarray
    dropped: tuple[str, ...] = ()

    def __post_init__(self):
        k = len(self.words)
        if k < 3:
            raise InsufficientDataError(f"need at least 3 point words, got {k}")
        if self.d.shape != (k, k):
            raise ValueError(f"matrix shape {self.d.shape} does not match {k} words")


@dataclass(frozen=True, slots=True)
class AxisProjection:
    words: tuple[str, ...]
    pc1: np.ndarray
    pc2: np.ndarray
    explained_variance: tuple[float, float]


@dataclass(frozen=True, slots=True)
class SentimentAxis:
    pos_words: tuple[str, ...]
    neg_words: tuple[str, ...]
    vec_pos: np.ndarray
    vec_neg: np.ndarray
    seed: str = DEFAULT_SEED_WORD
    mode: str = MODE_UNSUPERVISED

    def __post_init__(self):
        if set(self.pos_words) & set(self.neg_words):
            raise ValueError("pos_words and neg_words overlap")
        if np.array_equal(self.vec_pos, self.vec_neg):
            raise ValueError("reference vectors are identical")


@dataclass(frozen=True, slots=True)
class OrientationLexicon:
    scores: dict[str, float]
    axis: SentimentAxis | None
    fingerprint: str


def build_distance_matrix(points: PointWordSet, table: EmbeddingTable) -> DistanceMatrix:
    """K x K cosine distances over the in-vocabulary point words (sorted).

    Out-of-vocabulary point words are dropped and reported on the result.
    """
    in_vocab = sorted(w for w in points.words if w in table)
    dropped = tuple(sorted(set(points.words) - set(in_vocab)))
    if len(in_vocab) < 3:
        raise InsufficientDataError(
            f"only {len(in_vocab)} point words are in the embedding vocabulary; need 3")
    vectors = np.stack([table[w] for w in in_vocab])
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0.0):
        bad = in_vocab[int(np.argmin(norms))]
        raise DegenerateVectorError(f"point word {bad!r} has a zero vector")
    unit = vectors / norms[:, None]
    d = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    d = (d + d.T) / 2.0  # exact symmetry against BLAS round-off
    np.fill_diagonal(d, 0.0)
    np.clip(d, 0.0, 2.0, out=d)
    return DistanceMatrix(words=tuple(in_vocab), d=d, dropped=dropped)


def principal_axis(dm: DistanceMatrix) -> AxisProjection:
    """Project each word's distance-matrix row onto the top two principal axes.

    Rows are column-mean-centered first; eigenvectors come from a symmetric
    eigendecomposition of the covariance with a canonical sign
    (largest-magnitude component positive). explained_variance holds each
    component's share of the total.
    """
    x = dm.d
    centered = x - x.mean(axis=0)
    k = x.shape[0]
    cov = centered.T @ centered / (k - 1)
    cov = (cov + cov.T) / 2.0
    total = float(np.trace(cov))
    if total <= 0.0:
        raise DegenerateMatrixError("all rows identical: rank 0 after centering")
    values, vectors = pca.top_two_components(cov)
    pc1 = centered @ vectors[0]
    pc2 = centered @ vectors[1]
    return AxisProjection(
        words=dm.words,
        pc1=pc1,
        pc2=pc2,
        explained_variance=(values[0] / total, values[1] / total),
    )


def partition_by_origin(proj: AxisProjection) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split words at zero on the principal axis; pc1 == 0 goes to the first set."""
    set_a = tuple(w for w, v in zip(proj.words, proj.pc1) if v >= 0.0)
    set_b = tuple(w for w, v in zip(proj.words, proj.pc1) if v < 0.0)
    if not set_a or not set_b:
        raise PartitionError("principal axis did not separate the point words")
    return set_a, set_b


def partition_by_lexicon(points: PointWordSet, lexicon: dict[str, float]):
    """Split point words by the sign of their lexicon polarity.

    Words missing from the lexicon or scored exactly 0 (neutral) are dropped.
    Returns (positive_side, negative_side, dropped).
    """
    set_a, set_b, dropped = [], [], []
    for word in sorted(points.words):
        score = lexicon.get(word, 0.0)
        if score > 0.0:
            set_a.append(word)
        elif score < 0.0:
            set_b.append(word)
        else:
            dropped.append(word)
    if not set_a or not set_b:
        raise PartitionError(
            f"lexicon left one side empty ({len(set_a)} positive / {len(set_b)} negative)")
    return tuple(set_a), tuple(set_b), tuple(dropped)


def build_reference_vectors(set_a, set_b, table: EmbeddingTable):
    """Component-wise mean vector of each side's in-vocabulary members."""
    return _mean_vector(set_a, table, "first"), _mean_vector(set_b, table, "second")


def _mean_vector(words, table: EmbeddingTable, side: str) -> np.ndarray:
    members = sorted(w for w in words if w in table)
    if not members:
        raise InsufficientDataError(f"{side} set has no in-vocabulary words")
    mean = np.mean(np.stack([table[w] for w in members]), axis=0)
    if not np.any(mean):
        raise DegenerateVectorError(f"{side} set averages to the zero vector")
    return mean


def orient_by_seed(vec_a: np.ndarray, vec_b: np.ndarray, set_a, set_b,
                   table: EmbeddingTable, seed: str = DEFAULT_SEED_WORD,
                   mode: str = MODE_UNSUPERVISED) -> SentimentAxis:
    """Name the reference closer to the seed word 'positive'."""
    if seed not in table:
        raise SeedMissingError(f"seed word {seed!r} not in embedding vocabulary")
    seed_vec = table[seed]
    dist_a = cosine_distance(vec_a, seed_vec)
    dist_b = cosine_distance(vec_b, seed_vec)
    if abs(dist_a - dist_b) < ORIENTATION_TIE_EPS:
        raise AmbiguousOrientationError(
            f"references are equidistant from seed {seed!r} (distance {dist_a})")
    if dist_a < dist_b:
        pos_words, neg_words, vec_pos, vec_neg = set_a, set_b, vec_a, vec_b
    else:
        pos_words, neg_words, vec_pos, vec_neg = set_b, set_a, vec_b, vec_a
    return SentimentAxis(pos_words=tuple(pos_words), neg_words=tuple(neg_words),
                         vec_pos=vec_pos, vec_neg=vec_neg, seed=seed, mode=mode)


def score_vocabulary(axis: SentimentAxis, table: EmbeddingTable) -> OrientationLexicon:
    """Orientation score for every vocabulary word."""
    if axis.vec_pos.shape != (table.dim,) or axis.vec_neg.shape != (table.dim,):
        raise ConfigError(f"axis vectors have {axis.vec_pos.size} and {axis.vec_neg.size} "
                          f"values, word vectors {table.dim}")
    norms = _row_norms(table.matrix)
    if np.any(norms == 0.0):
        bad = table.words[int(np.argmin(norms))]
        raise DegenerateVectorError(f"vocabulary word {bad!r} has a zero vector")
    sims_pos = _similarities(table.matrix, norms, axis.vec_pos)
    sims_neg = _similarities(table.matrix, norms, axis.vec_neg)
    values = sims_pos - sims_neg
    scores = dict(zip(table.words, values.tolist()))
    return OrientationLexicon(scores=scores, axis=axis, fingerprint=table.fingerprint())


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(matrix, axis=1)`` a block of rows at a time: a row's
    norm depends on that row alone, so the values are the same to the bit,
    and the squares are never all held at once."""
    norms = np.empty(len(matrix))
    for start in range(0, len(matrix), NORM_BLOCK_ROWS):
        norms[start:start + NORM_BLOCK_ROWS] = np.linalg.norm(
            matrix[start:start + NORM_BLOCK_ROWS], axis=1)
    return norms


def _similarities(matrix: np.ndarray, norms: np.ndarray, reference: np.ndarray) -> np.ndarray:
    ref_norm = float(np.linalg.norm(reference))
    if ref_norm == 0.0:
        raise DegenerateVectorError("reference vector is zero")
    return np.clip((matrix @ reference) / (norms * ref_norm), -1.0, 1.0)


# ---------------------------------------------------------------------------
# persistence

AXIS_FILENAME = "axis.tsv"
_AXIS_KEYS = ("mode", "seed", "vec_pos", "vec_neg")


def save_axis(axis: SentimentAxis, directory) -> Path:
    """Write the axis as ``key<TAB>value`` records under the directory, made if absent."""
    directory = Path(directory)
    directory.mkdir(exist_ok=True)
    path = directory / AXIS_FILENAME
    records.write(path, [("mode", axis.mode), ("seed", axis.seed),
                         *(("pos", w) for w in axis.pos_words),
                         *(("neg", w) for w in axis.neg_words),
                         ("vec_pos", " ".join(repr(float(v)) for v in axis.vec_pos)),
                         ("vec_neg", " ".join(repr(float(v)) for v in axis.vec_neg))])
    return path


def load_axis(directory_or_file) -> SentimentAxis:
    """Read ``axis.tsv``: one record per pos/neg word, exactly one of each other key."""
    path = Path(directory_or_file)
    if path.is_dir():
        path = path / AXIS_FILENAME
    _, rows = records.read(path, ("key", "value"))
    words: dict[str, list[str]] = {"pos": [], "neg": []}
    side: dict[str, str] = {}
    single: dict[str, tuple[int, str]] = {}
    for line, (key, value) in rows:
        if key in words:
            if side.setdefault(value, key) != key:
                raise ParseError(f"{value!r} is listed as both pos and neg", path=path, line=line)
            words[key].append(value)
        elif key in _AXIS_KEYS and key not in single:
            single[key] = (line, value)
        else:
            raise ParseError(f"unknown or repeated record type {key!r}", path=path, line=line)
    missing = set(_AXIS_KEYS) - single.keys()
    if missing:
        raise ParseError(f"missing records: {sorted(missing)}", path=path)
    vec_pos, vec_neg = (
        np.array([records.finite_float(path, single[key][0], v, key)
                  for v in single[key][1].split()]) for key in ("vec_pos", "vec_neg"))
    if len(vec_pos) != len(vec_neg):
        raise ParseError(f"vec_neg has {len(vec_neg)} values, vec_pos {len(vec_pos)}",
                         path=path, line=single["vec_neg"][0])
    if np.array_equal(vec_pos, vec_neg):
        raise ParseError("vec_neg equals vec_pos", path=path, line=single["vec_neg"][0])
    for key, vec in (("vec_pos", vec_pos), ("vec_neg", vec_neg)):
        if not vec.any():
            raise ParseError(f"{key} is a zero vector", path=path, line=single[key][0])
    return SentimentAxis(pos_words=tuple(words["pos"]), neg_words=tuple(words["neg"]),
                         vec_pos=vec_pos, vec_neg=vec_neg,
                         seed=single["seed"][1], mode=single["mode"][1])


def save_orientation_lexicon(lexicon: OrientationLexicon, path) -> None:
    """Records ``word<TAB>score`` sorted by word, with provenance headers."""
    axis = lexicon.axis
    records.write(path, ((w, lexicon.scores[w]) for w in sorted(lexicon.scores)),
                  {"embedding_fingerprint": lexicon.fingerprint,
                   "mode": axis.mode if axis is not None else "unknown",
                   "seed": axis.seed if axis is not None else "unknown"})


def load_orientation_lexicon(path) -> OrientationLexicon:
    """Read an orientation lexicon; a repeated word is an error."""
    headers, rows = records.read(path, ("word", "score"))
    scores: dict[str, float] = {}
    for line, (word, value) in rows:
        if word in scores:
            raise ParseError(f"duplicate word {word!r}", path=path, line=line)
        scores[word] = records.finite_float(path, line, value, "score")
    if not scores:
        raise ParseError("no scores found", path=path)
    _, fingerprint = headers.get("embedding_fingerprint", (0, ""))
    return OrientationLexicon(scores=scores, axis=None, fingerprint=fingerprint)


def save_projection_csv(proj: AxisProjection, path) -> None:
    """CSV ``word,pc1,pc2`` for external plotting."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "pc1", "pc2"])
        for word, v1, v2 in zip(proj.words, proj.pc1, proj.pc2):
            writer.writerow([word, repr(float(v1)), repr(float(v2))])
