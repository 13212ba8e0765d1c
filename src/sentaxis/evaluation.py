"""Review classification, accuracy evaluation, cutoff sweeps and the pipeline.

A review is labeled by ``corpus.label_for`` of the mean orientation of its
in-lexicon tokens (token occurrences count with multiplicity). The PMI
baseline labels by the same rule from the mean orientation of its phrases;
``evaluate`` and ``evaluate_pmi`` tally ``review_means`` and ``pmi_review_means``.
A review with no evidence has mean zero, so it is POS, and is counted
undecided.
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import axis as axis_mod
from . import patterns, pmi
from .corpus import (
    NEG,
    POS,
    FORMAT_ONE_TOKEN_PER_LINE,
    TaggedCorpus,
    label_for,
    load_labeled_reviews,
    load_polarity_lexicon,
    load_tagged_corpus,
)
from .errors import ConfigError, EmptyInputError, PipelineError, SentaxisError
from .sgns import SgnsConfig, train_sgns
from .vectors import EmbeddingTable, load_embeddings, save_embeddings

MODE_UNSUP = "unsup"
MODE_SEMI = "semi"

_MODE_NAMES = {
    MODE_UNSUP: axis_mod.MODE_UNSUPERVISED,
    MODE_SEMI: axis_mod.MODE_SEMI_SUPERVISED,
}


@dataclass(frozen=True, slots=True)
class EvalReport:
    accuracy: float
    n_total: int
    n_correct: int
    n_pos_gold: int
    n_neg_gold: int
    n_undecided: int
    confusion: tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True, slots=True)
class SweepRow:
    cutoff: int
    k_point_words: int
    accuracy: float | None
    mode: str
    reason: str = ""


def review_means(reviews: TaggedCorpus,
                 lexicon: axis_mod.OrientationLexicon) -> list[tuple[float, int]]:
    """Each review's mean orientation over its in-lexicon tokens (summed in
    order) and how many scored, in one walk over the word ids."""
    scores = list(map(lexicon.scores.get, reviews.words))
    word_ids, bounds = reviews.word_ids.tolist(), reviews.offsets.tolist()
    means = []
    for start, end in zip(bounds, bounds[1:]):
        total = 0.0
        n = 0
        for score in map(scores.__getitem__, word_ids[start:end]):
            if score is not None:
                total += score
                n += 1
        means.append(((total / n if n else 0.0), n))
    return means


def _check_gold(reviews: TaggedCorpus) -> None:
    if not len(reviews):
        raise EmptyInputError("no reviews to evaluate")
    unlabeled = [i for i, gold in zip(reviews.ids, reviews.labels) if gold not in (POS, NEG)]
    if unlabeled:
        raise ConfigError(f"reviews without gold labels: {unlabeled[:5]}")


def _tally(reviews: TaggedCorpus, scores: Iterable[tuple[float, int]]) -> EvalReport:
    """Label each review by its (mean, n) in ``scores``; n == 0 is undecided."""
    confusion = {(POS, POS): 0, (POS, NEG): 0, (NEG, POS): 0, (NEG, NEG): 0}
    undecided = 0
    for gold, (mean, n) in zip(reviews.labels, scores, strict=True):
        confusion[(gold, label_for(mean))] += 1
        undecided += n == 0
    n_total = sum(confusion.values())
    n_correct = confusion[(POS, POS)] + confusion[(NEG, NEG)]
    return EvalReport(
        accuracy=n_correct / n_total,
        n_total=n_total,
        n_correct=n_correct,
        n_pos_gold=confusion[(POS, POS)] + confusion[(POS, NEG)],
        n_neg_gold=confusion[(NEG, POS)] + confusion[(NEG, NEG)],
        n_undecided=undecided,
        confusion=((confusion[(POS, POS)], confusion[(POS, NEG)]),
                   (confusion[(NEG, POS)], confusion[(NEG, NEG)])),
    )


def evaluate(reviews: TaggedCorpus, lexicon: axis_mod.OrientationLexicon) -> EvalReport:
    """Accuracy and confusion of lexicon classification against gold labels."""
    _check_gold(reviews)
    return _tally(reviews, review_means(reviews, lexicon))


def pmi_review_means(index: pmi.NearIndex, reviews: TaggedCorpus, pos_seed: str,
                     neg_seed: str) -> list[tuple[float, int]]:
    """Each review's mean phrase orientation and phrase count, from one extraction
    over all the reviews. Both seeds are checked first, even when no review has a
    phrase; each distinct phrase is scored once, in sorted order, so each first
    word's next-word array is gathered once."""
    pmi.seed_hits(index, pos_seed, neg_seed)
    at = pmi.extract_phrases(reviews).at
    first, second = (map(reviews.words.__getitem__, reviews.word_ids[at + k].tolist())
                     for k in (0, 1))
    phrases = list(zip(first, second))
    orientations = {phrase: pmi.so_phrase(index, phrase, pos_seed=pos_seed, neg_seed=neg_seed)
                    for phrase in sorted(set(phrases))}
    bounds = at.searchsorted(reviews.offsets).tolist()
    results = (pmi.classify_review_pmi(phrases[start:end], orientations)
               for start, end in zip(bounds, bounds[1:]))
    return [(r.mean_so, r.n_phrases) for r in results]


def evaluate_pmi(index: pmi.NearIndex, reviews: TaggedCorpus,
                 pos_seed: str = pmi.DEFAULT_POS_SEED,
                 neg_seed: str = pmi.DEFAULT_NEG_SEED) -> EvalReport:
    """PMI baseline accuracy and confusion against gold labels."""
    _check_gold(reviews)
    return _tally(reviews, pmi_review_means(index, reviews, pos_seed, neg_seed))


def induce_axis(points: patterns.PointWordSet, table: EmbeddingTable, mode: str,
                lexicon: dict[str, float] | None = None,
                seed_word: str = axis_mod.DEFAULT_SEED_WORD):
    """Point words -> oriented sentiment axis (plus the projection when computed).

    mode 'unsup' partitions at the origin of the principal axis; mode 'semi'
    partitions by lexicon sign (the projection is still computed best-effort
    for diagnostics).
    """
    if mode not in _MODE_NAMES:
        raise ConfigError(f"mode must be one of {sorted(_MODE_NAMES)}, got {mode!r}")
    dm = axis_mod.build_distance_matrix(points, table)
    projection = None
    if mode == MODE_UNSUP:
        projection = axis_mod.principal_axis(dm)
        set_a, set_b = axis_mod.partition_by_origin(projection)
    else:
        if lexicon is None:
            raise ConfigError("semi-supervised mode requires a polarity lexicon")
        set_a, set_b, _dropped = axis_mod.partition_by_lexicon(points, lexicon)
        try:
            projection = axis_mod.principal_axis(dm)
        except SentaxisError:
            projection = None  # diagnostics only; the partition came from the lexicon
    vec_a, vec_b = axis_mod.build_reference_vectors(set_a, set_b, table)
    oriented = axis_mod.orient_by_seed(vec_a, vec_b, set_a, set_b, table,
                                       seed=seed_word, mode=_MODE_NAMES[mode])
    return oriented, projection


class Run(NamedTuple):
    """What ``induce_lexicon`` gives; projection is None when not computed."""
    axis: axis_mod.SentimentAxis
    projection: axis_mod.AxisProjection | None
    lexicon: axis_mod.OrientationLexicon
    report: EvalReport


def induce_lexicon(points: patterns.PointWordSet, table: EmbeddingTable, reviews: TaggedCorpus,
                   mode: str, polarity: dict[str, float] | None = None,
                   seed_word: str = axis_mod.DEFAULT_SEED_WORD) -> Run:
    """The stages build-axis -> score -> evaluate, a failure a PipelineError naming its stage."""
    oriented, projection = _stage("build-axis", induce_axis, points, table, mode,
                                  polarity, seed_word)
    lexicon = _stage("score", axis_mod.score_vocabulary, oriented, table)
    report = _stage("evaluate", evaluate, reviews, lexicon)
    return Run(oriented, projection, lexicon, report)


def sweep_cutoffs(corpus: TaggedCorpus, reviews: TaggedCorpus, mode: str,
                  cutoffs: Sequence[int], table: EmbeddingTable,
                  lexicon: dict[str, float] | None = None,
                  seed_word: str = axis_mod.DEFAULT_SEED_WORD) -> list[SweepRow]:
    """Select point words and ``induce_lexicon`` per cutoff. A failed cutoff is a
    row of its point-word count (0 if selection failed) and its error's type name."""
    if mode not in _MODE_NAMES:
        raise ConfigError(f"sweep mode must be one of {sorted(_MODE_NAMES)}, got {mode!r}")
    if mode == MODE_SEMI and lexicon is None:
        raise ConfigError("semi-supervised mode requires a polarity lexicon")
    if not cutoffs:
        raise ConfigError("cutoff range is empty")
    phrases = patterns.extract_phrases(corpus)
    rows: list[SweepRow] = []
    for cutoff in cutoffs:
        k, accuracy, reason = 0, None, ""
        try:
            points = _stage("select-points", patterns.select_point_words, phrases, cutoff)
            k = len(points.words)
            run = induce_lexicon(points, table, reviews, mode, lexicon, seed_word)
            accuracy = run.report.accuracy
        except PipelineError as exc:
            reason = type(exc.cause).__name__
        rows.append(SweepRow(cutoff, k, accuracy, mode, reason))
    return rows


# ---------------------------------------------------------------------------
# pipeline

@dataclass(frozen=True, slots=True)
class PipelineConfig:
    corpus_path: str
    reviews_path: str
    out_dir: str
    mode: str = MODE_UNSUP
    cutoff: int = 2
    seed_word: str = axis_mod.DEFAULT_SEED_WORD
    corpus_format: str = FORMAT_ONE_TOKEN_PER_LINE
    embeddings_path: str | None = None
    lexicon_path: str | None = None
    # with embeddings_path, nothing trains: the flag values, as SgnsConfig
    # fields, may come unchecked as a dict, and only the snapshot reads them
    sgns: SgnsConfig | dict = field(default_factory=SgnsConfig)

    def snapshot(self) -> dict:
        flat = asdict(self)
        for key, value in flat.pop("sgns").items():
            flat[f"sgns_{key}"] = value
        return flat


def _stage(name: str, func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except SentaxisError as exc:
        raise PipelineError(name, exc) from exc


def run_pipeline(config: PipelineConfig) -> EvalReport:
    """Corpus -> embeddings -> point words -> ``induce_lexicon`` -> ``write_run``.

    Writes lexicon.tsv, axis.tsv, projection.csv, report.txt (and
    embeddings.txt when vectors were trained here) under config.out_dir.
    Deterministic given the configured seeds.
    """
    if config.mode == MODE_SEMI and config.lexicon_path is None:
        raise ConfigError("semi-supervised mode requires --lexicon")
    if config.cutoff < 1:
        raise ConfigError(f"--cutoff must be >= 1, got {config.cutoff}")
    corpus = _stage("load-corpus", load_tagged_corpus, config.corpus_path,
                    config.corpus_format)
    reviews = _stage("load-reviews", load_labeled_reviews, config.reviews_path)
    polarity = None
    if config.lexicon_path is not None:
        polarity = _stage("load-lexicon", load_polarity_lexicon, config.lexicon_path)

    if config.embeddings_path is not None:
        table = _stage("load-embeddings", load_embeddings, config.embeddings_path)
    else:
        table = _stage("train-embeddings", train_sgns, corpus, config.sgns)

    phrases = _stage("extract-phrases", patterns.extract_phrases, corpus)
    points = _stage("select-points", patterns.select_point_words, phrases, config.cutoff)
    run = induce_lexicon(points, table, reviews, config.mode, polarity, config.seed_word)
    write_run(run, config.out_dir, config.snapshot(),
              table if config.embeddings_path is None else None)
    return run.report


def write_run(run: Run, out_dir, config: dict, trained: EmbeddingTable | None = None) -> None:
    """Write a run's files, its report with ``config``'s settings (and ``trained``
    vectors as embeddings.txt) into a temporary directory beside ``out_dir``,
    then move each into ``out_dir``, which is created only then: a failed write
    leaves ``out_dir`` as it was. The directory that holds ``out_dir`` must
    exist; nothing creates it."""
    out_dir = Path(out_dir)
    with tempfile.TemporaryDirectory(prefix=f".{out_dir.name}.", dir=out_dir.parent) as tmp:
        tmp = Path(tmp)
        if trained is not None:
            save_embeddings(trained, tmp / "embeddings.txt")
        axis_mod.save_axis(run.axis, tmp)
        axis_mod.save_orientation_lexicon(run.lexicon, tmp / "lexicon.tsv")
        if run.projection is not None:
            axis_mod.save_projection_csv(run.projection, tmp / "projection.csv")
        write_report(run.report, tmp / "report.txt", config)
        out_dir.mkdir(exist_ok=True)
        for path in tmp.iterdir():
            os.replace(path, out_dir / path.name)


# ---------------------------------------------------------------------------
# report and sweep serialization

def write_report(report: EvalReport, path, config: dict) -> None:
    """Line-oriented key=value dump with the confusion matrix, then each of
    the run's settings in ``config`` as ``config_<key>=<value>``, sorted."""
    lines = [
        f"accuracy={report.accuracy!r}",
        f"n_total={report.n_total}",
        f"n_correct={report.n_correct}",
        f"n_pos_gold={report.n_pos_gold}",
        f"n_neg_gold={report.n_neg_gold}",
        f"n_undecided={report.n_undecided}",
        f"confusion_gold_pos_pred_pos={report.confusion[0][0]}",
        f"confusion_gold_pos_pred_neg={report.confusion[0][1]}",
        f"confusion_gold_neg_pred_pos={report.confusion[1][0]}",
        f"confusion_gold_neg_pred_neg={report.confusion[1][1]}",
    ]
    for key in sorted(config):
        lines.append(f"config_{key}={config[key]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_report(path) -> dict[str, str]:
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            key, _, value = line.partition("=")
            values[key] = value
    return values


def write_sweep_csv(rows: Iterable[SweepRow], path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cutoff", "k", "mode", "accuracy", "reason"])
        for row in rows:
            accuracy = "" if row.accuracy is None else repr(row.accuracy)
            writer.writerow([row.cutoff, row.k_point_words, row.mode, accuracy, row.reason])
