"""Command-line surface tying the pipeline stages together.

Every subcommand reads and writes plain files so stages can be re-run and
inspected independently; `pipeline` composes them end to end.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import axis as axis_mod
from . import evaluation as eval_mod
from . import patterns, pmi, records
from .corpus import (
    FORMAT_INLINE,
    FORMAT_ONE_TOKEN_PER_LINE,
    load_labeled_reviews,
    load_polarity_lexicon,
    load_tagged_corpus,
)
from .errors import ConfigError, SentaxisError
from .sgns import SgnsConfig, train_sgns
from .vectors import load_embeddings, save_embeddings


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="tagged corpus file")
    parser.add_argument("--format", default=FORMAT_ONE_TOKEN_PER_LINE,
                        choices=[FORMAT_ONE_TOKEN_PER_LINE, FORMAT_INLINE],
                        help="tagged corpus file format")


def _check_output(flag: str, output: str, kind: str) -> None:
    """The one output rule: the output's directory exists, a "dir" output
    exists only as a directory, and a "file" output not as one."""
    path = Path(output)
    if not path.parent.is_dir():
        raise ConfigError(f"{flag} {output}: its directory does not exist")
    if kind == "dir" and path.exists() and not path.is_dir():
        raise ConfigError(f"{flag} {output} exists and is not a directory")
    if kind == "file" and path.is_dir():
        raise ConfigError(f"{flag} {output} is a directory")


def _parse_cutoffs(text: str) -> list[int]:
    """Accept 'A..B' ranges or comma-separated lists of cutoffs >= 1."""
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"invalid cutoff range {text!r} for --cutoffs: "
                          "expected 'A..B' or 'a,b,c' of integers >= 1")
    return values


# SgnsConfig fields set by a flag of another name
_FIELD_FLAGS = {"initial_learning_rate": "--lr", "min_count": "--min-count",
                "subsample_threshold": "--subsample"}


def _sgns_flags(args) -> dict:
    """The training flags as SgnsConfig fields, unchecked."""
    return dict(dim=args.dim, window=args.window, negatives=args.negatives,
                epochs=args.epochs, initial_learning_rate=args.lr,
                min_count=args.min_count, subsample_threshold=args.subsample,
                rng_seed=args.seed)


def _sgns_config_from(args) -> SgnsConfig:
    """The training flags' SgnsConfig; an error names a renamed field's flag too."""
    try:
        return SgnsConfig(**_sgns_flags(args))
    except ConfigError as exc:
        field, _, fault = str(exc).partition(" ")
        if field not in _FIELD_FLAGS:
            raise
        raise ConfigError(f"{_FIELD_FLAGS[field]} ({field}) {fault}") from None


def _add_training_args(parser: argparse.ArgumentParser) -> None:
    defaults = SgnsConfig()
    parser.add_argument("--dim", type=int, default=defaults.dim)
    parser.add_argument("--window", type=int, default=defaults.window)
    parser.add_argument("--negatives", type=int, default=defaults.negatives)
    parser.add_argument("--epochs", type=int, default=defaults.epochs)
    parser.add_argument("--lr", type=float, default=defaults.initial_learning_rate,
                        help="initial learning rate")
    parser.add_argument("--min-count", type=int, default=defaults.min_count)
    parser.add_argument("--subsample", type=float, default=defaults.subsample_threshold,
                        help="frequent-word subsampling threshold (0 disables)")
    parser.add_argument("--seed", type=int, default=defaults.rng_seed,
                        help="training RNG seed")


def _add_axis_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", required=True, choices=list(eval_mod._MODE_NAMES))
    parser.add_argument("--lexicon", default=None, help="polarity lexicon TSV (semi mode)")
    parser.add_argument("--seed-word", default=axis_mod.DEFAULT_SEED_WORD)


def cmd_train_embeddings(args) -> int:
    config = _sgns_config_from(args)
    corpus = load_tagged_corpus(args.corpus, args.format)
    table = train_sgns(corpus, config)
    save_embeddings(table, args.out)
    print(f"trained {len(table)} x {table.dim} vectors -> {args.out}")
    return 0


def cmd_extract_phrases(args) -> int:
    corpus = load_tagged_corpus(args.corpus, args.format)
    phrases = patterns.extract_phrases(corpus)
    patterns.save_phrases(phrases, args.out)
    print(f"extracted {len(phrases)} phrase occurrences "
          f"({len(set(phrases.pairs().tolist()))} types) -> {args.out}")
    return 0


def cmd_select_points(args) -> int:
    if args.cutoff < 1:
        raise ConfigError(f"--cutoff must be >= 1, got {args.cutoff}")
    corpus = load_tagged_corpus(args.corpus, args.format)
    phrases = patterns.load_phrases(args.phrases, corpus)
    points = patterns.select_point_words(phrases, args.cutoff)
    patterns.save_point_words(points, args.out)
    print(f"selected {len(points.words)} point words at cutoff {args.cutoff} -> {args.out}")
    return 0


def cmd_build_axis(args) -> int:
    table = load_embeddings(args.embeddings)
    points = patterns.load_point_words(args.points)
    lexicon = load_polarity_lexicon(args.lexicon) if args.lexicon else None
    oriented, projection = eval_mod.induce_axis(points, table, args.mode,
                                                lexicon=lexicon,
                                                seed_word=args.seed_word)
    axis_path = axis_mod.save_axis(oriented, args.out)
    if projection is not None:
        axis_mod.save_projection_csv(projection, Path(args.out) / "projection.csv")
    print(f"axis ({oriented.mode}, {len(oriented.pos_words)} pos / "
          f"{len(oriented.neg_words)} neg words) -> {axis_path}")
    return 0


def cmd_score(args) -> int:
    table = load_embeddings(args.embeddings)
    oriented = axis_mod.load_axis(args.axis)
    try:
        lexicon = axis_mod.score_vocabulary(oriented, table)
    except ConfigError as exc:
        raise ConfigError(f"{args.axis} does not match {args.embeddings}: {exc}") from None
    axis_mod.save_orientation_lexicon(lexicon, args.out)
    print(f"scored {len(lexicon.scores)} words -> {args.out}")
    return 0


def cmd_classify(args) -> int:
    lexicon = axis_mod.load_orientation_lexicon(args.lexicon)
    reviews = load_labeled_reviews(args.reviews)
    report = eval_mod.evaluate(reviews, lexicon)
    eval_mod.write_report(report, args.report,
                          {"lexicon": args.lexicon, "reviews": args.reviews})
    print(f"accuracy={report.accuracy:.4f} over {report.n_total} reviews -> {args.report}")
    return 0


def cmd_sweep(args) -> int:
    cutoffs = _parse_cutoffs(args.cutoffs)
    corpus = load_tagged_corpus(args.corpus, args.format)
    reviews = load_labeled_reviews(args.reviews)
    table = load_embeddings(args.embeddings)
    lexicon = load_polarity_lexicon(args.lexicon) if args.lexicon else None
    rows = eval_mod.sweep_cutoffs(corpus, reviews, args.mode, cutoffs, table,
                                  lexicon=lexicon, seed_word=args.seed_word)
    eval_mod.write_sweep_csv(rows, args.csv)
    done = sum(1 for r in rows if r.accuracy is not None)
    print(f"swept {len(rows)} cutoffs ({done} evaluated) -> {args.csv}")
    return 0


def cmd_pmi_baseline(args) -> int:
    if args.window < 1:
        raise ConfigError(f"--window must be >= 1, got {args.window}")
    seeds = args.seeds.split(",")
    if len(seeds) != 2 or not all(seeds):
        raise ConfigError(f"--seeds must be 'pos,neg', got {args.seeds!r}")
    pos_seed, neg_seed = seeds
    if pos_seed == neg_seed:
        # every phrase's SO would be exactly 0, so every review would be POS
        raise ConfigError(f"--seeds must be two different words, got {args.seeds!r}")
    corpus = load_tagged_corpus(args.corpus, args.format)
    reviews = load_labeled_reviews(args.reviews)
    index = pmi.build_near_index(corpus, window=args.window)
    # hits count documents, the one unit; report.txt keeps its config_hit_unit line
    report = eval_mod.evaluate_pmi(index, reviews, pos_seed=pos_seed, neg_seed=neg_seed)
    eval_mod.write_report(report, args.report,
                          {"window": args.window, "seeds": args.seeds, "hit_unit": "docs",
                           "corpus": args.corpus, "reviews": args.reviews})
    print(f"pmi accuracy={report.accuracy:.4f} over {report.n_total} reviews -> {args.report}")
    return 0


def cmd_tag_variance(args) -> int:
    _, rows = records.read(args.annotated, ("token", "tag", "polarity"))
    annotated = [(token.lower(), tag,
                  records.finite_float(args.annotated, line, polarity, "polarity"))
                 for line, (token, tag, polarity) in rows]
    report = patterns.tag_polarity_variance(annotated)
    patterns.save_tag_variance(report, args.out)
    print(f"{len(report.per_tag)} tags, total variance {report.total_variance:.6g} -> {args.out}")
    return 0


def cmd_pipeline(args) -> int:
    # with --embeddings nothing trains: the training flags are recorded, not checked
    config = eval_mod.PipelineConfig(
        corpus_path=args.corpus, reviews_path=args.reviews, out_dir=args.out,
        mode=args.mode, cutoff=args.cutoff, seed_word=args.seed_word,
        corpus_format=args.format, embeddings_path=args.embeddings,
        lexicon_path=args.lexicon,
        sgns=_sgns_flags(args) if args.embeddings is not None else _sgns_config_from(args),
    )
    report = eval_mod.run_pipeline(config)
    print(f"accuracy={report.accuracy:.4f} over {report.n_total} reviews -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentaxis",
        description="Induce per-word sentiment orientations from a review corpus "
                    "and evaluate them by review classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-embeddings", help="train skip-gram vectors on a corpus")
    _add_corpus_args(p)
    _add_training_args(p)
    p.add_argument("--out", required=True, help="output vector file")
    p.set_defaults(func=cmd_train_embeddings, output=("--out", "file"))

    p = sub.add_parser("extract-phrases", help="extract two-word phrases by tag rules")
    _add_corpus_args(p)
    p.add_argument("--out", required=True, help="output phrase TSV")
    p.set_defaults(func=cmd_extract_phrases, output=("--out", "file"))

    p = sub.add_parser("select-points", help="select point words by phrase frequency")
    p.add_argument("--phrases", required=True, help="phrase TSV from extract-phrases")
    _add_corpus_args(p)
    p.add_argument("--cutoff", type=int, required=True, help="minimum phrase frequency")
    p.add_argument("--out", required=True, help="output point-word TSV")
    p.set_defaults(func=cmd_select_points, output=("--out", "file"))

    p = sub.add_parser("build-axis", help="discover and orient the sentiment axis")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--points", required=True, help="point-word TSV from select-points")
    _add_axis_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_build_axis, output=("--out", "dir"))

    p = sub.add_parser("score", help="score the whole vocabulary against an axis")
    p.add_argument("--axis", required=True, help="axis directory or axis.tsv")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True, help="output orientation lexicon TSV")
    p.set_defaults(func=cmd_score, output=("--out", "file"))

    p = sub.add_parser("classify", help="evaluate an orientation lexicon on labeled reviews")
    p.add_argument("--lexicon", required=True, help="orientation lexicon TSV")
    p.add_argument("--reviews", required=True, help="labeled reviews file")
    p.add_argument("--report", required=True, help="output report file")
    p.set_defaults(func=cmd_classify, output=("--report", "file"))

    p = sub.add_parser("sweep", help="accuracy across a range of frequency cutoffs")
    _add_corpus_args(p)
    p.add_argument("--reviews", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--cutoffs", required=True, help="range 'A..B' or list 'a,b,c'")
    _add_axis_args(p)
    p.add_argument("--csv", required=True, help="output CSV")
    p.set_defaults(func=cmd_sweep, output=("--csv", "file"))

    p = sub.add_parser("pmi-baseline", help="PMI proximity baseline over a local index")
    _add_corpus_args(p)
    p.add_argument("--reviews", required=True)
    p.add_argument("--window", type=int, default=pmi.DEFAULT_WINDOW)
    p.add_argument("--seeds", type=str.lower,
                   default=f"{pmi.DEFAULT_POS_SEED},{pmi.DEFAULT_NEG_SEED}",
                   help="comma-separated positive,negative seed words (lowercased)")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_pmi_baseline, output=("--report", "file"))

    p = sub.add_parser("tag-variance", help="polarity variance per POS tag")
    p.add_argument("--annotated", required=True,
                   help="TSV 'token<TAB>tag<TAB>polarity'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tag_variance, output=("--out", "file"))

    p = sub.add_parser("pipeline", help="run the full pipeline into an output directory")
    _add_corpus_args(p)
    p.add_argument("--reviews", required=True)
    _add_axis_args(p)
    p.add_argument("--cutoff", type=int, default=2)
    p.add_argument("--embeddings", default=None,
                   help="load vectors instead of training")
    _add_training_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline, output=("--out", "dir"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flag, kind = args.output
    try:
        # before the subcommand reads anything, so a bad output or mode costs no work
        _check_output(flag, getattr(args, flag[2:]), kind)
        if getattr(args, "mode", None) == eval_mod.MODE_SEMI and args.lexicon is None:
            raise ConfigError("semi-supervised mode requires a polarity lexicon")
        return args.func(args)
    except (SentaxisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
