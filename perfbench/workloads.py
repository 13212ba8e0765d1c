"""The benchmark's workloads: seeded inputs, the CLI argv, and output checks.

Each workload is one ``sentaxis`` CLI invocation on files generated from the
seed. Outputs are read back through sentaxis's own readers and checked
against what the benchmark knows about its inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import synth
from sentaxis import axis as axis_mod
from sentaxis import evaluation
from sentaxis.errors import SentaxisError
from sentaxis.vectors import load_embeddings

VECTOR_DIM = 100
# The CLI's SGNS defaults, which train-unsup-2k runs with.
SGNS_EPOCHS = 5
SGNS_MIN_COUNT = 5


@dataclass(frozen=True)
class Sizes:
    train_reviews: int
    heldout_reviews: int
    vector_rows: int = 0


# Why each workload exists is in perfbench/README.md and BENCHMARK.json.
FULL_SIZES = {
    "train-unsup-2k": Sizes(2000, 500),
    "pretrained-semi-20k": Sizes(2000, 500, vector_rows=20000),
    "pmi-20k": Sizes(20000, 2000),
}
SMOKE_SIZES = {
    "train-unsup-2k": Sizes(200, 60),
    "pretrained-semi-20k": Sizes(200, 60, vector_rows=300),
    "pmi-20k": Sizes(400, 100),
}
WORKLOADS = tuple(FULL_SIZES)

# Traced sites that must fire on each workload; every other site must not.
PIPELINE_SITES = {
    "cli.main", "evaluation.load_tagged_corpus", "evaluation.load_labeled_reviews",
    "patterns.extract_phrases", "patterns.select_point_words",
    "axis.build_distance_matrix", "axis.principal_axis", "pca.top_two_components",
    "axis.score_vocabulary", "axis.save_axis", "axis.save_orientation_lexicon",
    "axis.save_projection_csv", "evaluation.evaluate", "evaluation.write_report",
}
EXPECTED_SITES = {
    "train-unsup-2k": PIPELINE_SITES | {"evaluation.train_sgns", "evaluation.save_embeddings"},
    "pretrained-semi-20k": PIPELINE_SITES | {"evaluation.load_polarity_lexicon",
                                             "evaluation.load_embeddings"},
    "pmi-20k": {
        "cli.main", "cli.load_tagged_corpus", "cli.load_labeled_reviews",
        "pmi.build_near_index", "evaluation.evaluate_pmi", "pmi.classify_review_pmi",
        "pmi.extract_phrases", "pmi.so_phrase", "evaluation.write_report",
    },
}


class CheckError(Exception):
    """An output is missing, unreadable or wrong."""


@dataclass
class Inputs:
    workload: str
    workdir: Path
    argv: list[str]
    train_counts: dict[str, int]
    heldout: list = field(repr=False)
    labels: list[str] = field(repr=False)
    vector_words: list[str] | None = field(default=None, repr=False)

    @property
    def out_dir(self) -> Path:
        return self.workdir / "out"

    @property
    def input_tokens(self) -> int:
        return sum(self.train_counts.values()) + sum(len(t) for t in self.heldout)

    @property
    def sgns_vocab(self) -> set[str]:
        return {w for w, c in self.train_counts.items() if c >= SGNS_MIN_COUNT}

    @property
    def sgns_tokens(self) -> int:
        """Tokens SGNS trains on: epochs x training tokens of in-vocabulary words."""
        vocab = self.sgns_vocab
        return SGNS_EPOCHS * sum(c for w, c in self.train_counts.items() if w in vocab)


def prepare(workload: str, sizes: Sizes, seed: int, workdir: Path) -> Inputs:
    """Write the workload's input files under workdir; same seed, same bytes."""
    workdir.mkdir(parents=True, exist_ok=True)
    train, _ = synth.make_reviews(sizes.train_reviews, seed, synth.STREAM_TRAIN)
    heldout, labels = synth.make_reviews(sizes.heldout_reviews, seed, synth.STREAM_HELDOUT)
    synth.write_corpus(train, workdir / "train.tsv")
    synth.write_reviews(heldout, labels, workdir / "heldout.tsv")
    counts = synth.token_counts(train)
    common = ["--corpus", "train.tsv", "--reviews", "heldout.tsv"]
    vector_words = None
    if workload == "train-unsup-2k":
        argv = ["pipeline", *common, "--mode", "unsup", "--cutoff", "2", "--out", "out"]
    elif workload == "pretrained-semi-20k":
        synth.write_gold(workdir / "gold.tsv")
        vector_words = synth.write_vectors(counts, sizes.vector_rows, VECTOR_DIM, seed,
                                           workdir / "vectors.txt")
        argv = ["pipeline", *common, "--embeddings", "vectors.txt", "--mode", "semi",
                "--lexicon", "gold.tsv", "--cutoff", "2", "--out", "out"]
    elif workload == "pmi-20k":
        argv = ["pmi-baseline", *common, "--report", "out/report.txt"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, workdir, argv, dict(counts), heldout, labels, vector_words)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _check_report(inputs: Inputs) -> dict[str, str]:
    report = evaluation.read_report(inputs.out_dir / "report.txt")
    n_total = int(report["n_total"])
    n_correct = int(report["n_correct"])
    pp = int(report["confusion_gold_pos_pred_pos"])
    pn = int(report["confusion_gold_pos_pred_neg"])
    np_ = int(report["confusion_gold_neg_pred_pos"])
    nn = int(report["confusion_gold_neg_pred_neg"])
    _require(n_total == len(inputs.labels),
             f"report counts {n_total} reviews, inputs hold {len(inputs.labels)}")
    _require(int(report["n_pos_gold"]) == pp + pn == inputs.labels.count(synth.POS),
             "positive gold count disagrees with the inputs")
    _require(int(report["n_neg_gold"]) == np_ + nn == inputs.labels.count(synth.NEG),
             "negative gold count disagrees with the inputs")
    _require(n_correct == pp + nn, "n_correct disagrees with the confusion matrix")
    _require(float(report["accuracy"]) == n_correct / n_total,
             "accuracy disagrees with n_correct / n_total")
    return report


def _classify(heldout, labels, scores: dict[str, float]) -> tuple[int, int]:
    """(correct, undecided) by the mean in-lexicon orientation, NEG below zero."""
    correct = undecided = 0
    for tokens, label in zip(heldout, labels):
        total = 0.0
        n = 0
        for word, _ in tokens:
            if word in scores:
                total += scores[word]
                n += 1
        mean = total / n if n else 0.0
        correct += (synth.NEG if mean < 0.0 else synth.POS) == label
        undecided += n == 0
    return correct, undecided


def check_outputs(inputs: Inputs) -> dict:
    """Read every output back and check it; returns accuracy and a digest."""
    out = inputs.out_dir
    try:
        report = _check_report(inputs)
        if inputs.workload == "pmi-20k":
            _require(report.get("config_window") == "10", "report lacks window=10")
            return {"accuracy": float(report["accuracy"]),
                    "digest": _digest(out / "report.txt")}

        lexicon = axis_mod.load_orientation_lexicon(out / "lexicon.tsv")
        correct, undecided = _classify(inputs.heldout, inputs.labels, lexicon.scores)
        _require(correct == int(report["n_correct"]),
                 f"lexicon.tsv classifies {correct} reviews correctly, "
                 f"report says {report['n_correct']}")
        _require(undecided == int(report["n_undecided"]),
                 "lexicon.tsv and report disagree on undecided reviews")
        axis = axis_mod.load_axis(out)
        _require(axis.seed == "excellent", f"axis seed is {axis.seed!r}")
        _require(bool(axis.pos_words) and bool(axis.neg_words), "axis has an empty side")
        if inputs.workload == "train-unsup-2k":
            _require(axis.mode == axis_mod.MODE_UNSUPERVISED, f"axis mode {axis.mode!r}")
            table = load_embeddings(out / "embeddings.txt")
            _require(table.dim == VECTOR_DIM, f"embeddings have dim {table.dim}")
            vocab = inputs.sgns_vocab
            _require(set(table.words) == vocab,
                     "embeddings.txt vocabulary is not the corpus words seen >= min_count times")
            _require(set(lexicon.scores) == vocab, "lexicon.tsv does not cover the vocabulary")
        else:
            _require(axis.mode == axis_mod.MODE_SEMI_SUPERVISED, f"axis mode {axis.mode!r}")
            gold = synth.gold_lexicon()
            _require(all(gold.get(w, 0.0) > 0 for w in axis.pos_words)
                     and all(gold.get(w, 0.0) < 0 for w in axis.neg_words),
                     "semi-supervised axis sides disagree with the gold lexicon")
            _require(set(lexicon.scores) == set(inputs.vector_words),
                     "lexicon.tsv does not cover the vector file's words")
        return {"accuracy": float(report["accuracy"]), "digest": _digest(out / "lexicon.tsv")}
    except CheckError:
        raise
    except (OSError, KeyError, ValueError, SentaxisError) as exc:  # missing or unreadable output
        raise CheckError(f"{type(exc).__name__}: {exc}") from exc
