"""Seeded input generator for the benchmark.

The review grammar is a frozen copy of the synthetic movie-review grammar the
test suite uses, kept here so that edits to the tests cannot shift the
benchmark's inputs. Reviews are pre-tagged token sequences built from sentence
templates whose polar adjectives, adverb intensifiers and context nouns are
drawn from label-conditioned distributions with controlled crossover noise.

Everything is a function of the seed: the same seed gives byte-identical
files.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

POS = "POS"
NEG = "NEG"

POSITIVE_ADJECTIVES = [
    "wonderful", "superb", "brilliant", "charming", "delightful",
    "gripping", "fresh", "good", "great", "enjoyable", "moving",
]
NEGATIVE_ADJECTIVES = [
    "awful", "terrible", "dreadful", "boring", "bland",
    "clumsy", "tedious", "weak", "bad", "lame", "shallow",
]
POS_SEED_WORD = "excellent"
NEG_SEED_WORD = "poor"
SEED_RATE = 0.08

INTENSIFIERS = ["very", "truly", "really", "quite", "extremely", "rather"]
POSITIVE_NOUNS = ["masterpiece", "gem", "triumph", "delight", "treat", "winner"]
NEGATIVE_NOUNS = ["mess", "disaster", "failure", "bore", "chore", "dud"]
NEUTRAL_NOUNS = [
    "movie", "film", "story", "plot", "acting", "cast", "script",
    "scene", "ending", "director", "pacing", "dialogue",
]
PAST_VERBS = ["was", "felt", "seemed", "looked", "stayed"]

LABEL_CONSISTENCY = 0.9

# Independent random streams per generated file, so that changing one file's
# size does not change another's content.
STREAM_TRAIN = 1
STREAM_HELDOUT = 2
STREAM_VECTORS = 3


def _pick(rng, pool):
    return pool[rng.integers(len(pool))]


def _adjective(rng, label: str) -> str:
    agree = rng.random() < LABEL_CONSISTENCY
    positive = (label == POS) == agree
    if rng.random() < SEED_RATE:
        return POS_SEED_WORD if positive else NEG_SEED_WORD
    return _pick(rng, POSITIVE_ADJECTIVES if positive else NEGATIVE_ADJECTIVES)


def _polar_noun(rng, label: str) -> str:
    agree = rng.random() < LABEL_CONSISTENCY
    return _pick(rng, POSITIVE_NOUNS if (label == POS) == agree else NEGATIVE_NOUNS)


def _sentence(rng, label: str) -> list[tuple[str, str]]:
    template = rng.integers(6)
    noun = _pick(rng, NEUTRAL_NOUNS)
    verb = _pick(rng, PAST_VERBS)
    if template == 0:
        return [("the", "DT"), (noun, "NN"), (verb, "VBD"),
                (_pick(rng, INTENSIFIERS), "RB"), (_adjective(rng, label), "JJ"),
                (".", ".")]
    if template == 1:
        return [("a", "DT"), (_adjective(rng, label), "JJ"), (noun, "NN"), (".", ".")]
    if template == 2:
        return [("this", "DT"), (noun, "NN"), ("is", "VBZ"), ("a", "DT"),
                (_polar_noun(rng, label), "NN"), (".", ".")]
    if template in (3, 4):
        return [("the", "DT"), (noun, "NN"), (verb, "VBD"),
                (_adjective(rng, label), "JJ"), ("and", "CC"),
                (_adjective(rng, label), "JJ"), (".", ".")]
    return [("the", "DT"), (noun, "NN"), ("and", "CC"), ("the", "DT"),
            (_pick(rng, NEUTRAL_NOUNS), "NN"), (verb, "VBD"), ("there", "RB"),
            (".", ".")]


def make_reviews(n_reviews: int, seed: int, stream: int):
    """Balanced labeled reviews: n/2 positive then n/2 negative.

    Returns (token_lists, labels); each token list holds (word, tag) pairs.
    """
    rng = np.random.default_rng([seed, stream])
    token_lists = []
    labels = []
    for k in range(n_reviews):
        label = POS if k < n_reviews / 2 else NEG
        tokens: list[tuple[str, str]] = []
        for _ in range(rng.integers(6, 11)):
            tokens.extend(_sentence(rng, label))
        token_lists.append(tokens)
        labels.append(label)
    return token_lists, labels


def gold_lexicon() -> dict[str, float]:
    """Ground-truth polarity scores for the polar adjectives only."""
    entries = {POS_SEED_WORD: 2.5, NEG_SEED_WORD: -2.5}
    for i, word in enumerate(POSITIVE_ADJECTIVES):
        entries[word] = 1.0 + 0.1 * i
    for i, word in enumerate(NEGATIVE_ADJECTIVES):
        entries[word] = -(1.0 + 0.1 * i)
    return entries


def token_counts(token_lists) -> Counter:
    return Counter(word for tokens in token_lists for word, _ in tokens)


def write_corpus(token_lists, path: Path) -> None:
    """One ``token<TAB>TAG`` per line, a blank line between documents."""
    docs = ("\n".join(f"{w}\t{t}" for w, t in tokens) for tokens in token_lists)
    path.write_text("\n\n".join(docs) + "\n", encoding="utf-8")


def write_reviews(token_lists, labels, path: Path) -> None:
    """``LABEL<TAB>token_TAG token_TAG ...``, one review per line."""
    lines = (f"{label}\t" + " ".join(f"{w}_{t}" for w, t in tokens)
             for tokens, label in zip(token_lists, labels))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_gold(path: Path) -> None:
    lines = [f"{w}\t{s!r}" for w, s in sorted(gold_lexicon().items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_vectors(corpus_words, n_rows: int, dim: int, seed: int, path: Path) -> list[str]:
    """Pre-trained-style vector file of ``n_rows`` words.

    Each corpus word is sign(gold polarity) times a fixed unit direction plus
    N(0, 0.3^2) noise per component (words without gold polarity are noise
    only); the remaining rows are noise-only filler words. Returns the words
    in file order.
    """
    rng = np.random.default_rng([seed, STREAM_VECTORS])
    gold = gold_lexicon()
    corpus_words = sorted(corpus_words)
    filler = [f"filler{i:06d}" for i in range(n_rows - len(corpus_words))]
    words = corpus_words + filler
    direction = np.zeros(dim)
    direction[0] = 1.0
    matrix = rng.normal(0.0, 0.3, size=(n_rows, dim))
    for row, word in enumerate(corpus_words):
        matrix[row] += np.sign(gold.get(word, 0.0)) * direction
    order = rng.permutation(n_rows)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{n_rows} {dim}\n")
        for row in order:
            fh.write(words[row] + " " + " ".join(f"{v:.6f}" for v in matrix[row]) + "\n")
    return [words[row] for row in order]
