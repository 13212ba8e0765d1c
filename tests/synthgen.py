"""Deterministic synthetic movie-review generator for desk-scale runs.

Reviews are pre-tagged token sequences built from sentence templates whose
polar adjectives, adverb intensifiers and context nouns are drawn from
label-conditioned distributions with controlled crossover noise. Same-polarity
adjective coordinations ("charming and fresh") give each polarity class dense
internal co-occurrence, so embedding geometry can separate the classes, while
the seed words excellent/poor are kept rare so proximity-based hit counts stay
sparse, as they would be on real desk-scale data.
"""

from __future__ import annotations

import numpy as np

from sentaxis.corpus import NEG, POS, PolarityLexicon, TaggedCorpus

from corpus_helpers import make_corpus

POSITIVE_ADJECTIVES = [
    "wonderful", "superb", "brilliant", "charming", "delightful",
    "gripping", "fresh", "good", "great", "enjoyable", "moving",
]
NEGATIVE_ADJECTIVES = [
    "awful", "terrible", "dreadful", "boring", "bland",
    "clumsy", "tedious", "weak", "bad", "lame", "shallow",
]
#: Seed words live outside the common pools and appear at a low rate.
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

#: Probability that a polar word agrees with the review's label.
LABEL_CONSISTENCY = 0.9


def _adjective(rng, label: str) -> str:
    agree = rng.random() < LABEL_CONSISTENCY
    positive = (label == POS) == agree
    if rng.random() < SEED_RATE:
        return POS_SEED_WORD if positive else NEG_SEED_WORD
    pool = POSITIVE_ADJECTIVES if positive else NEGATIVE_ADJECTIVES
    return pool[rng.integers(len(pool))]


def _polar_noun(rng, label: str) -> str:
    agree = rng.random() < LABEL_CONSISTENCY
    pool = POSITIVE_NOUNS if (label == POS) == agree else NEGATIVE_NOUNS
    return pool[rng.integers(len(pool))]


def _pick(rng, pool):
    return pool[rng.integers(len(pool))]


def _sentence(rng, label: str) -> list[tuple[str, str]]:
    template = rng.integers(6)
    noun = _pick(rng, NEUTRAL_NOUNS)
    verb = _pick(rng, PAST_VERBS)
    if template == 0:
        # "the plot was very good ." -> RB+JJ bigram, third word not a noun
        return [("the", "DT"), (noun, "NN"), (verb, "VBD"),
                (_pick(rng, INTENSIFIERS), "RB"), (_adjective(rng, label), "JJ"),
                (".", ".")]
    if template == 1:
        # "a good movie ." -> JJ+NN bigram
        return [("a", "DT"), (_adjective(rng, label), "JJ"), (noun, "NN"), (".", ".")]
    if template == 2:
        # label-correlated context noun, no extractable bigram
        return [("this", "DT"), (noun, "NN"), ("is", "VBZ"), ("a", "DT"),
                (_polar_noun(rng, label), "NN"), (".", ".")]
    if template in (3, 4):
        # same-polarity coordination: "the cast felt charming and fresh ."
        return [("the", "DT"), (noun, "NN"), (verb, "VBD"),
                (_adjective(rng, label), "JJ"), ("and", "CC"),
                (_adjective(rng, label), "JJ"), (".", ".")]
    # plain filler sentence
    return [("the", "DT"), (noun, "NN"), ("and", "CC"), ("the", "DT"),
            (_pick(rng, NEUTRAL_NOUNS), "NN"), (verb, "VBD"), ("there", "RB"),
            (".", ".")]


def make_reviews(n_reviews: int, seed: int) -> TaggedCorpus:
    """Balanced labeled corpus: n/2 positive then n/2 negative reviews."""
    rng = np.random.default_rng(seed)
    token_lists = []
    labels = []
    for k in range(n_reviews):
        label = POS if k < n_reviews / 2 else NEG
        tokens: list[tuple[str, str]] = []
        for _ in range(rng.integers(6, 11)):
            tokens.extend(_sentence(rng, label))
        token_lists.append(tokens)
        labels.append(label)
    return make_corpus(token_lists, labels=labels, source=f"synthetic(seed={seed})")


def gold_lexicon() -> PolarityLexicon:
    """Ground-truth polarity scores for the polar adjectives only."""
    entries = {POS_SEED_WORD: 2.5, NEG_SEED_WORD: -2.5}
    for i, word in enumerate(POSITIVE_ADJECTIVES):
        entries[word] = 1.0 + 0.1 * i
    for i, word in enumerate(NEGATIVE_ADJECTIVES):
        entries[word] = -(1.0 + 0.1 * i)
    return PolarityLexicon(entries=entries)
