"""Deterministic synthetic movie-review corpora for desk-scale test runs.

The review grammar is the benchmark's (``perfbench/synth.py``): pre-tagged
sentences whose polar adjectives, intensifiers and context nouns follow the
review's label with controlled crossover noise, and whose seed words
excellent/poor are rare. The tests seed one generator with ``seed`` where the
benchmark seeds one with ``[seed, stream]``, so no test corpus is a benchmark
input, and return a :class:`TaggedCorpus` and a word -> polarity dict.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from sentaxis.corpus import NEG, POS, TaggedCorpus

from corpus_helpers import make_corpus

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import synth
finally:
    sys.path.remove(PERFBENCH)


def make_reviews(n_reviews: int, seed: int) -> TaggedCorpus:
    """Balanced labeled corpus: n/2 positive then n/2 negative reviews."""
    rng = np.random.default_rng(seed)
    labels = [POS if k < n_reviews / 2 else NEG for k in range(n_reviews)]
    token_lists = [[pair for _ in range(rng.integers(6, 11))
                    for pair in synth._sentence(rng, label)] for label in labels]
    return make_corpus(token_lists, labels=labels, source=f"synthetic(seed={seed})")


#: Ground-truth polarity scores for the polar adjectives only, a new dict a call.
gold_lexicon = synth.gold_lexicon
