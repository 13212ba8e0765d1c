"""The suite's corpora come from the benchmark's review grammar
(``perfbench/synth.py``). These digests were taken before the suite shared
that grammar; an edit to it that shifts the suite's data fails here."""

import hashlib

from synthgen import gold_lexicon, make_reviews


def columns_digest(corpus) -> str:
    digest = hashlib.sha256()
    for column in (corpus.words, corpus.tags, corpus.ids, corpus.labels, corpus.source):
        digest.update(repr(column).encode())
    for array in (corpus.word_ids, corpus.tag_ids, corpus.offsets):
        digest.update(array.dtype.str.encode() + array.tobytes())
    return digest.hexdigest()


def test_acceptance_corpus_is_pinned():
    assert columns_digest(make_reviews(2000, seed=11)) == \
        "aebc64b798e4c3074b5ab93b3425edc95fbba02c28441a8b511f0c086ad32bbf"


def test_gold_lexicon_is_pinned():
    assert hashlib.sha256(repr(sorted(gold_lexicon().items())).encode()).hexdigest() == \
        "7cd928ec4fdfb41381838d976ed66192e8b1bc5bc07a29065cdc95db0e2dff7b"
