"""Bounds on the transient memory of the stages that handle a whole corpus
or vocabulary at once, read as tracemalloc peaks (numpy reports its
array buffers to tracemalloc)."""

import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sentaxis import corpus as corpus_mod
from sentaxis import sgns
from sentaxis.axis import MODE_UNSUPERVISED, SentimentAxis, score_vocabulary
from sentaxis.corpus import POS, TaggedCorpus, load_tagged_corpus
from sentaxis.evaluation import evaluate_pmi
from sentaxis.patterns import extract_phrases
from sentaxis.pmi import NearIndex
from sentaxis.vectors import EmbeddingTable

from corpus_helpers import make_corpus, save_tagged_corpus
from synthgen import make_reviews


def traced_peak(fn, *args):
    """fn(*args) and the most memory it held at once, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    """A format-A file of about 0.5 MB: 1,200 generated reviews."""
    path = tmp_path_factory.mktemp("memory") / "c.tsv"
    save_tagged_corpus(make_reviews(400, seed=2), path)
    path.write_bytes(path.read_bytes() * 3)
    return path


def test_format_a_load_holds_a_few_times_the_file(corpus_file, monkeypatch):
    # the file spans several pieces: its bytes and its decoded text (2x),
    # the line and token id arrays and one piece's lines; splitting the
    # whole text at once holds about 10x
    monkeypatch.setattr(corpus_mod, "PIECE_CHARS", 1 << 16)
    _, peak = traced_peak(load_tagged_corpus, corpus_file)
    assert peak < 5 * corpus_file.stat().st_size


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_format_a_kernel_route_holds_under_three_times_the_file(corpus_file, monkeypatch):
    # the file's bytes, one int32 id a line (0.5x here) and then the
    # columns: 2x. A (start, end) span a line would add 2x, and so would a
    # hash table with a slot a line at most half full
    assert corpus_mod._load_interner() is not None

    def refuse(text):
        raise AssertionError("the file was split by str.splitlines")
    monkeypatch.setattr(corpus_mod, "_lines", refuse)
    _, peak = traced_peak(load_tagged_corpus, corpus_file)
    assert peak < 3 * corpus_file.stat().st_size


def test_loaded_corpus_keeps_no_object_per_token(corpus_file):
    # int32 word ids, small tag ids, offsets, one id string a document and
    # the distinct words: about 7 bytes a token; a tuple of token objects per
    # document took 11
    tracemalloc.start()
    try:
        corpus = load_tagged_corpus(corpus_file)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n_tokens = len(corpus.word_ids)
    assert kept < 10 * n_tokens


def test_near_index_holds_its_arrays_and_little_more(corpus_file):
    corpus = load_tagged_corpus(corpus_file)
    n_tokens = len(corpus.word_ids)
    _, peak = traced_peak(NearIndex, corpus, 10)
    # terms and doc_of (4 bytes a slot) and the sorted positions (8 bytes a
    # slot) are kept: 16 bytes a slot, 19 a token here; per-token Python
    # lists or int64 temporaries would add 20 more
    assert peak < 24 * n_tokens


def test_extracted_phrases_keep_their_positions_only():
    # an int64 first-token index and a rule number an occurrence, with the
    # corpus they index; a tuple an occurrence, with its strings, kept 96 bytes
    corpus = make_reviews(2000, seed=1)
    tracemalloc.start()
    try:
        phrases = extract_phrases(corpus)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(phrases) > 10_000
    assert kept <= 16 * len(phrases)


def test_score_vocabulary_never_squares_the_whole_table():
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((20_000, 100))
    table = EmbeddingTable([f"w{i}" for i in range(len(matrix))], matrix)
    axis = SentimentAxis(pos_words=("w0",), neg_words=("w1",), vec_pos=matrix[0],
                         vec_neg=matrix[1], seed="w0", mode=MODE_UNSUPERVISED)
    lexicon, peak = traced_peak(score_vocabulary, axis, table)
    assert len(lexicon.scores) == len(matrix)
    assert peak < matrix.nbytes / 4


def adjective_corpus(n_docs, length, rng):
    """``n_docs`` documents of ``length`` random adjectives, seeds among them."""
    words = tuple(f"a{k}" for k in range(40)) + ("excellent", "poor")
    return TaggedCorpus(words, ("JJ",), rng.integers(0, len(words), n_docs * length, np.int32),
                        np.zeros(n_docs * length, np.uint8),
                        np.arange(0, n_docs * length + 1, length, dtype=np.int64),
                        tuple(f"d{i}" for i in range(n_docs)), (None,) * n_docs)


def test_pmi_evaluation_holds_two_reach_masks_and_one_first_word():
    # every token is the first word of some held-out phrase: the two seeds'
    # reach masks (a byte a slot each) and the count a mask is built from
    # (another byte) are 3 bytes a slot, under the bound of 4; next-word
    # arrays for every first word at once would add 4 bytes a token, 3.3 a slot
    index = NearIndex(adjective_corpus(4000, 40, np.random.default_rng(4)), 10)
    words = tuple(index.term_ids)
    reviews = make_corpus([[(w, "JJ"), (words[(k + 1) % len(words)], "JJ"), (".", ".")]
                           for k, w in enumerate(words)], labels=[POS] * len(words))
    report, peak = traced_peak(evaluate_pmi, index, reviews)
    assert report.n_total == len(words) and report.n_undecided == 0
    assert peak < 4 * len(index.terms)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_sgns_kernel_holds_no_more_for_one_long_document():
    # the kernel draws each center's noise words when it reaches the center,
    # so the same tokens as one document hold about what they hold as 2,000;
    # drawing a whole document's noise words at once held 24x more
    assert sgns._load_kernel() is not None
    corpus = make_reviews(2000, seed=1)
    one_document = replace(corpus, offsets=np.array([0, len(corpus.word_ids)]), ids=("all",),
                           labels=(None,))
    peaks = []
    for documents in (corpus, one_document):
        table, peak = traced_peak(sgns.train_sgns, documents, sgns.SgnsConfig(epochs=1))
        assert table.metadata["sgns_kernel"] == "c"
        peaks.append(peak)
    assert peaks[1] <= 1.5 * peaks[0]
