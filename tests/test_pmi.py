
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sentaxis import pmi
from sentaxis.corpus import NEG, POS, label_for, load_tagged_corpus
from sentaxis.evaluation import EvalReport, evaluate_pmi, pmi_review_means
from sentaxis.errors import EmptyInputError, SeedMissingError
from sentaxis.pmi import (
    NearIndex,
    build_near_index,
    classify_review_pmi,
    so_phrase,
)
from sentaxis.patterns import extract_phrases

from corpus_helpers import documents, join, make_corpus, occurrences, save_tagged_corpus
from synthgen import make_reviews


def words_doc(*words):
    return [(w, "NN") for w in words]


def doc_numbers(index, positions):
    """The indices of the documents holding these slots."""
    return set(index.doc_of[positions].tolist())


def docs_with(index, term):
    return doc_numbers(index, index.positions(term))


def near_docs(index, a, b):
    """NEAR(a, b) documents by index, from the positions and the reach mask the
    index counts them from; the count it records must agree."""
    at = index.positions(a)
    docs = doc_numbers(index, at[index.reach(b)[at]])
    assert index.near_count(a, b) == len(docs)
    return docs


def phrases_of(review):
    return [(w1, w2) for w1, w2, *_ in occurrences(extract_phrases(review))]


def classify(index, phrases):
    """classify_review_pmi with each phrase scored by so_phrase."""
    return classify_review_pmi(phrases, {phrase: so_phrase(index, phrase) for phrase in phrases})


def make_index(near_pos: int, near_neg: int, h_pos: int, h_neg: int,
               phrase=("very", "good"), window: int = 10) -> NearIndex:
    """Toy corpus with exact hit counts for the two seeds and the phrase."""
    assert h_pos >= near_pos and h_neg >= near_neg
    docs = []
    for _ in range(near_pos):
        docs.append(words_doc(phrase[0], phrase[1], "x", "excellent"))
    for _ in range(h_pos - near_pos):
        docs.append(words_doc("excellent", "filler"))
    for _ in range(near_neg):
        docs.append(words_doc(phrase[0], phrase[1], "x", "poor"))
    for _ in range(h_neg - near_neg):
        docs.append(words_doc("poor", "filler"))
    return build_near_index(make_corpus(docs), window=window)


class TestNearIndex:
    def test_gap_within_window_is_hit(self):
        index = build_near_index(make_corpus([words_doc("a", "x", "x", "x", "b")]),
                                 window=10)
        assert near_docs(index, "a", "b") == {0}

    def test_gap_beyond_window_is_not(self):
        tokens = ["a"] + ["x"] * 10 + ["b"]  # positions 0 and 11
        index = build_near_index(make_corpus([words_doc(*tokens)]), window=10)
        assert near_docs(index, "a", "b") == set()

    def test_boundary_exactly_at_window(self):
        tokens = ["a"] + ["x"] * 9 + ["b"]  # positions 0 and 10
        index = build_near_index(make_corpus([words_doc(*tokens)]), window=10)
        assert near_docs(index, "a", "b") == {0}

    def test_near_is_order_free(self):
        index = build_near_index(make_corpus([
            words_doc("b", "x", "a"),
            words_doc("a", "y", "b"),
        ]), window=5)
        assert near_docs(index, "a", "b") == near_docs(index, "b", "a")
        assert near_docs(index, "a", "b") == {0, 1}

    def test_six_document_corpus_matches_scan_oracle(self):
        corpus = make_corpus([
            words_doc("a", "b", "c", "a"),
            words_doc("c", "x", "x", "x", "x", "a"),
            words_doc("b", "b", "b"),
            words_doc("x", "c", "b", "x", "a"),
            words_doc("a", "x", "x", "x", "x", "x", "b"),
            words_doc("c",),
        ])
        window = 3
        index = build_near_index(corpus, window=window)

        # oracle: quadratic scan over every token pair in every document
        def oracle(t1, t2):
            found = set()
            for d, (_, tokens, _) in enumerate(documents(corpus)):
                positions = {tok: [] for tok in (t1, t2)}
                for pos, (word, _) in enumerate(tokens):
                    if word in positions:
                        positions[word].append(pos)
                for p in positions[t1]:
                    for q in positions[t2]:
                        if abs(p - q) <= window:
                            found.add(d)
            return found

        vocabulary = sorted(corpus.words)
        for i, t1 in enumerate(vocabulary):
            for t2 in vocabulary[i + 1:]:
                assert near_docs(index, t1, t2) == oracle(t1, t2), (t1, t2)

    def test_invariant_near_docs_subset_of_doc_hits(self):
        index = make_index(2, 1, 4, 3)
        docs = near_docs(index, ("very", "good"), "excellent")
        assert docs <= docs_with(index, ("very", "good"))
        assert docs <= docs_with(index, "excellent")

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyInputError):
            build_near_index(make_corpus([]))


class TestHits:
    def test_document_level_counting(self):
        corpus = make_corpus([
            words_doc("a", "a", "a"),   # multiplicity inside a doc counts once
            words_doc("a", "b"),
            words_doc("b", "a"),
        ])
        index = build_near_index(corpus)
        assert index.document_count("a") == 3
        assert index.document_count("b") == 2

    def test_unknown_term_is_zero(self):
        index = build_near_index(make_corpus([words_doc("a")]))
        assert index.document_count("zzz") == 0

    def test_phrase_must_be_contiguous(self):
        corpus = make_corpus([
            words_doc("very", "good", "film"),
            words_doc("very", "bad", "good"),  # not contiguous
        ])
        index = build_near_index(corpus)
        assert index.document_count(("very", "good")) == 1

    def test_hand_counted_toy_corpus(self):
        index = make_index(2, 0, 10, 5)
        assert index.document_count("excellent") == 10
        assert index.document_count("poor") == 5
        assert index.document_count(("very", "good")) == 2


class TestSoPhrase:
    def test_balanced_counts_give_zero(self):
        index = make_index(1, 1, 3, 3)
        assert so_phrase(index, ("very", "good")) == 0.0

    def test_four_to_one_ratio_is_two(self):
        index = make_index(4, 1, 5, 5)
        assert so_phrase(index, ("very", "good")) == pytest.approx(2.0, abs=1e-12)

    def test_zero_hit_smoothing_hand_value(self):
        # NEAR(pos)=2, NEAR(neg)=0, H(excellent)=10, H(poor)=5:
        # log2((2*5)/(0.01*10)) = log2(100)
        index = make_index(2, 0, 10, 5)
        assert so_phrase(index, ("very", "good")) == pytest.approx(6.643856189774724, abs=1e-9)

    def test_missing_seed_raises(self):
        index = build_near_index(make_corpus([words_doc("excellent", "fine")]))
        with pytest.raises(SeedMissingError):
            so_phrase(index, ("so", "fine"))  # 'poor' absent

    def test_seed_swap_negates_exactly(self):
        for counts in [(2, 0, 10, 5), (4, 1, 5, 5), (3, 2, 7, 9), (0, 0, 2, 3)]:
            index = make_index(*counts)
            forward = so_phrase(index, ("very", "good"), "excellent", "poor")
            backward = so_phrase(index, ("very", "good"), "poor", "excellent")
            assert backward == -forward

    def test_each_first_word_gathers_its_next_words_once(self, monkeypatch):
        index = build_near_index(make_reviews(60, seed=3), window=10)
        reviews = make_reviews(20, seed=4)
        gathered = []  # the first word of each phrase that gathered next words
        positions = NearIndex.positions

        def spy(self, term):
            before = self._next_words
            found = positions(self, term)
            if self._next_words is not before:
                gathered.append(term[0])
            return found
        monkeypatch.setattr(NearIndex, "positions", spy)
        evaluate_pmi(index, reviews)
        queried = set(phrases_of(reviews))
        assert sorted(gathered) == sorted({w1 for w1, _ in queried})
        # one NEAR pair per phrase and seed, as the benchmark counts them
        assert len(index.near_hits) == 2 * len(queried)

    def test_monotone_in_positive_near_hits(self):
        values = [so_phrase(make_index(k, 1, 6, 6), ("very", "good"))
                  for k in range(0, 6)]
        assert values == sorted(values)


class TestPhraseAnchoring:
    def test_phrase_proximity_measured_from_first_token(self):
        # anchor at position 0; 'excellent' at position 11: beyond window 10
        # only if the anchor (not the phrase's second token) is the reference
        tokens = ["very", "good"] + ["x"] * 9 + ["excellent"]
        index = build_near_index(make_corpus([words_doc(*tokens)]), window=10)
        assert near_docs(index, ("very", "good"), "excellent") == set()

    def test_phrase_hit_at_exact_window_from_anchor(self):
        tokens = ["very", "good"] + ["x"] * 8 + ["excellent"]  # anchor 0, seed 10
        index = build_near_index(make_corpus([words_doc(*tokens)]), window=10)
        assert near_docs(index, ("very", "good"), "excellent") == {0}


class TestClassifyReview:
    def review(self, *pairs, label=None):
        return make_corpus([list(pairs)], labels=[label] if label else None)

    def test_negative_phrase_labels_neg(self):
        # phrase near 'poor' only: so < 0
        index = make_index(0, 3, 4, 4)
        review = self.review(("very", "RB"), ("good", "JJ"), (".", "."))
        result = classify(index, phrases_of(review))
        assert label_for(result.mean_so) == NEG
        assert result.n_phrases == 1
        assert not result.no_phrase

    def test_no_phrase_labels_pos_with_flag(self):
        index = make_index(1, 1, 2, 2)
        review = self.review(("the", "DT"), ("film", "NN"), (".", "."))
        result = classify(index, phrases_of(review))
        assert label_for(result.mean_so) == POS
        assert result.no_phrase
        assert result.mean_so == 0.0

    def test_ten_review_fixture_matches_hand_means(self):
        # one positive-leaning and one negative-leaning phrase with known so
        index = build_near_index(make_corpus(
            [words_doc("very", "good", "excellent")] * 4
            + [words_doc("very", "good", "poor")]
            + [words_doc("truly", "bad", "poor")] * 4
            + [words_doc("truly", "bad", "excellent")]
        ), window=10)
        so_good = so_phrase(index, ("very", "good"))      # log2(4/1): +2
        so_bad = so_phrase(index, ("truly", "bad"))       # log2(1/4): -2
        assert so_good == pytest.approx(2.0)
        assert so_bad == pytest.approx(-2.0)

        cases = []
        for k in range(11):
            pairs = [("very", "RB"), ("good", "JJ"), (".", ".")] * k \
                + [("truly", "RB"), ("bad", "JJ"), (".", ".")] * (10 - k)
            mean = (k * so_good + (10 - k) * so_bad) / 10
            cases.append((pairs, NEG if mean < 0 else POS))
        for pairs, expected in cases:
            result = classify(index, phrases_of(self.review(*pairs)))
            assert label_for(result.mean_so) == expected

    def test_cancelling_phrases_label_pos_and_are_decided(self):
        # "very good" is NEAR excellent and "truly bad" NEAR poor equally often
        index = build_near_index(make_corpus(
            [words_doc("very", "good", "excellent")] * 2
            + [words_doc("truly", "bad", "poor")] * 2), window=10)
        assert so_phrase(index, ("very", "good")) == -so_phrase(index, ("truly", "bad"))
        review = self.review(("very", "RB"), ("good", "JJ"), (".", "."),
                             ("truly", "RB"), ("bad", "JJ"), (".", "."), label=NEG)
        result = classify(index, phrases_of(review))
        assert (result.mean_so, result.n_phrases) == (0.0, 2)
        assert label_for(result.mean_so) == POS and not result.no_phrase
        report = evaluate_pmi(index, review)
        assert report.confusion == ((0, 0), (1, 0))
        assert report.n_undecided == 0

    def test_orientations_are_looked_up_not_scored(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a phrase was scored")
        monkeypatch.setattr(pmi, "so_phrase", refuse)
        phrases = [("very", "good"), ("truly", "bad"), ("very", "good")]
        orientations = {("very", "good"): 0.5, ("truly", "bad"): -2.0}
        result = classify_review_pmi(phrases, orientations)
        assert (result.mean_so, result.n_phrases) == ((0.5 - 2.0 + 0.5) / 3, 3)
        with pytest.raises(KeyError):
            classify_review_pmi([("so", "fine")], orientations)


VOCABULARY = ("a", "b", "c", "d", "e")


def scan_positions(tokens, term):
    """Anchor positions of a word or contiguous phrase in one document."""
    if isinstance(term, str):
        return [i for i, t in enumerate(tokens) if t == term]
    return [i for i in range(len(tokens) - 1) if (tokens[i], tokens[i + 1]) == term]


def scan_oracle(docs, window, a, b):
    """Per-document positions of a, b and their in-window pairs, by brute force."""
    rows = []
    for i, tokens in enumerate(docs):
        pos_a, pos_b = scan_positions(tokens, a), scan_positions(tokens, b)
        pairs = sum(1 for p in pos_a for q in pos_b if abs(p - q) <= window)
        rows.append((i, pos_a, pos_b, pairs))
    return rows


terms = st.one_of(
    st.sampled_from(VOCABULARY + ("zz",)),
    st.tuples(st.sampled_from(VOCABULARY + ("zz",)), st.sampled_from(VOCABULARY + ("zz",))),
)


class TestArrayIndexAgainstScan:
    @given(vocabulary_size=st.integers(1, 5),
           raw_docs=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=12),
                             min_size=1, max_size=6),
           window=st.integers(1, 15), a=terms, b=terms)
    def test_every_query_matches_scan(self, vocabulary_size, raw_docs, window, a, b):
        docs = [[VOCABULARY[i % vocabulary_size] for i in raw] for raw in raw_docs]
        index = build_near_index(make_corpus([words_doc(*d) for d in docs]), window=window)
        rows = scan_oracle(docs, window, a, b)
        near = {doc_id for doc_id, _, _, pairs in rows if pairs}
        with_a = {doc_id for doc_id, pos_a, _, _ in rows if pos_a}
        assert near_docs(index, a, b) == near
        assert near_docs(index, b, a) == near
        assert docs_with(index, a) == with_a
        assert len(index.positions(a)) == sum(len(pos_a) for _, pos_a, _, _ in rows)
        assert index.document_count(a) == len(with_a)

    def test_phrase_does_not_run_across_documents(self):
        # 'b' ends the first document and starts the second
        index = build_near_index(make_corpus([words_doc("a", "b"), words_doc("b", "a")]),
                                 window=15)
        assert index.document_count(("b", "b")) == 0
        assert index.document_count(("a", "b")) == 1
        assert near_docs(index, ("b", "a"), "zz") == set()

    def test_unknown_words(self):
        index = build_near_index(make_corpus([words_doc("a", "b", "a")]), window=2)
        assert docs_with(index, "zz") == set()
        assert index.document_count(("a", "zz")) == 0
        assert index.document_count(("zz", "a")) == 0
        assert near_docs(index, ("a", "zz"), "b") == set()
        assert near_docs(index, "zz", "a") == set()

    def test_huge_window_pads_by_the_longest_document(self):
        docs = [words_doc("a", "b", "c"), words_doc("c",), words_doc("b", "x", "x", "a", "x")]
        index = build_near_index(make_corpus(docs), window=10**9)
        assert index.pad == 5
        assert len(index.terms) == 9 + 3 * 5
        assert near_docs(index, "a", "c") == {0}
        assert near_docs(index, "a", "b") == {0, 2}


class TestIndexSizesReadByTheBenchmark:
    """The benchmark's tracing reads len(index.postings) and len(index.near_hits)."""

    def test_postings_and_near_hits_sizes(self):
        train = make_reviews(60, seed=3)
        index = build_near_index(train, window=10)
        words = {word for _, tokens, _ in documents(train) for word, _ in tokens}
        assert len(index.postings) == len(words)
        reviews = make_reviews(20, seed=4)
        evaluate_pmi(index, reviews)
        queried = set(phrases_of(reviews))
        assert queried
        assert len(index.near_hits) == 2 * len(queried)



def naive_layout(docs, window):
    """terms, doc_of, term_ids and postings built one document at a time."""
    term_ids = {}
    for tokens in docs:
        for token in tokens:
            term_ids.setdefault(token, len(term_ids))
    pad = min(window, max(len(tokens) for tokens in docs))
    terms, doc_of = [], []
    for i, tokens in enumerate(docs):
        terms += [term_ids[t] for t in tokens] + [len(term_ids)] * pad
        doc_of += [i] * (len(tokens) + pad)
    postings = {term: [p for p, t in enumerate(terms) if t == term_id]
                for term, term_id in term_ids.items()}
    return terms, doc_of, term_ids, postings


class TestIndexLayout:
    @given(raw_docs=st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=12),
                             min_size=1, max_size=8),
           window=st.one_of(st.integers(1, 15), st.just(10**6)))
    def test_arrays_match_a_per_document_construction(self, raw_docs, window):
        docs = [["abcdefg"[i] for i in raw] for raw in raw_docs]
        index = NearIndex(make_corpus([words_doc(*d) for d in docs]), window)
        terms, doc_of, term_ids, postings = naive_layout(docs, window)
        assert index.terms.dtype == index.doc_of.dtype == np.int32
        assert index.terms.tolist() == terms
        assert index.doc_of.tolist() == doc_of
        assert index.term_ids == term_ids
        assert list(index.term_ids) == list(term_ids)
        assert {t: p.tolist() for t, p in index.postings.items()} == postings

    def test_term_ids_are_the_corpus_word_ids(self, tmp_path):
        path = tmp_path / "c.tsv"
        save_tagged_corpus(make_reviews(30, seed=8), path)
        corpus = load_tagged_corpus(path)
        index = build_near_index(corpus, window=4)
        assert index.term_ids == {word: i for i, word in enumerate(corpus.words)}
        assert list(index.term_ids) == list(corpus.words)
        assert index.terms[index.terms < len(corpus.words)].tolist() == corpus.word_ids.tolist()

    def test_vocabulary_beyond_16_bits_keeps_every_posting(self):
        # 70,000 terms do not fit 16-bit sort keys; each document is
        # (w<k>, shared) plus two padding slots
        n = 70_000
        index = NearIndex(make_corpus([words_doc(f"w{k}", "shared") for k in range(n)]), 10)
        assert len(index.postings) == n + 1 > 2**16
        assert index.postings["shared"].tolist() == list(range(1, 4 * n, 4))
        assert [index.postings[f"w{k}"].tolist() for k in range(n)] == [[4 * k] for k in range(n)]


def scan_hits(docs, term):
    """Documents holding a word or contiguous phrase, by brute force."""
    return sum(1 for tokens in docs if scan_positions(tokens, term))


def scan_near(docs, window, a, b):
    """Documents with an in-window pair of a and b, by brute force."""
    return sum(1 for *_, pairs in scan_oracle(docs, window, a, b) if pairs)


SO_WORDS = ("a", "b", "p", "n")  # p and n are the seeds; z never occurs
so_terms = st.sampled_from(SO_WORDS + ("z",))


class TestSoPhraseAgainstScan:
    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(raw_docs=st.lists(st.lists(st.sampled_from(SO_WORDS), min_size=1, max_size=9),
                             min_size=1, max_size=6),
           window=st.one_of(st.integers(1, 11), st.just(10**6)),
           phrase=st.tuples(so_terms, so_terms), seeds=st.tuples(so_terms, so_terms))
    # a phrase ending a document right after a seed; a seed right after a
    # phrase, one slot beyond the window and then in it; a phrase holding a
    # seed; an absent second word; an absent seed
    @example(raw_docs=[["b", "n", "a", "b"], ["p", "a"]], window=1, phrase=("a", "b"),
             seeds=("p", "n"))
    @example(raw_docs=[["a", "b", "p"], ["n", "a", "b"]], window=1, phrase=("a", "b"),
             seeds=("p", "n"))
    @example(raw_docs=[["a", "b", "p"], ["n", "a", "b"]], window=2, phrase=("a", "b"),
             seeds=("p", "n"))
    @example(raw_docs=[["n", "p", "a"], ["a", "b", "p"]], window=1, phrase=("p", "a"),
             seeds=("p", "n"))
    @example(raw_docs=[["a", "p", "n"]], window=2, phrase=("a", "z"), seeds=("p", "n"))
    @example(raw_docs=[["a", "b", "p"]], window=2, phrase=("a", "b"), seeds=("p", "z"))
    def test_near_counts_and_so_phrase_match_scan(self, raw_docs, window, phrase, seeds):
        docs = [list(tokens) for tokens in raw_docs]
        index = build_near_index(make_corpus([words_doc(*d) for d in docs]), window=window)
        pos_seed, neg_seed = seeds
        queries = [(phrase, pos_seed), (phrase, neg_seed), (pos_seed, phrase), (phrase, phrase),
                   (phrase[0], phrase[0]), (phrase[1], pos_seed), (pos_seed, neg_seed)]
        for a, b in queries:
            assert index.near_count(a, b) == scan_near(docs, window, a, b), (a, b)
            assert index.document_count(a) == scan_hits(docs, a), a
        seed_counts = scan_hits(docs, pos_seed), scan_hits(docs, neg_seed)
        if not all(seed_counts):
            with pytest.raises(SeedMissingError):
                so_phrase(index, phrase, pos_seed, neg_seed)
            return
        near_pos, near_neg = (scan_near(docs, window, phrase, seed) or 0.01 for seed in seeds)
        assert so_phrase(index, phrase, pos_seed, neg_seed) == (
            math.log2(near_pos * seed_counts[1]) - math.log2(near_neg * seed_counts[0]))


def test_evaluate_pmi_matches_a_per_review_reference():
    train = make_reviews(80, seed=5)
    reviews = join([make_reviews(30, seed=6),
                    make_corpus([[("zzz", "NN")]], labels=[NEG])])  # no phrase
    report = evaluate_pmi(build_near_index(train, window=4), reviews)
    means = pmi_review_means(build_near_index(train, window=4), reviews, "excellent", "poor")
    # each review extracted alone, each phrase scored on a fresh index
    confusion = {(gold, pred): 0 for gold in (POS, NEG) for pred in (POS, NEG)}
    undecided = 0
    expected_means = []
    for _, tokens, gold in documents(reviews):
        values = [so_phrase(build_near_index(train, window=4), phrase)
                  for phrase in phrases_of(make_corpus([tokens]))]
        expected_means.append((sum(values) / len(values) if values else 0.0, len(values)))
        confusion[gold, label_for(expected_means[-1][0])] += 1
        undecided += not values
    assert means == expected_means
    n_correct = confusion[POS, POS] + confusion[NEG, NEG]
    assert report == EvalReport(
        accuracy=n_correct / len(reviews), n_total=len(reviews), n_correct=n_correct,
        n_pos_gold=reviews.labels.count(POS), n_neg_gold=reviews.labels.count(NEG),
        n_undecided=undecided,
        confusion=((confusion[POS, POS], confusion[POS, NEG]),
                   (confusion[NEG, POS], confusion[NEG, NEG])))
    assert undecided == 1 and 0 < n_correct < len(reviews)
