from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sentaxis import corpus as corpus_mod
from sentaxis.corpus import (
    FORMAT_INLINE,
    FORMAT_ONE_TOKEN_PER_LINE,
    NEG,
    POS,
    load_labeled_reviews,
    load_polarity_lexicon,
    load_tagged_corpus,
)
from sentaxis.errors import ConfigError, EmptyInputError, ParseError
from sentaxis.sgns import _build_vocab

from corpus_helpers import documents, make_corpus, save_tagged_corpus
from synthgen import make_reviews


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTaggedCorpus:
    def test_blank_line_delimits_documents(self, tmp_path):
        path = write(tmp_path, "c.tsv", "good\tJJ\nmovie\tNN\n\nbad\tJJ\nfilm\tNN")
        corpus = load_tagged_corpus(path)
        assert len(corpus) == 2
        assert [len(tokens) for _, tokens, _ in documents(corpus)] == [2, 2]
        assert documents(corpus)[0][1][0] == ("good", "JJ")

    def test_missing_tag_is_parse_error_with_line(self, tmp_path):
        path = write(tmp_path, "c.tsv", "good\tJJ\ngood\nmovie\tNN")
        with pytest.raises(ParseError) as err:
            load_tagged_corpus(path)
        assert err.value.line == 2

    def test_tokens_are_lowercased(self, tmp_path):
        path = write(tmp_path, "c.tsv", "Good\tJJ\nMOVIE\tNN")
        corpus = load_tagged_corpus(path)
        assert corpus.words == ("good", "movie")

    def test_empty_file_raises(self, tmp_path):
        path = write(tmp_path, "c.tsv", "\n\n")
        with pytest.raises(EmptyInputError):
            load_tagged_corpus(path)

    def test_inline_format(self, tmp_path):
        path = write(tmp_path, "c.txt", "good_JJ movie_NN\nbad_JJ film_NN\n")
        corpus = load_tagged_corpus(path, FORMAT_INLINE)
        assert len(corpus) == 2
        assert documents(corpus)[1][1][0] == ("bad", "JJ")

    def test_inline_underscore_in_token(self, tmp_path):
        # tag follows the last underscore
        path = write(tmp_path, "c.txt", "spider_man_NNP swings_VBZ\n")
        corpus = load_tagged_corpus(path, FORMAT_INLINE)
        assert documents(corpus)[0][1][0] == ("spider_man", "NNP")

    def test_inline_missing_tag_is_parse_error(self, tmp_path):
        path = write(tmp_path, "c.txt", "good_JJ movie\n")
        with pytest.raises(ParseError) as err:
            load_tagged_corpus(path, FORMAT_INLINE)
        assert err.value.line == 1

    @pytest.mark.parametrize("format,data,line", [
        (FORMAT_ONE_TOKEN_PER_LINE, b"good\tJJ\r\n\r\n\xff\tNN\n", 3),
        (FORMAT_INLINE, b"good_JJ movie_NN\nbad_JJ caf\xe9_NN\n", 2),  # Latin-1
    ], ids=[FORMAT_ONE_TOKEN_PER_LINE, FORMAT_INLINE])
    def test_undecodable_byte_names_its_line(self, tmp_path, format, data, line):
        path = tmp_path / "c.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load_tagged_corpus(path, format)
        assert err.value.line == line
        assert str(err.value).startswith(f"{path}:{line}: byte 0x")

    def test_hundred_reviews_match_line_count_oracle(self, tmp_path):
        # the oracle counts lines of the raw text, independent of the parser
        reviews = make_reviews(100, seed=5)
        text = "\n\n".join(
            "\n".join(f"{w}\t{t}" for w, t in tokens) for _, tokens, _ in documents(reviews)
        )
        path = write(tmp_path, "imdb100.tsv", text)
        corpus = load_tagged_corpus(path)
        nonblank = sum(1 for line in text.splitlines() if line.strip())
        assert len(corpus) == 100
        assert corpus.offsets[-1] == len(corpus.word_ids) == nonblank


class TestRepeatedLines:
    """Each distinct line or piece is parsed once; results must not depend on it."""

    def test_format_a_matches_cache_free_parse(self, tmp_path):
        reviews = make_reviews(80, seed=9)
        text = "\n\n".join(
            "\n".join(f"{w.upper()}\t{t} " for w, t in tokens)
            for _, tokens, _ in documents(reviews)
        ) + "\n \n\n"
        expected = [
            tuple((word.strip().lower(), tag.strip())
                  for word, tag in (line.split("\t") for line in block.splitlines()
                                    if line.strip()))
            for block in text.split("\n\n") if block.strip()
        ]
        corpus = load_tagged_corpus(write(tmp_path, "c.tsv", text))
        assert [tokens for _, tokens, _ in documents(corpus)] == expected

    def test_review_format_matches_cache_free_parse(self, tmp_path):
        reviews = make_reviews(80, seed=10)
        lines = [f"{label}\t" + " ".join(f"{w.title()}_{t}" for w, t in tokens)
                 for _, tokens, label in documents(reviews)]
        loaded = load_labeled_reviews(write(tmp_path, "r.tsv", "\n".join(lines) + "\n"))
        expected = []
        for line in lines:
            label, _, body = line.partition("\t")
            tokens = []
            for piece in body.split():
                word, _, tag = piece.rpartition("_")
                tokens.append((word.lower(), tag))
            expected.append((label, tuple(tokens)))
        assert [(label, tokens) for _, tokens, label in documents(loaded)] == expected

    @pytest.mark.parametrize("bad", ["nonsense", "new york\tNNP"])
    def test_format_a_bad_line_after_valid_lines_names_its_line(self, tmp_path, bad):
        text = f"good\tJJ\nfilm\tNN\n\ngood\tJJ\n{bad}\nfilm\tNN\n{bad}\n"
        with pytest.raises(ParseError) as err:
            load_tagged_corpus(write(tmp_path, "c.tsv", text))
        assert err.value.line == 5

    def test_inline_bad_piece_is_reported_at_first_occurrence(self, tmp_path):
        text = "good_JJ film_NN\ngood_JJ film\nfilm_NN film\n"
        with pytest.raises(ParseError) as err:
            load_tagged_corpus(write(tmp_path, "c.txt", text), FORMAT_INLINE)
        assert err.value.line == 2

    def test_review_bad_piece_is_reported_at_first_occurrence(self, tmp_path):
        text = "POS\tgood_JJ film_NN\nNEG\tgood_JJ film_NN\nNEG\tfilm bad_JJ\nPOS\tfilm\n"
        with pytest.raises(ParseError) as err:
            load_labeled_reviews(write(tmp_path, "r.tsv", text))
        assert err.value.line == 3



class TestDistinctTextErrors:
    """Each distinct line or piece is checked once, in first-seen order; an
    error must still name the line where the bad text first occurs (a bad
    text that repeats: TestRepeatedLines)."""

    def test_format_a_bad_line_after_many_pieces_names_its_line(self, tmp_path, monkeypatch):
        text = "good\tJJ\r\nfilm\tNN\n\n" * 3000 + "good\tJJ\nplot\nfilm\tNN\nplot\n"
        monkeypatch.setattr(corpus_mod, "PIECE_CHARS", 4096)
        assert len(list(corpus_mod._pieces(text, 4096))) > 10
        with pytest.raises(ParseError) as err:
            load_tagged_corpus(write(tmp_path, "c.tsv", text))
        assert err.value.line == 9002

    def test_format_b_bad_piece_after_many_pieces_names_its_line(self, tmp_path, monkeypatch):
        text = "good_JJ film_NN\r\n\n" * 3000 + "good_JJ plot\nfilm_NN plot\n"
        monkeypatch.setattr(corpus_mod, "PIECE_CHARS", 4096)
        with pytest.raises(ParseError) as err:
            load_tagged_corpus(write(tmp_path, "c.txt", text), FORMAT_INLINE)
        assert err.value.line == 6001

    def test_review_bad_piece_after_many_lines_names_its_line(self, tmp_path):
        text = "POS\tgood_JJ film_NN\nNEG\tbad_JJ film_NN\n" * 3000 + "NEG\tfilm plot\n"
        with pytest.raises(ParseError) as err:
            load_labeled_reviews(write(tmp_path, "r.tsv", text))
        assert err.value.line == 6001

    @pytest.mark.parametrize("text,line,message", [
        ("POS\tgood_JJ\nNEU\tgood_JJ\nPOS\tplot\n", 2, "label must be POS or NEG"),
        ("POS\tgood_JJ\nPOS\tplot\nNEU\tgood_JJ\n", 2, "expected 'token_TAG'"),
        ("POS\tgood_JJ\nNEU\tplot\n", 2, "label must be POS or NEG"),
    ], ids=["label-first", "piece-first", "same-line"])
    def test_review_first_bad_label_or_piece_is_reported(self, tmp_path, text, line, message):
        with pytest.raises(ParseError) as err:
            load_labeled_reviews(write(tmp_path, "r.tsv", text))
        assert err.value.line == line
        assert message in str(err.value)


class TestColumns:
    def test_loaded_columns(self, tmp_path):
        path = write(tmp_path, "c.tsv", "Good\tJJ\nfilm\tNN\n\n\nfilm\tNN\ngood\tJJ\n\nbad\tJJ\n")
        corpus = load_tagged_corpus(path)
        assert (corpus.words, corpus.tags) == (("good", "film", "bad"), ("JJ", "NN"))
        assert corpus.word_ids.dtype == np.int32 and corpus.offsets.dtype == np.int64
        assert corpus.word_ids.tolist() == [0, 1, 1, 0, 2]
        assert corpus.tag_ids.tolist() == [0, 1, 1, 0, 0]
        assert corpus.offsets.tolist() == [0, 2, 4, 5]
        assert (corpus.ids, corpus.labels) == (("d000000", "d000001", "d000002"), (None,) * 3)


def parse_whole_text(text):
    """Format-A documents from ``text.splitlines()`` in one go, cache-free."""
    docs, tokens = [], []
    for line in text.splitlines() + [""]:
        if line.strip():
            word, tag = line.split("\t")
            tokens.append((word.strip().lower(), tag.strip()))
        elif tokens:
            docs.append(tuple(tokens))
            tokens = []
    return docs


# Format-A texts whose cuts, over every piece size, land inside "\r\n", next
# to each one-character line break, on the blank line that ends a document
# and before an end without a final line break.
PIECE_TEXTS = {
    "crlf": "Good\tJJ\r\nfilm\tNN\r\n\r\nbad\tJJ\r\nplot\tNN\r\n",
    "one-char-breaks": "good\tJJ\rfilm\tNN\x0bbad\tJJ\n\x1cplot\tNN\u2028"
                       "dull\tJJ\r\n\u2028\nend\tNN\n",
    "blank-line-ends-document": "good\tJJ\nfilm\tNN\n\n \n\nbad\tJJ\n\nplot\tNN\n\n",
    "no-final-break": "good\tJJ\nfilm\tNN\n\nbad\tJJ\nplot\tNN",
}


class TestPieces:
    """Format A is split into lines a piece at a time; the lines must not change."""

    @pytest.mark.parametrize("name", PIECE_TEXTS)
    def test_every_piece_size_parses_like_the_whole_text(self, tmp_path, monkeypatch, name):
        text = PIECE_TEXTS[name]
        path = tmp_path / "c.tsv"
        path.write_bytes(text.encode("utf-8"))
        expected = parse_whole_text(text)
        for piece_chars in range(1, len(text) + 2):
            monkeypatch.setattr(corpus_mod, "PIECE_CHARS", piece_chars)
            assert list(corpus_mod._lines(text)) == text.splitlines()
            assert [tokens for _, tokens, _ in documents(load_tagged_corpus(path))] == expected

    @given(text=st.lists(st.sampled_from(["a", "\t", " ", "\n", "\r", "\r\n", "\x0b",
                                          "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                          "\u2028", "\u2029"]),
                         max_size=40).map("".join),
           piece_chars=st.integers(1, 12))
    def test_pieces_split_into_the_whole_texts_lines(self, text, piece_chars):
        pieces = list(corpus_mod._pieces(text, piece_chars))
        assert "".join(pieces) == text
        assert [line for piece in pieces for line in piece.splitlines()] == text.splitlines()

    def test_bad_line_after_a_cut_names_its_global_line(self, tmp_path, monkeypatch):
        text = "good\tJJ\r\nfilm\tNN\n\n" * 50 + "bad\tJJ\nplot\n"
        path = write(tmp_path, "c.tsv", text)
        monkeypatch.setattr(corpus_mod, "PIECE_CHARS", 16)
        with pytest.raises(ParseError) as err:
            load_tagged_corpus(path)
        assert err.value.line == 152
        assert str(err.value).startswith(f"{path}:152: expected 'token<TAB>TAG'")

    def test_inline_lines_are_split_in_pieces_too(self, tmp_path, monkeypatch):
        text = "good_JJ film_NN\r\n\x0bbad_JJ plot_NN\rdull_JJ\n"
        path = write(tmp_path, "c.txt", text)
        whole = load_tagged_corpus(path, FORMAT_INLINE)
        monkeypatch.setattr(corpus_mod, "PIECE_CHARS", 3)
        assert documents(load_tagged_corpus(path, FORMAT_INLINE)) == documents(whole)
        assert len(whole) == 3


class TestRoundTrip:
    @given(token_lists=st.lists(
        st.lists(
            st.tuples(st.text(alphabet="abcxyz", min_size=1, max_size=6),
                      st.sampled_from(["JJ", "NN", "RB", "VBD", "."])),
            min_size=1, max_size=8),
        min_size=1, max_size=6))
    def test_one_token_per_line_round_trip(self, tmp_path_factory, token_lists):
        corpus = make_corpus(token_lists)
        path = tmp_path_factory.mktemp("rt") / "c.tsv"
        save_tagged_corpus(corpus, path)
        again = load_tagged_corpus(path)
        assert documents(again) == documents(corpus)

    def test_inline_round_trip(self, tmp_path):
        corpus = make_corpus([
            [("good", "JJ"), ("movie", "NN")],
            [("bad", "JJ"), ("film", "NN")],
        ])
        path = tmp_path / "c.txt"
        save_tagged_corpus(corpus, path, FORMAT_INLINE)
        assert documents(load_tagged_corpus(path, FORMAT_INLINE)) == documents(corpus)


class TestTypes:
    def test_duplicate_document_ids_rejected(self):
        corpus = make_corpus([[("a", "DT")], [("a", "DT")]])
        with pytest.raises(ValueError, match="duplicate document id 'd1'"):
            replace(corpus, ids=("d1", "d1"))


class TestPolarityLexicon:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "excellent\t2.7\npoor\t-2.3")
        lex = load_polarity_lexicon(path)
        assert lex == {"excellent": 2.7, "poor": -2.3}

    def test_duplicate_last_wins(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "good\t1.0\ngood\t0.5")
        assert load_polarity_lexicon(path) == {"good": 0.5}

    def test_comments_ignored(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "# header\ngood\t1.0")
        assert load_polarity_lexicon(path) == {"good": 1.0}

    def test_non_numeric_score_raises(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "good\thigh")
        with pytest.raises(ParseError) as err:
            load_polarity_lexicon(path)
        assert err.value.line == 1

    def test_empty_raises(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "# nothing\n")
        with pytest.raises(EmptyInputError):
            load_polarity_lexicon(path)

    def test_entry_count_matches_dedup_oracle(self, tmp_path):
        # 500 lines with occasional repeats; oracle counts distinct words
        words = [f"word{i % 430}" for i in range(500)]
        text = "\n".join(f"{w}\t{(i % 7) - 3}.5" for i, w in enumerate(words))
        path = write(tmp_path, "big.tsv", text)
        lex = load_polarity_lexicon(path)
        assert lex == {w: float(f"{(i % 7) - 3}.5") for i, w in enumerate(words)}


class TestLabeledReviews:
    def test_parse_labels(self, tmp_path):
        path = write(tmp_path, "r.tsv", "POS\tgood_JJ movie_NN\nNEG\tbad_JJ film_NN\n")
        reviews = load_labeled_reviews(path)
        assert reviews.labels == (POS, NEG)

    def test_unknown_label_raises(self, tmp_path):
        path = write(tmp_path, "r.tsv", "NEU\tso_RB so_RB\n")
        with pytest.raises(ParseError):
            load_labeled_reviews(path)


class TestTagInventory:
    def test_unknown_tags_are_preserved(self, tmp_path):
        path = write(tmp_path, "c.tsv", "weird\tXYZ")
        corpus = load_tagged_corpus(path)
        assert corpus.tags == ("XYZ",)


class TestCountFrequencies:
    """A corpus's word counts, as SGNS takes its vocabulary from them."""

    def test_simple_counts(self):
        corpus = make_corpus([[("c", "DT"), ("a", "DT"), ("a", "DT"), ("b", "NN")]])
        words, counts, total = _build_vocab(corpus, min_count=1)
        # most frequent first, ties by word
        assert (words, counts.tolist()) == (["a", "b", "c"], [2, 1, 1])
        assert total == 4

    def test_empty_corpus(self):
        with pytest.raises(ConfigError, match="occurs 0 times"):
            _build_vocab(make_corpus([]), min_count=1)

    def test_hundred_reviews_total_matches_oracle(self):
        reviews = make_reviews(100, seed=6)
        expected = sum(len(tokens) for _, tokens, _ in documents(reviews))
        _, counts, total = _build_vocab(reviews, min_count=1)
        assert total == counts.sum() == expected

    @given(st.permutations(range(4)))
    def test_permutation_invariant(self, order):
        docs = [
            [("a", "DT"), ("b", "NN")],
            [("b", "NN")],
            [("c", "JJ"), ("a", "DT"), ("a", "DT")],
            [("d", "RB")],
        ]
        words, counts, total = _build_vocab(make_corpus(docs), min_count=1)
        shuffled = _build_vocab(make_corpus([docs[i] for i in order]), min_count=1)
        assert (shuffled[0], shuffled[1].tolist(), shuffled[2]) == \
            (words, counts.tolist(), total)


@given(token_lists=st.lists(
    st.lists(
        st.tuples(st.text(alphabet="ABCxyz", min_size=1, max_size=6),
                  st.sampled_from(["JJ", "NN"])),
        min_size=1, max_size=5),
    min_size=1, max_size=4))
def test_all_loaded_words_lowercase(tmp_path_factory, token_lists):
    corpus = make_corpus(token_lists)
    path = tmp_path_factory.mktemp("lc") / "c.tsv"
    save_tagged_corpus(corpus, path)
    for word in load_tagged_corpus(path).words:
        assert word == word.lower()
