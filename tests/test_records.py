"""The shared tab-record layer, and a round trip through every stage file on it."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sentaxis import records
from sentaxis.axis import (
    OrientationLexicon,
    SentimentAxis,
    load_axis,
    load_orientation_lexicon,
    save_axis,
    save_orientation_lexicon,
)
from sentaxis.corpus import load_polarity_lexicon
from sentaxis.errors import ParseError
from sentaxis.patterns import (
    PointWordSet,
    extract_phrases,
    load_phrases,
    load_point_words,
    save_phrases,
    save_point_words,
)

from corpus_helpers import make_corpus

# any UTF-8-encodable text without whitespace, bare or after a '#', which a
# comment-skipping reader would drop
_plain = (st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)
          .filter(lambda w: w.split() == [w]))
words = st.one_of(_plain, _plain.map(lambda w: "#" + w))
finite = st.floats(allow_nan=False, allow_infinity=False)


def write(tmp_path, text):
    path = tmp_path / "f.tsv"
    path.write_text(text, encoding="utf-8")
    return path


class TestRead:
    def test_comments_headers_and_hash_records(self, tmp_path):
        path = write(tmp_path, "# free text\n# cutoff=3\n\n#tag\t1\n# key = spaced\nword\t2\n")
        headers, rows = records.read(path, ("word", "count"))
        assert headers == {"cutoff": (2, "3"), "key": (5, "spaced")}
        assert rows == [(4, ["#tag", "1"]), (6, ["word", "2"])]

    def test_header_with_spaces_around_its_key_and_value(self, tmp_path):
        # a comment, so no cutoff header, would leave the default cutoff of 1
        path = write(tmp_path, "#  cutoff = 2 \ngood\t3\n")
        assert load_point_words(path).cutoff == 2

    @pytest.mark.parametrize("text,line", [
        ("a\t1\nb\n", 2),              # too few fields
        ("a\t1\t2\n", 1),              # too many
        ("a\t1\n \t2\n", 2),           # blank field
        ("# n=1\na\t1\n# n=2\n", 3),   # repeated header
    ])
    def test_malformed_line_names_its_line(self, tmp_path, text, line):
        path = write(tmp_path, text)
        with pytest.raises(ParseError) as err:
            records.read(path, ("word", "count"))
        assert err.value.line == line
        assert str(err.value).startswith(f"{path}:{line}:")

    def test_undecodable_byte_names_its_line(self, tmp_path):
        # a lone CR ends a line as str.splitlines counts them
        path = tmp_path / "f.tsv"
        path.write_bytes(b"a\t1\r\nb\t2\rc\t3\n\xffd\t4\n")
        with pytest.raises(ParseError) as err:
            records.read(path, ("word", "count"))
        assert str(err.value) == f"{path}:4: byte 0xff is not UTF-8"

    @pytest.mark.parametrize("text", ["nan", "-inf", "1e400", "abc", ""])
    def test_finite_float_rejects(self, text):
        with pytest.raises(ParseError, match="f.tsv:7:"):
            records.finite_float("f.tsv", 7, text, "score")

    def test_integer_rejects_fraction(self):
        with pytest.raises(ParseError, match="f.tsv:2:"):
            records.integer("f.tsv", 2, "1.5", "count")

    def test_write_uses_python_float_repr(self, tmp_path):
        path = tmp_path / "f.tsv"
        records.write(path, [("a", np.float64(0.1), 3)], {"total": np.float64(2.5)})
        assert path.read_text(encoding="utf-8") == "# total=2.5\na\t0.1\t3\n"

    @pytest.mark.parametrize("word", ["a\tb", "a\nb", "a\rb", "a\u2028b"])
    def test_write_rejects_field_with_tab_or_line_break(self, tmp_path, word):
        path = tmp_path / "points.tsv"
        points = PointWordSet(frozenset({"good", word}), 1, word_counts={"good": 2, word: 1})
        with pytest.raises(ValueError, match=str(path)):
            save_point_words(points, path)
        assert not path.exists()

    def test_write_rejects_header_with_line_break(self, tmp_path):
        path = tmp_path / "f.tsv"
        with pytest.raises(ValueError, match=str(path)):
            records.write(path, [("a", 1)], {"mode": "semi\nb\t2"})
        assert not path.exists()

    @pytest.mark.parametrize("bad", ["w\tx", "w\r", "w\r\n", "w\x85"])
    def test_write_names_a_bad_row_far_into_the_file(self, tmp_path, bad):
        # the rows are written a block at a time: an earlier block is on disk
        path = tmp_path / "f.tsv"
        rows = [(f"w{i}", float(i)) for i in range(3000)]
        rows[2500] = (bad, 1.5)
        with pytest.raises(ValueError) as err:
            records.write(path, iter(rows), {"mode": "semi"})
        line = bad + "\t1.5"
        assert str(err.value) == f"{path}: a field of {line!r} holds a tab or a line break"
        assert not path.exists()

    def test_write_matches_one_line_per_row(self, tmp_path):
        path = tmp_path / "f.tsv"
        rows = [(f"w{i}", i / 7, i, "#x") for i in range(2500)] + [("z",), ("y", "#")]
        records.write(path, iter(rows), {"total": 2500, "mode": "semi"})
        expected = "# total=2500\n# mode=semi\n" + "".join(
            "\t".join(repr(f) if isinstance(f, float) else str(f) for f in row) + "\n"
            for row in rows)
        assert path.read_text(encoding="utf-8") == expected


class TestRoundTrip:
    @given(st.dictionaries(words, finite, min_size=1, max_size=8),
           st.text("0123456789abcdef", max_size=16))
    def test_orientation_lexicon(self, tmp_path_factory, scores, fingerprint):
        path = tmp_path_factory.mktemp("lex") / "lexicon.tsv"
        save_orientation_lexicon(OrientationLexicon(scores, None, fingerprint), path)
        again = load_orientation_lexicon(path)
        assert again.scores == scores
        assert again.fingerprint == fingerprint

    @given(st.dictionaries(words, st.integers(0, 10**6), min_size=1, max_size=8),
           st.integers(1, 50))
    def test_point_words(self, tmp_path_factory, counts, cutoff):
        path = tmp_path_factory.mktemp("points") / "points.tsv"
        save_point_words(PointWordSet(frozenset(counts), cutoff, word_counts=counts), path)
        again = load_point_words(path)
        assert (again.words, again.cutoff, again.word_counts) == (set(counts), cutoff, counts)

    @given(st.lists(st.lists(st.tuples(words, st.sampled_from(["JJ", "NN", "RB", "VBN", "DT"])),
                             min_size=1, max_size=6), min_size=1, max_size=6))
    def test_phrases(self, tmp_path_factory, documents):
        corpus = make_corpus(documents)
        phrases = extract_phrases(corpus)
        path = tmp_path_factory.mktemp("phrases") / "phrases.tsv"
        save_phrases(phrases, path)
        again = load_phrases(path, corpus)
        assert again.at.tolist() == phrases.at.tolist()
        assert again.rule.tolist() == phrases.rule.tolist()

    @given(st.dictionaries(words.map(str.lower), finite, min_size=1, max_size=8))
    def test_polarity_lexicon(self, tmp_path_factory, entries):
        path = tmp_path_factory.mktemp("polarity") / "gold.tsv"
        records.write(path, sorted(entries.items()))
        again = load_polarity_lexicon(path)
        assert again == entries

    @given(st.lists(words, unique=True, min_size=2, max_size=8), st.data())
    def test_axis(self, tmp_path_factory, names, data):
        split = data.draw(st.integers(0, len(names) - 2))
        dim = data.draw(st.integers(1, 4))
        vec_pos, vec_neg = (np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
                            for _ in range(2))
        assume(not np.array_equal(vec_pos, vec_neg))
        axis = SentimentAxis(pos_words=tuple(names[:split]), neg_words=tuple(names[split:-1]),
                             vec_pos=vec_pos, vec_neg=vec_neg, seed=names[-1],
                             mode=data.draw(words))
        path = save_axis(axis, tmp_path_factory.mktemp("axis"))
        if not (vec_pos.any() and vec_neg.any()):
            # no word can be scored against a zero reference vector
            with pytest.raises(ParseError, match="is a zero vector"):
                load_axis(path)
            return
        again = load_axis(path)
        assert (again.pos_words, again.neg_words) == (axis.pos_words, axis.neg_words)
        assert (again.seed, again.mode) == (axis.seed, axis.mode)
        assert np.array_equal(again.vec_pos, vec_pos) and np.array_equal(again.vec_neg, vec_neg)
