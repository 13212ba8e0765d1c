import os
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from sentaxis.errors import DegenerateVectorError, ParseError
from sentaxis.vectors import (
    EmbeddingTable,
    cosine_distance,
    cosine_similarity,
    load_embeddings,
    save_embeddings,
)

# components are zero or of sane magnitude; near-subnormal entries make
# direction itself ill-conditioned under scaling
finite_vectors = arrays(
    np.float64, st.integers(min_value=2, max_value=6),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False)
    .filter(lambda x: x == 0.0 or abs(x) >= 1e-3))

# any UTF-8-encodable word without whitespace; default float draws include
# -0.0, subnormals and magnitudes near the float64 limits
vector_files = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
    .filter(lambda w: w.split() == [w]),
    min_size=1, max_size=8, unique=True,
).flatmap(lambda words: st.tuples(
    st.just(words),
    arrays(np.float64, st.tuples(st.just(len(words)), st.integers(1, 5)),
           elements=st.floats(allow_nan=False, allow_infinity=False))))


class TestCosine:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_computed_value(self):
        # frozen from the dot/norm hand computation: 32 / sqrt(14 * 77)
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 5.0, 6.0])
        assert cosine_similarity(a, b) == pytest.approx(0.9746318461970762, abs=1e-9)

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateVectorError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(2), np.ones(3))

    def test_distance_of_self_is_zero(self):
        v = np.array([2.0, -1.0])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_antiparallel_distance_is_two(self):
        v = np.array([1.0, 1.0, 0.5])
        assert cosine_distance(v, -v) == pytest.approx(2.0, abs=1e-12)

    @given(a=finite_vectors, b=finite_vectors)
    def test_symmetry(self, a, b):
        if len(a) != len(b) or np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        assert cosine_similarity(a, b) == cosine_similarity(b, a)

    @given(v=finite_vectors, scale=st.floats(min_value=0.01, max_value=100))
    def test_positive_scale_invariance(self, v, scale):
        if np.linalg.norm(v) == 0 or np.linalg.norm(scale * v) == 0:
            return
        other = np.roll(v, 1) + 1.0
        if np.linalg.norm(other) == 0:
            return
        base = cosine_similarity(v, other)
        scaled = cosine_similarity(scale * v, other)
        assert scaled == pytest.approx(base, abs=1e-9)

    @given(a=finite_vectors, b=finite_vectors)
    def test_distance_is_one_minus_similarity(self, a, b):
        if len(a) != len(b) or np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        assert cosine_distance(a, b) == pytest.approx(1.0 - cosine_similarity(a, b))
        assert 0.0 <= cosine_distance(a, b) <= 2.0


class TestTableIO:
    def test_parse_documented_example(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.dim == 3
        assert len(table) == 2
        assert np.array_equal(table["a"], [1.0, 0.0, 0.0])

    def test_short_row_raises_with_row_number(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_embeddings(path)
        assert err.value.line == 3

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("three vectors\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_row_count_mismatch_raises(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2\na 1 0\nb 0 1\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_duplicate_word_raises(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\na 1 0\na 0 1\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_embeddings(path)
        assert err.value.line == 3

    def test_non_numeric_component_names_its_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2\na 1 0\nb 0 1\nc 0 one\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_embeddings(path)
        assert err.value.line == 4
        assert f"{path}:4:" in str(err.value)

    def test_trailing_spaces_and_blank_lines_are_ignored(self, tmp_path):
        # word2vec's C tool ends every row with a space
        path = tmp_path / "v.txt"
        path.write_text("2 3 \n\na 1 0 0 \n\n  \nb 0 1 0 \n\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.words == ("a", "b")
        assert np.array_equal(table.matrix, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_header_larger_than_file_raises_before_allocating(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2000000000 1000\na " + " ".join(["0"] * 1000) + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_embeddings(path)
        assert err.value.line == 1

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_header_larger_than_memory_raises(self):
        # a pipe reports no size, so the header is only caught at allocation
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"2000000000 1000\n")
            os.close(write_end)
            with pytest.raises(ParseError) as err:
                load_embeddings(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert err.value.line == 1
        assert f"/dev/fd/{read_end}:1:" in str(err.value)

    @pytest.mark.parametrize("word", ["new york", "tab\there", "line\nbreak", "nb\u00a0sp"])
    def test_save_rejects_word_with_whitespace(self, tmp_path, word):
        path = tmp_path / "v.txt"
        with pytest.raises(ValueError, match="whitespace"):
            save_embeddings(EmbeddingTable([word, "b"], np.ones((2, 2))), path)
        assert not path.exists()

    def test_load_time_is_linear_in_rows(self, tmp_path):
        rows = 50_000
        path = tmp_path / "v.txt"
        path.write_text(f"{rows} 2\n" + "".join(f"w{i} {i} -1.5\n" for i in range(rows)),
                        encoding="utf-8")
        start = time.perf_counter()
        table = load_embeddings(path)
        assert time.perf_counter() - start < 5.0
        assert len(table) == rows
        assert table["w49999"].tolist() == [49999.0, -1.5]

    @given(drawn=vector_files)
    def test_round_trip_is_bit_identical(self, tmp_path_factory, drawn):
        words, matrix = drawn
        path = tmp_path_factory.mktemp("rt") / "v.txt"
        save_embeddings(EmbeddingTable(words, matrix), path)
        again = load_embeddings(path)
        assert again.words == tuple(words)
        assert again.matrix.tobytes() == matrix.tobytes()

    def test_round_trip_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(42)
        words = [f"w{i}" for i in range(40)]
        table = EmbeddingTable(words, rng.normal(size=(40, 7)))
        path = tmp_path / "v.txt"
        save_embeddings(table, path)
        again = load_embeddings(path)
        assert again.words == table.words
        assert np.max(np.abs(again.matrix - table.matrix)) <= 1e-6

    def test_table_is_immutable(self, toy_table):
        with pytest.raises(ValueError):
            toy_table.matrix[0, 0] = 9.0

    def test_fingerprint_tracks_content(self, toy_table):
        other = EmbeddingTable(toy_table.words, toy_table.matrix * 2.0)
        assert toy_table.fingerprint() != other.fingerprint()
        same = EmbeddingTable(toy_table.words, toy_table.matrix.copy())
        assert toy_table.fingerprint() == same.fingerprint()

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingTable(["a"], np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError):
            EmbeddingTable(["a", "a"], np.ones((2, 2)))
        with pytest.raises(ValueError):
            EmbeddingTable([""], np.ones((1, 2)))
