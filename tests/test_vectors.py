import math
import os
import shutil
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sentaxis import vectors
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
        with pytest.raises(KeyError):
            table["c"]

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

    def test_fingerprint_is_pinned(self):
        # the digest is recorded in every lexicon, so it must never drift
        table = EmbeddingTable(["a", "#b", "café", "über"],
                               np.arange(12, dtype=float).reshape(4, 3) / 7 - 0.5)
        assert table.fingerprint() == "45da2dc4814147f3"

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingTable(["a"], np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError):
            EmbeddingTable(["a", "a"], np.ones((2, 2)))
        with pytest.raises(ValueError):
            EmbeddingTable([""], np.ones((1, 2)))



def rows(start, stop):
    return "".join(f"w{i} {i} -1.5\n" for i in range(start, stop))


# B good rows after the header, so the next row is on line SECOND
B = 256
SECOND = B + 2


class TestBlockLoader:
    """A vector file's first bad line is reported with its number and the
    message of the per-line parse, however many good rows come before it."""

    @pytest.mark.parametrize("text,line,message", [
        pytest.param(f"{B + 1} 2\n" + rows(0, B) + "x 1\n", SECOND,
                     "expected 2 values for word 'x', got 1", id="second-block-first-line-short"),
        pytest.param(f"{B + 1} 2\n" + rows(0, B) + "x 1 one\n", SECOND,
                     "non-numeric vector component for 'x'", id="second-block-first-line-word"),
        pytest.param(f"{B + 1} 2\n" + rows(0, B) + "w0 1 2\n", SECOND,
                     "duplicate word 'w0'", id="duplicate-across-blocks"),
        pytest.param(f"{B} 2\n" + rows(0, B) + "x 1 2\n", SECOND,
                     "more rows than the header promised", id="second-block-extra-row"),
        pytest.param(f"1500 2\n" + rows(0, 1499) + "x 1 2 3\n", 1501,
                     "expected 2 values for word 'x', got 3", id="last-line-extra-value"),
        pytest.param("2 2\na 1 2 3\nb 1 2 3\n", 2,
                     "expected 2 values for word 'a', got 3", id="every-row-extra-value"),
        pytest.param("3 2\na 1 2\r\n\r\nb 1\r\nc 1 2\r\n", 4,
                     "expected 2 values for word 'b', got 1", id="crlf"),
        pytest.param("2 2\nnb\u00a0sp 1 2\nb 1 2\n", 2,
                     "expected 2 values for word 'nb', got 3", id="nbsp-in-word"),
        pytest.param("2 2\na 1_000 2\nb 1 2\n", 2,
                     "non-numeric vector component for 'a'", id="underscore-digits"),
        pytest.param("2 2\na 1 2\nb \u0661 2\n", 3,
                     "non-numeric vector component for 'b'", id="arabic-indic-digit"),
        pytest.param("\u0662 1_0\na 1 2\nb 1 2\n", 1, "header must be 'vocab_count dim'",
                     id="header-non-ascii-and-underscore-digits"),
        pytest.param("+2 2\na 1 2\nb 1 2\n", 1, "header must be 'vocab_count dim'",
                     id="header-signed-count"),
        pytest.param(f"{B + 1} 2\n" + rows(0, B - 1) + "x nan 1\n" + "y 1\n", SECOND,
                     "expected 2 values for word 'y', got 1", id="bad-row-before-non-finite-report"),
        pytest.param(f"{B + 2} 2\n" + rows(0, B) + "x 0 1\ny 1e400 1\n", SECOND + 1,
                     "non-finite vector component for 'y'", id="non-finite-in-second-block"),
    ])
    def test_bad_file_gives_its_first_bad_line(self, tmp_path, text, line, message):
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ParseError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize("text,words", [
        pytest.param(f"{B + 1} 2\n" + rows(0, B) + "\n" * B + " \t\n" + rows(B, B + 1),
                     [f"w{i}" for i in range(B + 1)], id="block-of-blank-lines"),
        pytest.param("2 2\r\na 1 2\r\n\r\nb 3 4\r\n", ["a", "b"], id="crlf"),
        pytest.param("2 2\n#a 1 2\n# 3 4\n", ["#a", "#"], id="hash-words"),
    ])
    def test_awkward_valid_file_loads(self, tmp_path, text, words):
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8", newline="")
        assert list(load_embeddings(path).words) == words

    def test_undecodable_byte_names_its_line(self, tmp_path):
        # a lone CR ends a line, as it does when the rows are read
        path = tmp_path / "v.txt"
        path.write_bytes(b"3 2\na 1 0\rb 0 1\n\xe9t\xe9 1 1\n")
        with pytest.raises(ParseError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}:4: byte 0xe9 is not UTF-8"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_undecodable_byte_names_no_line(self):
        # each line is decoded as it is read, so a pipe's bad line is named
        # too; a second bad byte further on is not reported
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"1002 2\na 1 0\n\xe9 0 1\n" + rows(0, 999).encode()
                     + b"\xe9t\xe9 1 1\n")
            os.close(write_end)
            with pytest.raises(ParseError) as err:
                load_embeddings(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert str(err.value) == f"/dev/fd/{read_end}:3: byte 0xe9 is not UTF-8"

    @pytest.mark.parametrize("numpy_default", [None, "bytes"], ids=["numpy-2", "numpy-1"])
    def test_words_load_as_text_under_either_numpy_default(self, tmp_path, numpy_default):
        # numpy 1's np.loadtxt defaults to encoding="bytes", numpy 2's to None;
        # the loader must give text words whichever default is in force
        real_loadtxt = np.loadtxt

        def loadtxt(*args, encoding=numpy_default, **kwargs):
            return real_loadtxt(*args, encoding=encoding, **kwargs)

        path = tmp_path / "v.txt"
        path.write_text("3 2\n\u65e5\u672c 1 2\ncaf\u00e9 3 4\nb 5 6\n", encoding="utf-8")
        with mock.patch.object(np, "loadtxt", loadtxt):
            table = load_embeddings(path)
        assert table.words == ("\u65e5\u672c", "caf\u00e9", "b")
        assert table.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_bad_row_names_its_line(self):
        # a pipe cannot be read twice: its bad row is named as it is read
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"2 2\na 1 0\na 0 1\n")
            os.close(write_end)
            with pytest.raises(ParseError) as err:
                load_embeddings(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert str(err.value) == f"/dev/fd/{read_end}:3: duplicate word 'a'"

    def test_peak_memory_stays_near_the_matrix(self, tmp_path):
        n, dim = 20_000, 100
        path = tmp_path / "v.txt"
        values = np.random.default_rng(0).uniform(-1, 1, size=(n, dim))
        with path.open("w", encoding="utf-8") as fh:
            fh.write(f"{n} {dim}\n")
            np.savetxt(fh, np.column_stack([np.arange(n), values]),
                       fmt="w%d" + " %.6f" * dim)
        tracemalloc.start()
        try:
            table = load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == n
        assert peak < 1.6 * table.matrix.nbytes

    @given(drawn=st.data(), valid=st.booleans())
    def test_matches_per_line_parse(self, tmp_path_factory, drawn, valid):
        path = tmp_path_factory.mktemp("pl") / "v.txt"
        path.write_text(drawn.draw(_vector_text(valid)), encoding="utf-8", newline="")
        expected = per_line_load(path)
        assert not (valid and isinstance(expected, str))
        if isinstance(expected, str):
            with pytest.raises(ParseError) as err:
                load_embeddings(path)
            assert str(err.value) == f"{path}:{expected}"
        else:
            table = load_embeddings(path)
            assert list(table.words) == expected[0]
            assert table.matrix.tobytes() == expected[1].tobytes()


def per_line_load(path):
    """The loader's rules one line at a time, values read by ``float``: the
    (words, matrix) of a good file, or ``"line: message"`` of a bad one."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(f.isascii() and f.isdigit() for f in header):
            return "1: header must be 'vocab_count dim'"
        vocab_count, dim = map(int, header)
        if vocab_count < 1:
            return "1: vocab_count and dim must be positive"
        size = os.path.getsize(path)
        if vocab_count * (2 * dim + 1) > size:
            return (f"1: header promises {vocab_count} rows of {dim} values, "
                    f"more than {size} bytes can hold")
        found = {}  # word -> (line, values)
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            word = fields[0]
            if len(fields) != dim + 1:
                return f"{lineno}: expected {dim} values for word {word!r}, got {len(fields) - 1}"
            if len(found) == vocab_count:
                return f"{lineno}: more rows than the header promised"
            if word in found:
                return f"{lineno}: duplicate word {word!r}"
            try:
                found[word] = (lineno, [float(v) if v.isascii() and "_" not in v else float("?")
                                        for v in fields[1:]])
            except ValueError:
                return f"{lineno}: non-numeric vector component for {word!r}"
    for word, (lineno, values) in found.items():
        if not all(map(math.isfinite, values)):
            return f"{lineno}: non-finite vector component for {word!r}"
    if len(found) != vocab_count:
        return f" header promised {vocab_count} rows, found {len(found)}"
    return list(found), np.array([values for _, values in found.values()])


_word = (st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)
         .filter(lambda w: w.split() == [w]))
_good_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.6f}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:+e}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([".5", "5.", "-0", "1E3", "00.1"]),
)
_bad_number = st.sampled_from(["nan", "-inf", "1e400", "1_000", "\u0661", "one", "0x1"])


@st.composite
def _vector_text(draw, valid: bool):
    """A vector file's text; unless ``valid``, rows may repeat a word, hold
    one value too few or too many or a bad value, and the header may be off."""
    dim = draw(st.integers(1, 3))
    words = draw(st.lists(_word, min_size=1, max_size=9, unique=valid))
    off = st.just(0) if valid else st.sampled_from([0] * 10 + [-1, 1])
    number = _good_number if valid else st.one_of(_good_number, _bad_number)
    lines = [f"{len(words) + draw(off)} {dim}"]
    for word in words:
        values = [draw(number) for _ in range(dim + draw(off))]
        sep = draw(st.sampled_from([" ", "\t", "  "]))
        lines.append(sep.join([word, *values]) + draw(st.sampled_from(["", " ", "\t"])))
        lines.extend([""] * draw(st.sampled_from([0, 0, 1, 2])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@pytest.fixture(scope="class")
def python_reader():
    """The compiled parser forced off: Python reads every line."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectors, "_load_parser", lambda: None)
        yield


# A property test runs here through a given() of its own, under the
# strategies of its original: hypothesis refuses one given() run from two
# classes.
@pytest.mark.usefixtures("python_reader")
class TestTableIOTextPath(TestTableIO):
    """Every TestTableIO case with the compiled parser off."""

    test_round_trip_is_bit_identical = given(drawn=vector_files)(
        TestTableIO.test_round_trip_is_bit_identical.hypothesis.inner_test)


@pytest.mark.usefixtures("python_reader")
class TestBlockLoaderTextPath(TestBlockLoader):
    """Every TestBlockLoader case with the compiled parser off."""

    test_matches_per_line_parse = given(drawn=st.data(), valid=st.booleans())(
        TestBlockLoader.test_matches_per_line_parse.hypothesis.inner_test)


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@st.composite
def _significant_digits(draw):
    """1-19 significant digits after leading zeros, with a point before or
    among them, and an exponent in -350..330."""
    n = draw(st.integers(1, 19))
    digits = str(draw(st.integers(10 ** (n - 1), 10**n - 1)))
    zeros = draw(st.sampled_from(["", "0", "000", "0.", ".000", "0.0"]))
    if "." not in zeros:
        point = draw(st.integers(0, n))
        digits = f"{digits[:point]}.{digits[point:]}"
    return f"{zeros}{digits}e{draw(st.integers(-350, 330))}"


_odd_above_2_53 = st.integers(0, 2**52 - 1).map(lambda i: 2**53 + 2 * i + 1)
# one value each, in the spellings the two readers must agree on
_one_values = {
    "repr": st.floats(allow_nan=False, allow_infinity=False).map(repr),  # subnormals too
    "digits": _significant_digits(),
    # near a tie: (2^53 + odd) * 10^k
    "near-halfway": st.builds(lambda t, k: f"{t}e{k}", _odd_above_2_53, st.integers(-30, 30)),
    # exactly halfway between two doubles: (2^53 + odd) * 2^j
    "halfway": st.builds(lambda t, j: str(t << j) if j >= 0 else f"{t * 5**-j}e{j}",
                         _odd_above_2_53, st.integers(-4, 10)),
}


def outcome(path, compiled=True):
    """``path`` as loaded: ``(words, matrix bytes, parser)``, or the error's text."""
    with mock.patch.object(vectors, "_load_parser",
                           vectors._load_parser if compiled else lambda: None):
        try:
            table = load_embeddings(path)
        except ParseError as err:
            return str(err)
    return table.words, table.matrix.tobytes(), table.metadata["vector_parser"]


def expected_parser(fast):
    """``vector_parser`` of a file the compiled parser takes whole if ``fast``."""
    return "c" if fast and vectors._load_parser() is not None else "python"


@pytest.fixture(scope="module")
def pinned_file(tmp_path_factory):
    """A fixed 20,000 x 100 file of "%.6f" values, as perfbench writes them."""
    n, dim = 20_000, 100
    path = tmp_path_factory.mktemp("pinned") / "v.txt"
    values = np.random.default_rng(0).uniform(-1, 1, size=(n, dim))
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{n} {dim}\n")
        np.savetxt(fh, np.column_stack([np.arange(n), values]), fmt="w%d" + " %.6f" * dim)
    return path


class TestCompiledParser:
    """The compiled parser gives the text path's bits and errors, or declines."""

    @given(drawn=st.data(), valid=st.booleans(), compiled=st.booleans())
    def test_matches_per_line_parse_in_any_chunk(self, tmp_path_factory, drawn, valid,
                                                 compiled):
        # chunks of a few bytes, so rows straddle them and some outgrow them
        path = tmp_path_factory.mktemp("pl") / "v.txt"
        path.write_text(drawn.draw(_vector_text(valid)), encoding="utf-8", newline="")
        expected = per_line_load(path)
        with mock.patch.object(vectors, "CHUNK_BYTES", drawn.draw(st.integers(1, 64))):
            loaded = outcome(path, compiled)
        if isinstance(expected, str):
            assert loaded == f"{path}:{expected}"
        else:
            assert list(loaded[0]) == expected[0]
            assert loaded[1] == expected[1].tobytes()

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "text"])
    def test_last_line_without_line_break(self, tmp_path, compiled):
        path = tmp_path / "v.txt"
        path.write_text("3 2\na 1 2\nb 3 4\nc 5 -6.5", encoding="utf-8")
        words, values, parser = outcome(path, compiled)
        assert words == ("a", "b", "c")
        assert values == np.array([[1, 2], [3, 4], [5, -6.5]], dtype=float).tobytes()
        # the compiled parser takes whole lines only
        assert parser == "python"

    @pytest.mark.parametrize("row", ["café 1 2", "x 1e-320 1", "x 1 2\r",
                                     "x inf 1"],
                             ids=["non-ascii-word", "repr-value", "carriage-return", "inf"])
    def test_decline_after_many_rows_names_a_later_line(self, tmp_path, row):
        # lines 2-1001 are good rows, 1002 the declined one, 1004 repeats a word
        path = tmp_path / "v.txt"
        path.write_bytes(f"1003 2\n{rows(0, 1000)}{row}\ny 1 2\nw5 1 2\n".encode())
        assert outcome(path) == outcome(path, compiled=False) == \
            f"{path}:1004: duplicate word 'w5'"
        path.write_bytes(f"1002 2\n{rows(0, 1000)}{row}\ny 1 2\n".encode())
        assert outcome(path) == outcome(path, compiled=False)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_declines_mid_stream(self):
        # under the 64 KiB a pipe holds, so one thread can write it all first
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, f"1003 2\n{rows(0, 1000)}café 1 2\ny 1\nz 1 2\n".encode())
            os.close(write_end)
            with pytest.raises(ParseError) as err:
                load_embeddings(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert str(err.value) == f"/dev/fd/{read_end}:1003: expected 2 values for word 'y', got 1"

    @pytest.mark.parametrize("value, fast", [
        ("-0.0", True), ("0.", True), (".5", True), ("+.5e+1", True), ("-7E-0", True),
        ("1e22", True), ("1e23", True), ("1e-22", True), ("1e-23", True),
        ("9007199254740992", True), ("9007199254740993", True),
        # leading zeros are not significant digits
        ("0.000000000000000001", True), ("0.0000000000000000001", True),
        ("1e0000000000000000000000001", True), ("0.1e-99999999999999999999", False),
        # uncounted leading zeros against an exponent too long to hold exactly
        pytest.param("0." + "0" * 100_000 + "1e100005", False, id="exponent-past-saturation"),
    ])
    def test_fast_path_edges_read_as_float_does(self, tmp_path, value, fast):
        path = tmp_path / "v.txt"
        path.write_text(f"1 1\na {value}\n", encoding="utf-8")
        _, values, parser = outcome(path)
        assert values == np.array([float(value)]).tobytes()
        assert parser == expected_parser(fast)

    @settings(derandomize=True, max_examples=400)
    @given(drawn=st.data(), kind=st.sampled_from(sorted(_one_values)))
    def test_one_value_reads_as_float_does(self, tmp_path_factory, drawn, kind):
        # a value the compiled parser declines is read by Python, with the same bits
        value = drawn.draw(_one_values[kind], label=kind)
        path = tmp_path_factory.mktemp("one") / "v.txt"
        path.write_text(f"1 1\na {value}\n", encoding="utf-8")
        expected = float(value)
        for compiled in (True, False):
            loaded = outcome(path, compiled)
            if math.isfinite(expected):
                assert loaded[1] == np.array([expected]).tobytes(), (value, compiled)
            else:
                assert loaded == f"{path}:2: non-finite vector component for 'a'"

    def test_line_longer_than_the_buffer_grows_it(self, tmp_path, monkeypatch):
        path = tmp_path / "v.txt"
        path.write_text("2 3\nalpha 0.25 -1.5 3\nb 1 2 3000000000000000000e4\n",
                        encoding="utf-8")
        monkeypatch.setattr(vectors, "CHUNK_BYTES", 4)
        words, values, parser = outcome(path)
        assert words == ("alpha", "b")
        assert values == np.array([[0.25, -1.5, 3], [1, 2, 3e22]]).tobytes()
        assert parser == expected_parser(True)

    @needs_cc
    def test_saved_file_is_read_whole_by_the_compiled_parser(self, tmp_path):
        # save_embeddings writes repr: mostly 17 significant digits
        table = EmbeddingTable([f"w{i}" for i in range(2_000)],
                               np.random.default_rng(3).normal(size=(2_000, 20)))
        save_embeddings(table, tmp_path / "v.txt")
        again = load_embeddings(tmp_path / "v.txt")
        assert again.metadata["vector_parser"] == "c"
        assert again.matrix.tobytes() == table.matrix.tobytes()

    @needs_cc
    def test_pinned_file_keeps_its_fingerprint(self, pinned_file, monkeypatch):
        # recorded with the loader that had no compiled parser
        table = load_embeddings(pinned_file)
        assert table.metadata["vector_parser"] == "c"
        assert table.fingerprint() == "19d7509bef605378"
        monkeypatch.setattr(vectors, "_load_parser", lambda: None)
        again = load_embeddings(pinned_file)
        assert again.metadata["vector_parser"] == "python"
        assert again.fingerprint() == "19d7509bef605378"
