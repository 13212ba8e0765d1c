"""The compiled line interner of format A (``corpus_kernel.c``) against the
Python route it stands in for: the same columns and the same errors, or a
declined file that the Python route reads."""

import shutil
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import test_corpus
import test_memory
from sentaxis import corpus as corpus_mod
from sentaxis.corpus import load_tagged_corpus
from sentaxis.errors import SentaxisError

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def outcome(path, kernel=True):
    """``path`` loaded as format A: its columns with their dtypes, or the
    error's (type, text, line)."""
    with mock.patch.object(corpus_mod, "_load_interner",
                           corpus_mod._load_interner if kernel else lambda: None):
        try:
            corpus = load_tagged_corpus(path)
        except SentaxisError as err:
            return type(err), str(err), getattr(err, "line", None)
    return (corpus.words, corpus.tags, corpus.ids, corpus.labels, corpus.source,
            *((column.dtype, column.tolist())
              for column in (corpus.word_ids, corpus.tag_ids, corpus.offsets)))


def kernel_takes(data: bytes) -> bool:
    return corpus_mod._intern_bytes(data) is not None


# Every line break str.splitlines knows, U+2005 (whose UTF-8 shares bytes
# with U+0085 and U+2028), stray bytes that are not UTF-8 or that only
# together spell a break, and blank lines; drawn as often as valid lines,
# so that a break the kernel missed moves the line of a later error.
PIECES = [b"\t", b"\n", b"\r\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
          "\u0085".encode(), "\u2028".encode(), "\u2029".encode(), "\u2005".encode(),
          b"\xff", b"\xc2", b"\x85", b"\xe2\x80", b"\xa8", b"\n\n", b" ", b"a"]
LINES = [b"good\tJJ\n", b"Film\tNN\n", "caf\u00e9\tNN\n".encode(), b"\n"]


class TestRoutesAgree:
    @settings(derandomize=True, max_examples=300)
    @given(data=st.lists(st.sampled_from(PIECES) | st.sampled_from(LINES),
                         max_size=40).map(b"".join),
           room=st.sampled_from([1, 2, 3, corpus_mod.FIRST_ROOM]))
    def test_any_bytes_load_alike(self, tmp_path_factory, data, room):
        path = tmp_path_factory.mktemp("routes") / "c.tsv"
        path.write_bytes(data)
        with mock.patch.object(corpus_mod, "FIRST_ROOM", room):
            assert outcome(path) == outcome(path, kernel=False)

    def test_room_grows_past_the_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus_mod, "FIRST_ROOM", 1)
        lines = [f"w{i % 700}\tT{i % 3}\n" + "\n" * (i % 5 == 0) for i in range(3000)]
        path = tmp_path / "c.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        assert outcome(path) == outcome(path, kernel=False)
        assert len(load_tagged_corpus(path).words) == 700

    @pytest.mark.parametrize("data,line", [
        (b"good\tJJ\nplot\n\nfilm\tNN\n\xff\tNN\ngood\tJJ\n", 5),
        (b"good\tJJ\ncaf\xe9\tNN\n\ncaf\xe9\tNN\nplot\n", 2),
        (b"good\tJJ\n\xe2\x80\n", 2),
    ], ids=["after-a-parse-error", "repeated", "cut-sequence"])
    def test_byte_that_is_not_utf8_is_named_before_any_parse_error(self, tmp_path, data,
                                                                   line):
        path = tmp_path / "c.tsv"
        path.write_bytes(data)
        error, text, at = outcome(path)
        assert (error, text, at) == outcome(path, kernel=False)
        assert at == line and text.startswith(f"{path}:{line}: byte 0x")


@needs_cc
class TestKernel:
    def test_ids_and_spans_are_the_python_routes(self, monkeypatch):
        # from a first room of one, so the table is rebuilt at every doubling
        monkeypatch.setattr(corpus_mod, "FIRST_ROOM", 1)
        data = "".join(f"w{i * i % 700}\tT\n" + "\n" * (i % 5 == 0)
                       for i in range(3000)).encode()
        ids, spans = corpus_mod._intern_bytes(data)
        expected_ids, texts = corpus_mod._intern(data.decode().splitlines())
        assert ids.dtype == expected_ids.dtype and ids.tolist() == expected_ids.tolist()
        assert [data[a:b].decode() for a, b in spans.tolist()] == list(texts)

    @pytest.mark.parametrize("brk", ["\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                     "\u0085", "\u2028", "\u2029"])
    def test_every_other_line_break_is_declined(self, brk):
        assert kernel_takes(b"good\tJJ\n")
        assert not kernel_takes(f"good\tJJ{brk}film\tNN\n".encode())
        # also where it first shows in a repeat of an earlier line's text
        assert not kernel_takes(f"good\tJJ\ngood\tJJ{brk}\n".encode())

    @pytest.mark.parametrize("text", ["\u2005", "\u0105", "\u2018", "\u00a0", "\u2080"])
    def test_what_only_shares_their_bytes_is_taken(self, tmp_path, text):
        data = f"good\tJJ\nfilm{text}x\tNN\n".encode()
        assert kernel_takes(data)
        path = tmp_path / "c.tsv"
        path.write_bytes(data)
        assert outcome(path) == outcome(path, kernel=False)


# Every format-A test of test_corpus.py and test_memory.py, again with the
# kernel forced off; as they are written, they run with it on.

@pytest.fixture(scope="class")
def python_route():
    """The kernel forced off: format A is split into lines by ``str.splitlines``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_mod, "_load_interner", lambda: None)
        yield


def again(test):
    """A new given() of the Hypothesis test ``test``: hypothesis refuses one
    given() run from two classes."""
    return given(**test.hypothesis._given_kwargs)(test.hypothesis.inner_test)


corpus_file = test_memory.corpus_file


@pytest.mark.usefixtures("python_route")
class TestLoadTaggedCorpusPythonRoute(test_corpus.TestLoadTaggedCorpus):
    pass


@pytest.mark.usefixtures("python_route")
class TestRepeatedLinesPythonRoute(test_corpus.TestRepeatedLines):
    pass


@pytest.mark.usefixtures("python_route")
class TestDistinctTextErrorsPythonRoute(test_corpus.TestDistinctTextErrors):
    pass


@pytest.mark.usefixtures("python_route")
class TestColumnsPythonRoute(test_corpus.TestColumns):
    pass


@pytest.mark.usefixtures("python_route")
class TestPiecesPythonRoute(test_corpus.TestPieces):
    test_pieces_split_into_the_whole_texts_lines = again(
        test_corpus.TestPieces.test_pieces_split_into_the_whole_texts_lines)


@pytest.mark.usefixtures("python_route")
class TestRoundTripPythonRoute(test_corpus.TestRoundTrip):
    test_one_token_per_line_round_trip = again(
        test_corpus.TestRoundTrip.test_one_token_per_line_round_trip)


@pytest.mark.usefixtures("python_route")
class TestTagInventoryPythonRoute(test_corpus.TestTagInventory):
    pass


@pytest.mark.usefixtures("python_route")
class TestModuleFunctionsPythonRoute:
    test_all_loaded_words_lowercase = staticmethod(
        again(test_corpus.test_all_loaded_words_lowercase))
    test_format_a_load_holds_a_few_times_the_file = staticmethod(
        test_memory.test_format_a_load_holds_a_few_times_the_file)
    test_loaded_corpus_keeps_no_object_per_token = staticmethod(
        test_memory.test_loaded_corpus_keeps_no_object_per_token)
    test_near_index_holds_its_arrays_and_little_more = staticmethod(
        test_memory.test_near_index_holds_its_arrays_and_little_more)
