"""Tagged-corpus and polarity-lexicon I/O.

Two tagged-corpus file formats are supported:

* ``one-token-per-line`` -- ``token<TAB>TAG`` per line, blank line between
  documents, UTF-8.
* ``inline`` -- one document per line, tokens written ``token_TAG`` and
  separated by spaces (the tag follows the last underscore).

Labeled review sets use a third format: ``LABEL<TAB>token_TAG token_TAG ...``
with one review per line and LABEL in {POS, NEG}.

A corpus is held as columns, not as an object per token (:class:`TaggedCorpus`).
A loader maps each format-A line, or each ``token_TAG`` piece, to the id of
its distinct text, parses each distinct text once in first-seen order (so
words and tags are numbered in that order, and the first bad text is the
file's first bad line, whose number is looked up only then), and gathers
the token columns from the ids with numpy.

Format A's lines are interned by ``corpus_kernel.c`` (built through
:mod:`sentaxis.compiled`) from the file's bytes: one int32 first-seen id a
line, and the byte span of each distinct line, in a table that grows with
the distinct lines alone. A line ends at ``"\\n"``, so the kernel declines a
file holding any other line break ``str.splitlines`` knows (``"\\r"``,
``"\\v"``, ``"\\f"``, ``"\\x1c"``-``"\\x1e"``, U+0085, U+2028, U+2029), and
the lines keep ``splitlines``' numbers. Only the distinct lines are decoded,
all before any is parsed; ``"\\n"`` falls inside no UTF-8 sequence, so the
first that is not UTF-8 holds the file's first bad byte. If the kernel
declines the file, or cannot be built or loaded, the Python route below
reads it, as it reads format B.

On the Python route a tagged corpus is decoded whole but split into lines a
piece of about ``PIECE_CHARS`` characters at a time, so the lines of a large
file never all exist at once. Each piece ends right after a ``"\\n"``, so no
``"\\r\\n"`` is cut, and every other line break ``str.splitlines`` knows is
one character: the pieces' lines are exactly the whole text's lines,
numbered the same.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import records
from .errors import EmptyInputError, ParseError

POS = "POS"
NEG = "NEG"


def label_for(mean: float) -> str:
    """The label of a review whose evidence has this mean score: NEG below zero, else POS."""
    return NEG if mean < 0.0 else POS


FORMAT_ONE_TOKEN_PER_LINE = "one-token-per-line"
FORMAT_INLINE = "inline"

# Characters of a tagged corpus split into lines at a time. One piece's lines
# take about 8 times its size as str objects and list slots; a whole 8 MB
# corpus's would take 66 MB.
PIECE_CHARS = 1 << 20


@dataclass(frozen=True, slots=True, eq=False)
class TaggedCorpus:
    """Documents as columns: ``words`` and ``tags`` are the distinct strings in
    first-seen order, ``word_ids`` (int32) and ``tag_ids`` (small unsigned)
    hold one id per token, and document i is tokens ``offsets[i]:offsets[i +
    1]`` (int64), named ``ids[i]`` and labeled ``labels[i]`` (or None)."""

    words: tuple[str, ...]
    tags: tuple[str, ...]
    word_ids: np.ndarray
    tag_ids: np.ndarray
    offsets: np.ndarray
    ids: tuple[str, ...]
    labels: tuple[str | None, ...]
    source: str = ""

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ValueError(f"duplicate document id {Counter(self.ids).most_common(1)[0][0]!r}")

    def __len__(self) -> int:
        return len(self.ids)


class _FirstSeenIds(dict):
    """text -> id; looking up a new text gives it the next id."""

    def __missing__(self, text: str) -> int:
        self[text] = text_id = len(self)
        return text_id


def load_tagged_corpus(path, format: str = FORMAT_ONE_TOKEN_PER_LINE) -> TaggedCorpus:
    """Parse a tagged corpus file; tokens are lowercased at load time."""
    path = Path(path)
    if format == FORMAT_ONE_TOKEN_PER_LINE:
        columns = _parse_items(*_interned_lines(path), _parse_token_line, path,
                               lambda p, n: p + 1)
    elif format == FORMAT_INLINE:
        items = chain.from_iterable((*line.split(), "\n")
                                    for line in _lines(records.read_text(path)))
        columns = _parse_items(*_intern(items), _parse_piece, path, lambda p, n: n + 1)
    else:
        raise ValueError(f"unknown corpus format {format!r}")
    n_docs = len(columns[-1]) - 1
    if not n_docs:
        raise EmptyInputError(f"{path}: no documents found")
    return TaggedCorpus(*columns, ids=tuple(f"d{i:06d}" for i in range(n_docs)),
                        labels=(None,) * n_docs, source=str(path))


def _interned_lines(path: Path) -> tuple[np.ndarray, Sequence[str]]:
    """The id of each line of the format-A file ``path`` and its distinct
    lines in first-seen order: from the kernel, or, if it declines the file
    or cannot be loaded, from ``str.splitlines`` (module docstring)."""
    data = path.read_bytes()
    found = _intern_bytes(data)
    if found is None:
        text = records.decode(path, data)
        del data  # not needed again: freed before the lines are split
        return _intern(_lines(text))
    ids, spans = found
    texts = []
    for k, (start, end) in enumerate(spans.tolist()):
        try:
            texts.append(str(data[start:end], "utf-8"))
        except UnicodeDecodeError:
            # "\n" falls inside no UTF-8 sequence, so the first distinct line
            # that fails to decode is the file's first line that does
            bad = data[start:end].decode("utf-8", "surrogateescape")
            raise records.not_utf8(path, [bad], first=int(np.argmax(ids == k)) + 1) from None
    return ids, texts


# Distinct lines the kernel first has room for; the room doubles when full.
FIRST_ROOM = 256


def _intern_bytes(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The id of each line of ``data`` and the (start, end) byte span of each
    distinct line, by ``corpus_kernel.c``; None if it declines ``data`` (a
    line break other than ``"\\n"``) or cannot be loaded."""
    intern = _load_interner()
    if intern is None:
        return None
    ids = np.empty(data.count(b"\n") + 1, dtype=np.int32)
    spans = np.empty((FIRST_ROOM, 2), dtype=np.int64)
    state = np.zeros(3, dtype=np.int64)  # next line's offset, lines, distinct lines
    while True:
        slots = 1 << len(spans).bit_length()  # a power of two above the room
        status = intern(np.frombuffer(data, dtype=np.uint8), len(data), ids, spans, len(spans),
                        np.zeros(slots, dtype=np.uint64), slots, state)
        if status != 1:
            break
        # the room is full: the kernel resumes with twice the room
        spans = np.concatenate([spans, np.empty_like(spans)])
    if status < 0:
        return None
    lines, distinct = state[1:].tolist()
    return ids[:lines], spans[:distinct]


def _load_interner():
    """``corpus_intern`` of ``corpus_kernel.c`` (see :mod:`sentaxis.compiled`),
    or None if it cannot be built or loaded."""
    import ctypes
    from numpy.ctypeslib import ndpointer

    from . import compiled  # here, not at the top: importing sentaxis stays as fast

    count, out = ctypes.c_int64, ("C_CONTIGUOUS", "WRITEABLE")
    return compiled.kernel(
        "corpus_kernel", "corpus_intern",
        (ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS"), count,
         ndpointer(np.int32, ndim=1, flags=out), ndpointer(np.int64, ndim=2, flags=out), count,
         ndpointer(np.uint64, ndim=1, flags=out), count, ndpointer(np.int64, ndim=1, flags=out)),
        ctypes.c_int)


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, split a piece at a time (module docstring)."""
    return chain.from_iterable(piece.splitlines() for piece in _pieces(text, PIECE_CHARS))


def _pieces(text: str, size: int) -> Iterator[str]:
    """``text`` in pieces of at least ``size`` characters (the last may be
    shorter), each ending right after a ``"\\n"`` or at the end of ``text``."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + size - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _intern(items: Iterable[str]) -> tuple[np.ndarray, Sequence[str]]:
    """The id of each of ``items`` and the distinct items in first-seen order."""
    texts = _FirstSeenIds()
    return np.fromiter(map(texts.__getitem__, items), dtype=np.int32), texts


def _parse_items(item_ids: np.ndarray, texts: Sequence[str], parse: Callable, path,
                 line_of: Callable):
    """Columns of the documents (runs of tokens) in the items whose ids are
    ``item_ids``, distinct items ``texts``: format-A lines, or ``token_TAG``
    pieces with a ``"\\n"`` after each line's. ``parse`` gives an item's
    (word, tag), None for a separator, or raises ValueError, which is
    reported at ``line_of(p, n)``: the item at p, after n separators."""
    words, tags = _FirstSeenIds(), _FirstSeenIds()
    word_of, tag_of = np.full(len(texts), -1, dtype=np.int32), np.zeros(len(texts), np.int64)
    for k, text in enumerate(texts):
        try:
            token = parse(text)
        except ValueError as exc:
            # every item before text k's first one is of an earlier, parsed text
            p = int(np.argmax(item_ids == k))
            n = int(np.count_nonzero(word_of[item_ids[:p]] < 0))
            raise ParseError(str(exc), path=path, line=line_of(p, n)) from None
        if token is not None:
            word_of[k], tag_of[k] = words[token[0]], tags[token[1]]
    is_token = (word_of >= 0)[item_ids]
    # a document starts at each token after a separator (or at the first
    # item); its first token's index is its item's minus the separators before
    starts = np.flatnonzero(np.diff(is_token.view(np.int8), prepend=np.int8(0)) == 1)
    offsets = np.append(starts - np.searchsorted(np.flatnonzero(~is_token), starts),
                        np.count_nonzero(is_token)).astype(np.int64)
    token_items = item_ids[is_token]
    tag_of = tag_of.astype(np.min_scalar_type(len(tags)))
    return tuple(words), tuple(tags), word_of[token_items], tag_of[token_items], offsets


def _parse_token_line(line: str) -> tuple[str, str] | None:
    """The (word, tag) of one format-A line, or None for a blank line."""
    if not line.strip():
        return None
    parts = line.split("\t")
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise ValueError("expected 'token<TAB>TAG'")
    # the vector file, format B and the review format all separate tokens
    # by whitespace, so a token holding any could not be written back
    token = parts[0].strip().lower()
    if len(token.split()) != 1:
        raise ValueError(f"token {token!r} contains whitespace")
    return token, parts[1].strip()


def _parse_piece(piece: str) -> tuple[str, str] | None:
    """The (word, tag) of one ``token_TAG`` piece, or None for the end of a line."""
    if piece == "\n":
        return None
    word, sep, tag = piece.rpartition("_")
    if not sep or not word or not tag:
        raise ValueError(f"expected 'token_TAG', got {piece!r}")
    return word.lower(), tag


def load_labeled_reviews(path) -> TaggedCorpus:
    """Parse ``LABEL<TAB>token_TAG token_TAG ...`` records (see :mod:`.records`)."""
    _, rows = records.read(path, ("LABEL", "tagged text"))
    labels = tuple(label.upper() for _, (label, _) in rows)
    bad = next((i for i, label in enumerate(labels) if label not in (POS, NEG)), len(rows))
    # a bad piece on an earlier line than the first bad label is the first error
    items = chain.from_iterable((*text.split(), "\n") for _, (_, text) in rows[:bad])
    columns = _parse_items(*_intern(items), _parse_piece, path, lambda p, n: rows[n][0])
    if bad < len(rows):
        line, (label, _) = rows[bad]
        raise ParseError(f"label must be POS or NEG, got {label!r}", path=path, line=line)
    if not rows:
        raise EmptyInputError(f"{path}: no labeled reviews found")
    return TaggedCorpus(*columns, ids=tuple(f"r{i:06d}" for i in range(len(rows))),
                        labels=labels, source=str(path))


def load_polarity_lexicon(path) -> dict[str, float]:
    """A polarity lexicon of ``word<TAB>score`` records (see :mod:`.records`) as word ->
    centered score, 0 neutral. Words are lowercased; a repeated word keeps its last score."""
    _, rows = records.read(path, ("word", "score"))
    lexicon = {word.lower(): records.finite_float(path, line, score, "score")
               for line, (word, score) in rows}
    if not lexicon:
        raise EmptyInputError(f"{path}: no lexicon entries found")
    return lexicon
