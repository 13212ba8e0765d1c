"""Dense word-vector tables and cosine geometry primitives.

Vectors are stored unnormalized; the geometry helpers normalize on the fly.
The on-disk text format is: a header line ``vocab_count dim`` followed by one
``word v1 v2 ... v_dim`` line per word (space separators, UTF-8). The same
format imports externally trained vectors. Words contain no whitespace;
trailing whitespace and blank lines are ignored; every value must be a finite
number, spelled as Python's ``float`` reads ASCII text without underscores
(``-1``, ``0.25``, ``2.5E-3``); ``1_000`` and non-ASCII digits are non-numeric.
Loading reads the file once, as bytes, in chunks of ``CHUNK_BYTES`` into one
reused buffer; a chunk's unfinished last line moves to the front of the next.
The compiled parser of ``vectors_kernel.c`` fills the matrix from each
chunk's whole lines; Python checks the words for repeats, and sends a chunk
holding one to the text path, which names it. The parser declines the
first line that is not plain: a byte outside printable ASCII, space, tab and
``"\\n"`` (so ``"\\r"`` and any non-ASCII word), ``inf`` or ``nan``, a value
whose digits it cannot turn into the double ``float`` reads with one exact
multiply or divide (more than 19 digits, a mantissa over 2^53 or a decimal
exponent past +-22, so 17-digit ``repr`` output), a wrong field count or a row
past the header's count; also a line longer than a chunk, a last line with no
``"\\n"``, and a header holding ``"\\r"``. From that line on, the text path reads
the rest of the input: blocks of lines that numpy's C reader (``np.loadtxt``)
parses. A block that fails is checked again line by line, so every malformed
row is named ``path:line``. Without a C compiler, or if the build fails, the
text path reads every row; ``table.metadata["vector_parser"]`` is ``"c"`` if
the compiled parser read every row, else ``"numpy"``. Both give the same
bits and the same errors. A byte that is not UTF-8 is named ``path:line`` by
reading a regular file again; from a pipe, only ``path``.
"""

from __future__ import annotations

import hashlib
import io
import os
from itertools import islice
from pathlib import Path
from stat import S_ISREG
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import records
from .errors import DegenerateVectorError, ParseError


class EmbeddingTable(Mapping[str, np.ndarray]):
    """Immutable word -> vector mapping backed by a single matrix."""

    def __init__(self, words: Sequence[str], matrix: np.ndarray,
                 metadata: dict | None = None):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        if len(words) != matrix.shape[0]:
            raise ValueError("word count does not match matrix rows")
        if matrix.shape[1] < 1:
            raise ValueError("vector dimension must be positive")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("vectors must be finite")
        if not all(words):
            raise ValueError("words must be non-empty")
        self._words = tuple(words)
        self._index = dict(zip(self._words, range(len(self._words))))
        if len(self._index) != len(self._words):
            raise ValueError("words must be unique")
        self._matrix = matrix
        self._matrix.flags.writeable = False
        self.metadata = dict(metadata or {})

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def words(self) -> tuple[str, ...]:
        return self._words

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def __len__(self) -> int:
        return len(self._words)

    def __iter__(self) -> Iterator[str]:
        return iter(self._words)

    def __contains__(self, word) -> bool:
        return word in self._index

    def __getitem__(self, word: str) -> np.ndarray:
        """The word's vector; a word not in the table raises ``KeyError``, so
        ``get`` gives None for it."""
        return self._matrix[self._index[word]]

    def fingerprint(self) -> str:
        """Stable short hash over vocabulary and vector bytes."""
        h = hashlib.sha256()
        h.update(str(self.dim).encode())
        h.update("".join("\x00" + w for w in self._words).encode("utf-8"))
        h.update(np.ascontiguousarray(self._matrix))  # its buffer, not a copy
        return h.hexdigest()[:16]


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write ``table`` in the text format; a word holding whitespace is
    rejected before the file is opened, since it could not be read back."""
    for word in table.words:
        if word.split() != [word]:
            raise ValueError(f"word {word!r} contains whitespace")
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word in table.words:
            values = " ".join(repr(float(v)) for v in table[word])
            fh.write(f"{word} {values}\n")


# Lines parsed per np.loadtxt call. Loading a 20,000 x 100 file takes about
# as long with 256 as with 1,024, but the memory a block's lines and values
# leave with the allocator adds to the pipeline's peak: +0.5 MB at 256 lines,
# +2 MB at 1,024.
BLOCK_LINES = 256

# Bytes read at a time for the compiled parser, into one reused buffer. A
# line longer than this goes to the text path.
CHUNK_BYTES = 1 << 18


def load_embeddings(path) -> EmbeddingTable:
    """Read a vector file (the format is in the module docstring)."""
    path = Path(path)
    with path.open("rb", buffering=0) as raw:
        st = os.fstat(raw.fileno())
        size = st.st_size if S_ISREG(st.st_mode) else None  # a pipe has none
        try:
            matrix, words, parser = _read(raw, path, size)
        except UnicodeDecodeError:
            if size is None:
                # the bytes before the bad one are consumed, so its line is unknown
                raise ParseError("not UTF-8", path=path) from None
            with path.open("r", encoding="utf-8", errors="surrogateescape") as again:
                raise records.not_utf8(path, again) from None
    if len(words) != len(matrix):
        raise ParseError(f"header promised {len(matrix)} rows, found {len(words)}", path=path)
    return EmbeddingTable(words, matrix, metadata={"source": str(path), "vector_parser": parser})


def _read(raw, path, size: int | None) -> tuple[np.ndarray, list[str], str]:
    """The matrix, the words in file order and the parser that read every
    row (``"c"``, else ``"numpy"``) of the file open as ``raw``. The rows go
    to the compiled parser a chunk of whole lines at a time. From the first
    line it declines, the text path reads the rest."""
    buf = bytearray(CHUNK_BYTES)
    view = memoryview(buf)
    filled = _fill(raw, view, 0)
    pos = buf.find(b"\n", 0, filled) + 1  # of the first row
    parse = _load_parser()
    if not pos or parse is None or buf.find(b"\r", 0, pos) >= 0:
        # a lone "\r" ends a line where a text stream reads the header
        return _read_text(buf[:filled], raw, path, size, None, [], 2)
    matrix = _read_header(str(view[:pos], "utf-8"), path, size)
    dim = matrix.shape[1]
    data = np.frombuffer(buf, dtype=np.uint8)
    # a row takes at least 2 * dim + 2 bytes
    spans = np.empty(2 * (CHUNK_BYTES // (2 * dim + 2)), dtype=np.int64)
    stop = np.empty(2, dtype=np.int64)
    words: list[str] = []
    seen: set[str] = set()
    lineno = 2
    while True:
        end = buf.rfind(b"\n", pos, filled) + 1  # of the chunk's whole lines
        if end:
            rows = parse(data[pos:], end - pos, dim, len(matrix) - len(words),
                         matrix[len(words):], spans, stop)
            parsed, lines = stop.tolist()
            chunk = str(view[pos:pos + parsed], "ascii")
            bounds = iter(spans[:2 * rows].tolist())
            new = [chunk[i:j] for i, j in zip(bounds, bounds)]
            seen.update(new)
            if len(seen) == len(words) + rows:  # else the chunk repeats a word
                words += new
                lineno += lines
                pos += parsed
            if pos < end:  # the text path names a repeat, reads a declined line
                return _read_text(buf[pos:filled], raw, path, size, matrix, words, lineno)
        # keep the unfinished last line and read on after it
        tail = filled - pos
        view[:tail] = buf[pos:filled]
        filled = _fill(raw, view, tail)
        pos = 0
        if filled == tail:
            if tail:  # a line longer than the buffer, or a last line with no "\n"
                return _read_text(buf[:tail], raw, path, size, matrix, words, lineno)
            return matrix, words, "c"


def _fill(raw, view: memoryview, start: int) -> int:
    """Read from ``raw`` into ``view[start:]`` until it is full or the input
    ends (a pipe hands over less at a time); returns the bytes in ``view``."""
    while start < len(view) and (read := raw.readinto(view[start:])):
        start += read
    return start


def _read_text(head: bytes, raw, path, size, matrix, words, lineno):
    """:func:`_read` on the text path, from ``head`` and the rest of ``raw``
    on: with no ``matrix``, from the header; else from row ``len(words)``,
    at line ``lineno``."""
    fh = io.TextIOWrapper(io.BufferedReader(_Chained(head, raw)), encoding="utf-8")
    if matrix is None:
        matrix = _read_header(fh.readline(), path, size)
    return matrix, _read_rows(fh, path, matrix, words, lineno), "numpy"


class _Chained(io.RawIOBase):
    """A raw stream of ``head``, then of what ``raw`` has left."""

    def __init__(self, head: bytes, raw):
        self._head = memoryview(head)
        self._raw = raw

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        if not self._head:
            return self._raw.readinto(b)
        n = min(len(b), len(self._head))
        b[:n] = self._head[:n]
        self._head = self._head[n:]
        return n


def _read_header(header: str, path, size: int | None) -> np.ndarray:
    """The uninitialised ``vocab_count x dim`` matrix the header line promises;
    ``size`` is the file's size in bytes, None for a pipe."""
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("header must be 'vocab_count dim'", path=path, line=1)
    try:
        vocab_count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header must be 'vocab_count dim'", path=path, line=1) from None
    if vocab_count < 1 or dim < 1:
        raise ParseError("vocab_count and dim must be positive", path=path, line=1)
    # Every row takes at least 2*dim + 1 bytes (a one-byte word, then a
    # separator and a digit per value), so a header promising more than
    # the file can hold is rejected before the matrix is allocated. A pipe
    # reports no size, so only regular files are checked.
    if size is not None and vocab_count * (2 * dim + 1) > size:
        raise ParseError(
            f"header promises {vocab_count} rows of {dim} values, "
            f"more than {size} bytes can hold", path=path, line=1)
    try:
        return np.empty((vocab_count, dim), dtype=np.float64)
    except MemoryError:
        raise ParseError(
            f"header promises {vocab_count} rows of {dim} values, "
            "more than memory can hold", path=path, line=1) from None


def _read_rows(fh, path, matrix: np.ndarray, words: list[str], lineno: int) -> list[str]:
    """Fill ``matrix`` from row ``len(words)`` on with the rows of the text
    stream ``fh``, whose first line is line ``lineno``, a block of lines at a
    time; returns ``words`` with the new rows' words appended. A block that
    fails to parse is checked again line by line to name its first bad line,
    so the file is read only once and a pipe works too."""
    vocab_count, dim = matrix.shape
    seen = set(words)
    nonfinite = None  # (first line, lines, values) of the first block holding one
    while block := list(islice(fh, BLOCK_LINES)):
        start = len(words)
        try:
            values = _parse_block(block, words, dim)
            seen.update(words[start:])
            if len(seen) != len(words) or len(words) > vocab_count:
                raise ValueError("a repeated word or more rows than the header promised")
        except ValueError:
            del words[start:]
            _check_lines(path, block, lineno, dim, set(words), vocab_count - start)
            raise  # not reached: _check_lines applies every rule the block parse does
        matrix[start:len(words)] = values
        if nonfinite is None and not np.isfinite(values).all():
            nonfinite = (lineno, block, values)
        lineno += len(block)
    # a non-finite value is reported only once every row is known well-formed
    if nonfinite is not None:
        lineno, block, values = nonfinite
        row = int(np.argmin(np.isfinite(values).all(axis=1)))
        i = [i for i, text in enumerate(block) if not text.isspace()][row]
        raise ParseError(f"non-finite vector component for {block[i].split()[0]!r}",
                         path=path, line=lineno + i)
    return words


def _load_parser():
    """``vectors_parse`` of ``vectors_kernel.c`` (see :mod:`sentaxis.compiled`),
    or None if it cannot be built or loaded."""
    import ctypes
    from numpy.ctypeslib import ndpointer

    from . import compiled  # here, not at the top: importing sentaxis stays as fast

    count, out = ctypes.c_int64, ("C_CONTIGUOUS", "WRITEABLE")
    return compiled.kernel(
        "vectors_kernel", "vectors_parse",
        (ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS"), count, count, count,
         ndpointer(np.float64, ndim=2, flags=out), ndpointer(np.int64, ndim=1, flags=out),
         ndpointer(np.int64, ndim=1, flags=out)), count)


def _parse_block(lines: list[str], words: list[str], dim: int) -> np.ndarray:
    """The ``n x dim`` values of the rows among ``lines``, parsed by numpy's
    C reader; appends each row's word to ``words``. Raises ``ValueError``
    unless every non-blank line is a word and ``dim`` numbers."""
    if all(line.isspace() for line in lines):
        return np.empty((0, dim))  # np.loadtxt warns on input without data
    # comments=None: a word may start with '#'. encoding=None: numpy 1's
    # default, "bytes", would hand the word converter Latin-1 bytes
    table = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2, encoding=None,
                       converters={0: lambda word: words.append(word) or 0.0})
    if table.shape[1] != dim + 1:
        raise ValueError(f"expected {dim + 1} fields, got {table.shape[1]}")
    return table[:, 1:]


def _check_lines(path, lines: list[str], first_line: int, dim: int,
                 seen: set[str], room: int) -> None:
    """Raise a :class:`ParseError` at the first of ``lines`` that breaks a row
    rule. ``seen`` holds the words of the rows before them, ``room`` is how
    many more rows the header allows."""
    for lineno, line in enumerate(lines, start=first_line):
        row = line.split()
        if not row:
            continue
        if len(row) != dim + 1:
            raise ParseError(
                f"expected {dim} values for word {row[0]!r}, got {len(row) - 1}",
                path=path, line=lineno)
        if room == 0:
            raise ParseError("more rows than the header promised", path=path, line=lineno)
        word = row[0]
        if word in seen:
            raise ParseError(f"duplicate word {word!r}", path=path, line=lineno)
        try:
            _parse_block([line], [], dim)
        except ValueError:
            raise ParseError(f"non-numeric vector component for {word!r}",
                             path=path, line=lineno) from None
        seen.add(word)
        room -= 1


def _checked_norms(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"vector lengths differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateVectorError("cosine of a zero vector is undefined")
    return na, nb


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """dot(a,b) / (|a||b|), clamped into [-1, 1] against round-off."""
    na, nb = _checked_norms(a, b)
    sim = float(np.dot(a, b)) / (na * nb)
    return max(-1.0, min(1.0, sim))


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cosine_similarity; ranges over [0, 2]."""
    return 1.0 - cosine_similarity(a, b)
