"""Dense word-vector tables and cosine geometry primitives.

Vectors are stored unnormalized; the geometry helpers normalize on the fly.
The on-disk text format is: a header line ``vocab_count dim`` of ASCII digits
followed by one ``word v1 v2 ... v_dim`` line per word (space separators,
UTF-8). The same format imports externally trained vectors. Words contain no
whitespace; trailing whitespace and blank lines are ignored; every value must
be a finite number, spelled as Python's ``float`` reads ASCII text without
underscores (``-1``, ``0.25``, ``2.5E-3``); ``1_000`` and non-ASCII digits are
non-numeric. Loading reads the input once, as bytes, in chunks of
``CHUNK_BYTES`` into one buffer, which grows to hold a longer line. The
compiled parser of ``vectors_kernel.c`` fills the matrix from a chunk's whole
lines with ``float``'s bits, and stops at a line that is not plain (a byte
outside printable ASCII, space, tab and ``"\\n"``, ``inf``, ``nan``, a
subnormal, more than 19 significant digits, a wrong field count). Python
reads that line with ``split`` and ``float`` and names its error
``path:line``, bytes that are not UTF-8 included; then the parser resumes
(after a run of declined lines, Python reads on in growing spans).
Python also reads the header and a last line with no ``"\\n"``, and without
a C compiler, every line. ``table.metadata["vector_parser"]`` is ``"c"`` if
the compiled parser read every row, else ``"python"``.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from pathlib import Path
from stat import S_ISREG
from typing import Sequence

import numpy as np

from . import records
from .errors import DegenerateVectorError, ParseError


class EmbeddingTable:
    """Immutable word -> vector table backed by a single matrix."""

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

    def __contains__(self, word) -> bool:
        return word in self._index

    def __getitem__(self, word: str) -> np.ndarray:
        """The word's vector; a word not in the table raises ``KeyError``."""
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
        for word, row in zip(table.words, table.matrix.tolist()):
            fh.write(f"{word} {' '.join(map(repr, row))}\n")


# Bytes read at a time, into one reused buffer; a longer line grows it.
CHUNK_BYTES = 1 << 18


def load_embeddings(path) -> EmbeddingTable:
    """Read a vector file (the format is in the module docstring)."""
    path = Path(path)
    with path.open("rb") as raw:
        st = os.fstat(raw.fileno())
        rows = _Rows(path, st.st_size if S_ISREG(st.st_mode) else None)  # a pipe has none
        parser = _read(raw, rows)
    if rows.matrix is None:  # an empty file
        _header([], path, None)
    if rows.nonfinite:  # reported only once every row is known well-formed
        line, word = rows.nonfinite
        raise ParseError(f"non-finite vector component for {word!r}", path=path, line=line)
    if len(rows.words) != len(rows.matrix):
        raise ParseError(f"header promised {len(rows.matrix)} rows, found {len(rows.words)}",
                         path=path)
    return EmbeddingTable(rows.words, rows.matrix,
                          metadata={"source": str(path), "vector_parser": parser})


class _Rows:
    """The header and the rows of a vector file read so far, and the Python
    reader of the lines the compiled parser does not take."""

    def __init__(self, path, size: int | None):
        self.path, self.size = path, size  # size in bytes, None for a pipe
        self.matrix: np.ndarray | None = None  # once the header is read
        self.words: list[str] = []
        self.seen: set[str] = set()
        self.line = 1  # the number of the next line
        self.python = False  # whether a row was read here
        self.nonfinite: tuple[int, str] | None = None  # (line, word) of the first

    def read(self, data: bytes) -> None:
        """Read the lines of ``data`` (a lone ``"\\r"`` ends one too, as in a
        text stream): the header if it is not read yet, then rows."""
        path, lines = self.path, data.splitlines()
        for line, text in enumerate(lines, start=self.line):
            try:
                fields = text.decode("utf-8").split()
            except UnicodeDecodeError:
                raise records.not_utf8(path, [text.decode("utf-8", "surrogateescape")],
                                       first=line) from None
            if self.matrix is None:
                self.matrix = _header(fields, path, self.size)
            elif fields:
                word, values = fields[0], fields[1:]
                matrix, n = self.matrix, len(self.words)
                if len(values) != matrix.shape[1]:
                    raise ParseError(f"expected {matrix.shape[1]} values for word {word!r}, "
                                     f"got {len(values)}", path=path, line=line)
                if n == len(matrix):
                    raise ParseError("more rows than the header promised", path=path, line=line)
                if word in self.seen:
                    raise ParseError(f"duplicate word {word!r}", path=path, line=line)
                try:
                    row = list(map(float, values))
                except ValueError:
                    row = None
                spelled = "".join(values)
                if row is None or "_" in spelled or not spelled.isascii():
                    raise ParseError(f"non-numeric vector component for {word!r}",
                                     path=path, line=line)
                # a sum is finite if every value is
                if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
                    self.nonfinite = self.nonfinite or (line, word)
                matrix[n] = row
                self.words.append(word)
                self.seen.add(word)
                self.python = True
        self.line += len(lines)


def _header(fields: list[str], path, size: int | None) -> np.ndarray:
    """The uninitialised ``vocab_count x dim`` matrix the header's ``fields``
    promise; ``size`` is the file's size in bytes, None for a pipe."""
    if len(fields) != 2 or not all(f.isascii() and f.isdigit() for f in fields):
        raise ParseError("header must be 'vocab_count dim'", path=path, line=1)
    vocab_count, dim = int(fields[0]), int(fields[1])
    if vocab_count < 1 or dim < 1:
        raise ParseError("vocab_count and dim must be positive", path=path, line=1)
    # Every row takes at least 2*dim + 1 bytes (a one-byte word, then a
    # separator and a digit per value), so a header promising more than
    # the file can hold is rejected before the matrix is allocated.
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


def _read(raw, rows: _Rows) -> str:
    """Read the file open as ``raw`` into ``rows``; returns the parser that
    read every row: ``"c"``, else ``"python"``. The compiled parser takes a
    buffer of whole lines at a time; ``rows.read`` takes the rest."""
    parse = _load_parser()
    buf = bytearray(CHUNK_BYTES)
    filled = pos = 0
    # Bytes of whole lines Python reads from a declined line on: one line,
    # doubling while the parser declines the first line it is given, so that
    # a run of declined lines costs few calls
    span = 1
    while True:
        # a buffered stream fills the buffer unless the input ends, a pipe too
        filled += raw.readinto(memoryview(buf)[filled:])
        end = buf.rfind(b"\n", pos, filled) + 1  # after the buffer's whole lines
        while pos < end:
            if parse is not None and rows.matrix is not None:
                start, pos = pos, _parse(parse, buf, pos, end, rows)
                span = 1 if pos > start else min(2 * span, len(buf))
            if pos < end:
                stop = end if parse is None else buf.find(b"\n", min(pos + span, end) - 1, end) + 1
                rows.read(buf[pos:stop])
                pos = stop
        if filled < len(buf):  # the input has ended
            rows.read(buf[pos:filled])
            return "c" if parse is not None and not rows.python else "python"
        # keep the unfinished last line and read on after it
        if pos == 0:  # a line longer than the buffer
            buf = buf + bytes(len(buf))
        buf[:filled - pos] = buf[pos:filled]
        filled, pos = filled - pos, 0


def _parse(parse, buf: bytearray, pos: int, end: int, rows: _Rows) -> int:
    """Let the compiled parser read the lines of ``buf[pos:end]`` into ``rows``;
    returns the offset of the first line it does not take, ``end`` if none."""
    matrix, words = rows.matrix, rows.words
    dim, size, start = matrix.shape[1], end - pos, len(words)
    data = np.frombuffer(buf, dtype=np.uint8, count=size, offset=pos)
    spans = np.empty(2 * (size // (2 * dim + 2)), dtype=np.int64)  # a row's least bytes
    stop = np.empty(2, dtype=np.int64)
    taken = parse(data, size, dim, len(matrix) - start, matrix[start:], spans, stop)
    parsed, lines = stop.tolist()
    text = str(memoryview(buf)[pos:pos + parsed], "ascii")
    bounds = iter(spans[:2 * taken].tolist())
    new = [text[i:j] for i, j in zip(bounds, bounds)]
    rows.seen.update(new)
    if len(rows.seen) != start + taken:  # a word repeats: the Python reader names it
        rows.seen = set(words)
        rows.read(buf[pos:end])
        return end
    words += new
    rows.line += lines
    return pos + parsed


@functools.cache
def _powers_of_five() -> np.ndarray:
    """The table of the Eisel-Lemire step in ``vectors_kernel.c``, built from
    exact integers as fast_float builds it: for q in [-342, 308], the 128
    leading bits of 5^q (for q < 0, of 2^k / 5^-q rounded up), high word first."""
    words = []
    for q in range(-342, 309):
        power = 5 ** abs(q)
        if q >= 0:
            value = (power << 128) >> power.bit_length()
        else:
            z = (power - 1).bit_length()  # the least z with 2^z >= 5^-q
            value = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // power + 1
            value >>= value.bit_length() - 128
        words += divmod(value, 1 << 64)
    return np.array(words, dtype=np.uint64)


def _load_parser():
    """``vectors_parse`` of ``vectors_kernel.c`` (see :mod:`sentaxis.compiled`)
    with its table bound, or None if it cannot be built or loaded."""
    import ctypes
    from numpy.ctypeslib import ndpointer

    from . import compiled  # here, not at the top: importing sentaxis stays as fast

    count, out = ctypes.c_int64, ("C_CONTIGUOUS", "WRITEABLE")
    parse = compiled.kernel(
        "vectors_kernel", "vectors_parse",
        (ndpointer(np.uint64, ndim=1, flags="C_CONTIGUOUS"),
         ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS"), count, count, count,
         ndpointer(np.float64, ndim=2, flags=out), ndpointer(np.int64, ndim=1, flags=out),
         ndpointer(np.int64, ndim=1, flags=out)), count)
    return None if parse is None else functools.partial(parse, _powers_of_five())


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
