"""Dense word-vector tables and cosine geometry primitives.

Vectors are stored unnormalized; the geometry helpers normalize on the fly.
The on-disk text format is: a header line ``vocab_count dim`` followed by one
``word v1 v2 ... v_dim`` line per word (space separators, UTF-8). The same
format imports externally trained vectors. Words contain no whitespace;
trailing whitespace and blank lines are ignored; every value must be a finite
number, spelled as Python's ``float`` reads ASCII text without underscores
(``-1``, ``0.25``, ``2.5E-3``); ``1_000`` and non-ASCII digits are non-numeric.
Loading reads the file once, in blocks of lines that numpy's C reader
(``np.loadtxt``) parses. A block that fails is checked again line by line, so
every malformed row is named ``path:line``. A byte that is not UTF-8 is named
``path:line`` by reading a regular file again; from a pipe, only ``path``.
"""

from __future__ import annotations

import hashlib
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
        if any(not w for w in words):
            raise ValueError("words must be non-empty")
        if len(set(words)) != len(words):
            raise ValueError("words must be unique")
        self._words = tuple(words)
        self._index = {w: i for i, w in enumerate(self._words)}
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


def load_embeddings(path) -> EmbeddingTable:
    """Read a vector file (the format is in the module docstring)."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        st = os.fstat(fh.fileno())
        size = st.st_size if S_ISREG(st.st_mode) else None  # a pipe has none
        try:
            matrix = _read_header(fh, path, size)
            words = _read_rows(fh, path, matrix)
        except UnicodeDecodeError:
            if size is None:
                # the bytes before the bad one are consumed, so its line is unknown
                raise ParseError("not UTF-8", path=path) from None
            with path.open("r", encoding="utf-8", errors="surrogateescape") as again:
                raise records.not_utf8(path, again) from None
    return EmbeddingTable(words, matrix, metadata={"source": str(path)})


def _read_header(fh, path, size: int | None) -> np.ndarray:
    """The uninitialised ``vocab_count x dim`` matrix the header line promises;
    ``size`` is the file's size in bytes, None for a pipe."""
    header = fh.readline()
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


def _read_rows(fh, path, matrix: np.ndarray) -> list[str]:
    """Fill ``matrix`` from the rows after the header, a block of lines at a
    time; returns the words in file order. A block that fails to parse is
    checked again line by line to name its first bad line, so the file is
    read only once and a pipe works too."""
    vocab_count, dim = matrix.shape
    words: list[str] = []
    seen: set[str] = set()
    lineno = 2  # of the block's first line
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
    if len(words) != vocab_count:
        raise ParseError(f"header promised {vocab_count} rows, found {len(words)}", path=path)
    return words


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
