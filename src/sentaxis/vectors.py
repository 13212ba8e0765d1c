"""Dense word-vector tables and cosine geometry primitives.

Vectors are stored unnormalized; the geometry helpers normalize on the fly.
The on-disk text format is: a header line ``vocab_count dim`` followed by one
``word v1 v2 ... v_dim`` line per word (space separators, UTF-8). The same
format imports externally trained vectors. Words contain no whitespace;
trailing whitespace and blank lines are ignored; every value must be a finite
number. Loading streams the file once, in time linear in its size, and names
``path:line`` for every malformed row.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from stat import S_ISREG
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DegenerateVectorError, OovError, ParseError


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
        try:
            return self._matrix[self._index[word]]
        except KeyError:
            raise OovError(f"word {word!r} not in vocabulary") from None

    def fingerprint(self) -> str:
        """Stable short hash over vocabulary and vector bytes."""
        h = hashlib.sha256()
        h.update(str(self.dim).encode())
        for w in self._words:
            h.update(b"\x00")
            h.update(w.encode("utf-8"))
        h.update(np.ascontiguousarray(self._matrix).tobytes())
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


def load_embeddings(path) -> EmbeddingTable:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
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
        st = os.fstat(fh.fileno())
        if S_ISREG(st.st_mode) and vocab_count * (2 * dim + 1) > st.st_size:
            raise ParseError(
                f"header promises {vocab_count} rows of {dim} values, "
                f"more than {st.st_size} bytes can hold", path=path, line=1)
        try:
            matrix = np.empty((vocab_count, dim), dtype=np.float64)
        except MemoryError:
            raise ParseError(
                f"header promises {vocab_count} rows of {dim} values, "
                "more than memory can hold", path=path, line=1) from None
        lines: dict[str, int] = {}  # word -> its line number, in file order
        lineno = 1
        for line in fh:
            lineno += 1
            row = line.split()
            if not row:
                continue
            if len(row) != dim + 1:
                raise ParseError(
                    f"expected {dim} values for word {row[0]!r}, got {len(row) - 1}",
                    path=path, line=lineno)
            if len(lines) >= vocab_count:
                raise ParseError("more rows than the header promised", path=path, line=lineno)
            word = row[0]
            if word in lines:
                raise ParseError(f"duplicate word {word!r}", path=path, line=lineno)
            try:
                matrix[len(lines)] = row[1:]
            except ValueError:
                raise ParseError(f"non-numeric vector component for {word!r}",
                                 path=path, line=lineno) from None
            lines[word] = lineno
    words = list(lines)
    finite = np.isfinite(matrix[:len(words)]).all(axis=1)
    if not finite.all():
        word = words[int(np.argmin(finite))]
        raise ParseError(f"non-finite vector component for {word!r}",
                         path=path, line=lines[word])
    if len(words) != vocab_count:
        raise ParseError(f"header promised {vocab_count} rows, found {len(words)}", path=path)
    return EmbeddingTable(words, matrix, metadata={"source": str(path)})


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
