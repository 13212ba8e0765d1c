"""Tagged-corpus, polarity-lexicon and frequency-table I/O.

Two tagged-corpus file formats are supported:

* ``one-token-per-line`` -- ``token<TAB>TAG`` per line, blank line between
  documents, UTF-8.
* ``inline`` -- one document per line, tokens written ``token_TAG`` and
  separated by spaces (the tag follows the last underscore).

Labeled review sets use a third format: ``LABEL<TAB>token_TAG token_TAG ...``
with one review per line and LABEL in {POS, NEG}.

A tagged corpus is decoded whole but split into lines a piece of about
``PIECE_CHARS`` characters at a time, so the lines of a large file never all
exist at once. Each piece ends right after a ``"\\n"``, so no ``"\\r\\n"`` is
cut, and every other line break ``str.splitlines`` knows is one character:
the pieces' lines are exactly the whole text's lines, numbered the same.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

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

@dataclass(frozen=True, slots=True)
class TaggedToken:
    text: str
    tag: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("token text must be non-empty")
        if not self.tag:
            raise ValueError("token tag must be non-empty")


@dataclass(frozen=True, slots=True)
class TaggedDocument:
    id: str
    tokens: tuple[TaggedToken, ...]
    label: str | None = None

    def __post_init__(self):
        if not self.tokens:
            raise ValueError(f"document {self.id!r} has no tokens")
        if self.label is not None and self.label not in (POS, NEG):
            raise ValueError(f"document {self.id!r} has label {self.label!r}")


@dataclass(frozen=True, slots=True)
class TaggedCorpus:
    documents: tuple[TaggedDocument, ...]
    source: str = ""

    def __post_init__(self):
        ids = [d.id for d in self.documents]
        if len(ids) != len(set(ids)):
            seen, dup = set(), None
            for i in ids:
                if i in seen:
                    dup = i
                    break
                seen.add(i)
            raise ValueError(f"duplicate document id {dup!r}")

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


@dataclass(frozen=True, slots=True)
class PolarityLexicon:
    """word -> centered real polarity score; 0 is neutral."""

    entries: dict[str, float]
    duplicate_count: int = 0

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def score(self, word: str) -> float:
        return self.entries[word]


@dataclass(frozen=True, slots=True)
class FreqTable:
    counts: dict[str, int]
    total: int = field(default=0)

    def __post_init__(self):
        if self.total != sum(self.counts.values()):
            raise ValueError("total does not match sum of counts")


def _finish_document(doc_index: int, tokens: list[TaggedToken]) -> TaggedDocument:
    return TaggedDocument(id=f"d{doc_index:06d}", tokens=tuple(tokens))


def load_tagged_corpus(path, format: str = FORMAT_ONE_TOKEN_PER_LINE) -> TaggedCorpus:
    """Parse a tagged corpus file; tokens are lowercased at load time."""
    path = Path(path)
    text = records.read_text(path)
    if format == FORMAT_ONE_TOKEN_PER_LINE:
        documents = _parse_one_token_per_line(text, path)
    elif format == FORMAT_INLINE:
        documents = _parse_inline(text, path)
    else:
        raise ValueError(f"unknown corpus format {format!r}")
    if not documents:
        raise EmptyInputError(f"{path}: no documents found")
    return TaggedCorpus(documents=tuple(documents), source=str(path))


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


def _parse_one_token_per_line(text: str, path) -> list[TaggedDocument]:
    documents: list[TaggedDocument] = []
    tokens: list[TaggedToken] = []
    # a line's token depends only on its text, and a corpus repeats few
    # distinct lines, so each is parsed (and checked) once, at its first line
    parsed: dict[str, TaggedToken | None] = {}
    for lineno, line in enumerate(_lines(text), start=1):
        try:
            token = parsed[line]
        except KeyError:
            token = parsed[line] = _parse_token_line(line, path, lineno)
        if token is not None:
            tokens.append(token)
        elif tokens:
            documents.append(_finish_document(len(documents), tokens))
            tokens = []
    if tokens:
        documents.append(_finish_document(len(documents), tokens))
    return documents


def _parse_token_line(line: str, path, lineno: int) -> TaggedToken | None:
    """The token of one format-A line, or None for a blank line."""
    if not line.strip():
        return None
    parts = line.split("\t")
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise ParseError("expected 'token<TAB>TAG'", path=path, line=lineno)
    # the vector file, format B and the review format all separate tokens
    # by whitespace, so a token holding any could not be written back
    token = parts[0].strip().lower()
    if len(token.split()) != 1:
        raise ParseError(f"token {token!r} contains whitespace", path=path, line=lineno)
    return TaggedToken(text=token, tag=parts[1].strip())


def _parse_inline(text: str, path) -> list[TaggedDocument]:
    documents: list[TaggedDocument] = []
    parsed: dict[str, TaggedToken] = {}
    for lineno, line in enumerate(_lines(text), start=1):
        if not line.strip():
            continue
        tokens = _parse_inline_tokens(line, path, lineno, parsed)
        documents.append(_finish_document(len(documents), tokens))
    return documents


def _parse_inline_tokens(line: str, path, lineno: int,
                         parsed: dict[str, TaggedToken]) -> list[TaggedToken]:
    """Tokens of one ``token_TAG ...`` line; ``parsed`` caches each distinct piece."""
    tokens = []
    for piece in line.split():
        try:
            token = parsed[piece]
        except KeyError:
            word, sep, tag = piece.rpartition("_")
            if not sep or not word or not tag:
                raise ParseError(
                    f"expected 'token_TAG', got {piece!r}", path=path, line=lineno
                ) from None
            token = parsed[piece] = TaggedToken(text=word.lower(), tag=tag)
        tokens.append(token)
    return tokens


def load_labeled_reviews(path) -> TaggedCorpus:
    """Parse ``LABEL<TAB>token_TAG token_TAG ...`` records (see :mod:`.records`)."""
    _, rows = records.read(path, ("LABEL", "tagged text"))
    documents: list[TaggedDocument] = []
    parsed: dict[str, TaggedToken] = {}
    for line, (label, text) in rows:
        if label.strip().upper() not in (POS, NEG):
            raise ParseError(f"label must be POS or NEG, got {label!r}", path=path, line=line)
        tokens = _parse_inline_tokens(text, path, line, parsed)
        documents.append(TaggedDocument(id=f"r{len(documents):06d}", tokens=tuple(tokens),
                                        label=label.strip().upper()))
    if not documents:
        raise EmptyInputError(f"{path}: no labeled reviews found")
    return TaggedCorpus(documents=tuple(documents), source=str(path))


def load_polarity_lexicon(path) -> PolarityLexicon:
    """Parse a polarity lexicon of ``word<TAB>score`` records (see :mod:`.records`).

    Words are lowercased. Duplicate words keep the last entry; the number of
    overwritten entries is recorded in ``duplicate_count``.
    """
    _, rows = records.read(path, ("word", "score"))
    entries = {word.strip().lower(): records.finite_float(path, line, score, "score")
               for line, (word, score) in rows}
    if not entries:
        raise EmptyInputError(f"{path}: no lexicon entries found")
    return PolarityLexicon(entries=entries, duplicate_count=len(rows) - len(entries))


def save_polarity_lexicon(lexicon: PolarityLexicon, path) -> None:
    records.write(path, sorted(lexicon.entries.items()))


def count_frequencies(corpus: TaggedCorpus | Iterable[TaggedDocument]) -> FreqTable:
    """Token-occurrence counts over the whole corpus, keyed by word string."""
    counts: Counter[str] = Counter()
    for doc in corpus:
        counts.update(t.text for t in doc.tokens)
    return FreqTable(counts=dict(counts), total=sum(counts.values()))
