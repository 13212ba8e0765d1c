"""Build tagged corpora in memory and write them to files, for tests."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from sentaxis.corpus import (
    FORMAT_INLINE,
    FORMAT_ONE_TOKEN_PER_LINE,
    TaggedCorpus,
    TaggedDocument,
    TaggedToken,
)


def make_corpus(token_lists: Sequence[Sequence[tuple[str, str]]],
                labels: Sequence[str | None] | None = None,
                source: str = "inline") -> TaggedCorpus:
    """Build a corpus from (token, tag) tuples."""
    docs = []
    for i, pairs in enumerate(token_lists):
        label = labels[i] if labels is not None else None
        docs.append(TaggedDocument(
            id=f"d{i:06d}",
            tokens=tuple(TaggedToken(text=w.lower(), tag=t) for w, t in pairs),
            label=label,
        ))
    return corpus_of(docs, source=source)


def corpus_of(documents: Sequence[TaggedDocument], source: str = "inline") -> TaggedCorpus:
    """The columns of these documents, words and tags numbered in first-seen order."""
    words: dict[str, int] = {}
    tags: dict[str, int] = {}
    tokens = [token for doc in documents for token in doc.tokens]
    word_ids = np.array([words.setdefault(t.text, len(words)) for t in tokens], dtype=np.int32)
    tag_ids = np.array([tags.setdefault(t.tag, len(tags)) for t in tokens], dtype=np.int16)
    offsets = np.cumsum([0] + [len(doc.tokens) for doc in documents], dtype=np.int64)
    return TaggedCorpus(tuple(words), tuple(tags), word_ids, tag_ids, offsets,
                        ids=tuple(doc.id for doc in documents),
                        labels=tuple(doc.label for doc in documents), source=source)


def join(corpora: Iterable[TaggedCorpus]) -> TaggedCorpus:
    """One corpus of the documents of ``corpora`` in order, renumbered."""
    docs = [doc for corpus in corpora for doc in corpus]
    return make_corpus([[(t.text, t.tag) for t in doc.tokens] for doc in docs],
                       labels=[doc.label for doc in docs])


def save_tagged_corpus(corpus: TaggedCorpus, path, format: str = FORMAT_ONE_TOKEN_PER_LINE) -> None:
    """Serialize a corpus; formats carry tokens and tags only (no ids, no labels)."""
    path = Path(path)
    lines: list[str] = []
    if format == FORMAT_ONE_TOKEN_PER_LINE:
        for i, doc in enumerate(corpus.documents):
            if i:
                lines.append("")
            lines.extend(f"{t.text}\t{t.tag}" for t in doc.tokens)
    elif format == FORMAT_INLINE:
        for doc in corpus.documents:
            lines.append(" ".join(f"{t.text}_{t.tag}" for t in doc.tokens))
    else:
        raise ValueError(f"unknown corpus format {format!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
