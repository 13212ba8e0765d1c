"""Build tagged corpora in memory and write them to files, for tests."""

from __future__ import annotations

from bisect import bisect_right
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from sentaxis.corpus import FORMAT_INLINE, FORMAT_ONE_TOKEN_PER_LINE, TaggedCorpus


def make_corpus(token_lists: Sequence[Sequence[tuple[str, str]]],
                labels: Sequence[str | None] | None = None,
                source: str = "inline") -> TaggedCorpus:
    """The columns of documents of (token, tag) tuples, tokens lowercased and
    words and tags numbered in first-seen order; documents are named d000000,
    d000001, ..."""
    words: dict[str, int] = {}
    tags: dict[str, int] = {}
    pairs = [(word.lower(), tag) for doc in token_lists for word, tag in doc]
    word_ids = np.array([words.setdefault(w, len(words)) for w, _ in pairs], dtype=np.int32)
    tag_ids = np.array([tags.setdefault(t, len(tags)) for _, t in pairs], dtype=np.int16)
    offsets = np.cumsum([0] + [len(doc) for doc in token_lists], dtype=np.int64)
    return TaggedCorpus(tuple(words), tuple(tags), word_ids, tag_ids, offsets,
                        ids=tuple(f"d{i:06d}" for i in range(len(token_lists))),
                        labels=tuple(labels or (None,) * len(token_lists)), source=source)


def documents(corpus: TaggedCorpus) -> list[tuple[str, tuple[tuple[str, str], ...], str | None]]:
    """Each document of ``corpus`` as ``(id, ((word, tag), ...), label)``."""
    tokens = list(zip(map(corpus.words.__getitem__, corpus.word_ids.tolist()),
                      map(corpus.tags.__getitem__, corpus.tag_ids.tolist())))
    bounds = corpus.offsets.tolist()
    return [(doc_id, tuple(tokens[a:b]), label)
            for doc_id, a, b, label in zip(corpus.ids, bounds, bounds[1:], corpus.labels)]


def occurrences(phrases) -> list[tuple[str, str, int, str, int]]:
    """Each occurrence of a ``patterns.Phrases`` as the fields of its phrase
    record: ``(w1, w2, rule, doc_id, position)``."""
    corpus = phrases.corpus
    words = list(map(corpus.words.__getitem__, corpus.word_ids.tolist()))
    bounds = corpus.offsets.tolist()
    rows = []
    for at, rule in zip(phrases.at.tolist(), phrases.rule.tolist()):
        doc = bisect_right(bounds, at) - 1
        rows.append((words[at], words[at + 1], rule, corpus.ids[doc], at - bounds[doc]))
    return rows


def join(corpora: Iterable[TaggedCorpus]) -> TaggedCorpus:
    """One corpus of the documents of ``corpora`` in order, renumbered."""
    docs = [doc for corpus in corpora for doc in documents(corpus)]
    return make_corpus([tokens for _, tokens, _ in docs], labels=[label for *_, label in docs])


def save_tagged_corpus(corpus: TaggedCorpus, path, format: str = FORMAT_ONE_TOKEN_PER_LINE) -> None:
    """Serialize a corpus; formats carry tokens and tags only (no ids, no labels)."""
    if format == FORMAT_ONE_TOKEN_PER_LINE:
        lines = "\n\n".join("\n".join(f"{w}\t{t}" for w, t in tokens)
                            for _, tokens, _ in documents(corpus))
    elif format == FORMAT_INLINE:
        lines = "\n".join(" ".join(f"{w}_{t}" for w, t in tokens)
                          for _, tokens, _ in documents(corpus))
    else:
        raise ValueError(f"unknown corpus format {format!r}")
    Path(path).write_text(lines + "\n", encoding="utf-8")


def save_reviews(corpus: TaggedCorpus, path) -> None:
    """Write a labeled corpus as ``LABEL<TAB>token_TAG token_TAG ...`` lines."""
    lines = (f"{label}\t" + " ".join(f"{w}_{t}" for w, t in tokens)
             for _, tokens, label in documents(corpus))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
