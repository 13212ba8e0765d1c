"""PMI-based semantic orientation over a local proximity index.

A NEAR(window) co-occurrence index over a corpus substitutes for Turney's
search-engine hit counts. As a search engine counts the pages that match a
query, a hit is a document: a document counts once however many matches it
holds. Two terms are NEAR when some pair of their occurrences lies within the
window regardless of order, and a two-word phrase is a contiguous bigram
anchored at its first token.

The orientation of a phrase is
log2[(hits(phrase NEAR pos_seed) * hits(neg_seed)) /
     (hits(phrase NEAR neg_seed) * hits(pos_seed))]
with 0.01 substituted for zero NEAR counts. Zero seed marginals are an error:
the corpus cannot support the baseline. A review is labeled by
``corpus.label_for`` of its phrases' mean orientation, the rule the axis
lexicon's reviews are labeled by. ``classify_review_pmi`` looks a review's
phrases up in the orientations ``so_phrase`` gave each distinct phrase once.

The index is a few numpy arrays. ``terms`` holds one int32 term id per token,
the documents laid end to end, each followed by ``pad = min(window, longest
document)`` slots of a padding id that no term has, and ``doc_of`` the
document of each slot. Queries reach ``pad`` slots either way: two tokens of
one document are at most ``longest - 1`` apart, so clamping the window to the
longest document changes no answer, and two tokens of different documents
are at least ``pad + 1`` apart, so no window crosses a document boundary.
One stable argsort of ``terms`` lists every term's positions in ascending
order; ``postings`` holds each term's slice of it.

A phrase's positions are its first word's positions whose next slot holds
its second word. The next-word array of a first word (``terms`` at each of
its positions plus one) is gathered once and kept until a phrase with
another first word is asked for, so scoring the phrases grouped by first
word gathers each first word's array once and holds one at a time. NEAR(a,
seed) reads a boolean reach mask of the seed, one flag a slot, True where
the seed occurs within ``pad`` slots; it is built once per seed from a
cumulative count of the seed's occurrences, one pass over the slots however
large ``pad`` is. The occurrences of a with the seed in reach are then
``positions[mask[positions]]``. A hit count is the number of distinct
documents of ascending positions: the runs in their ``doc_of`` values.

The term ids are the corpus's word ids as they are, and a boolean mask of
token and padding slots places them: building the index holds no per-token
Python object, and its peak is little more than its arrays, 16 bytes a slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .corpus import TaggedCorpus
from .errors import EmptyInputError, SeedMissingError
from .patterns import extract_phrases  # evaluation.pmi_review_means calls it through this module

DEFAULT_WINDOW = 10
DEFAULT_POS_SEED = "excellent"
DEFAULT_NEG_SEED = "poor"

ZERO_HIT_SMOOTHING = 0.01

Term = str | tuple[str, str]


@dataclass(frozen=True, slots=True)
class PmiReviewResult:
    mean_so: float
    n_phrases: int

    @property
    def no_phrase(self) -> bool:
        return self.n_phrases == 0


_NO_POSITIONS = np.empty(0, dtype=np.intp)


class NearIndex:
    """NEAR(window) index over a corpus, held as position arrays.

    ``terms`` is the padded id array of the module docstring, ``doc_of`` the
    document index of each of its slots and ``pad`` the reach of every query
    (``window`` clamped to the longest document). ``postings`` maps each term
    to its ascending positions in ``terms``. ``near_hits`` maps unordered term
    pairs to the number of documents where they co-occur within the window;
    it fills on demand, so only queried pairs are counted.
    """

    def __init__(self, corpus: TaggedCorpus, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not len(corpus):
            raise EmptyInputError("corpus is empty")
        lengths = np.diff(corpus.offsets)
        self.pad = min(window, int(lengths.max()))
        self.term_ids: dict[str, int] = dict(zip(corpus.words, range(len(corpus.words))))
        pad_id = len(corpus.words)
        # each document's tokens, then its padding: a mask over the slots
        runs = np.column_stack((lengths, np.full_like(lengths, self.pad))).ravel()
        self.terms = np.full(len(corpus.word_ids) + lengths.size * self.pad, pad_id, np.int32)
        self.terms[np.repeat(np.tile([True, False], len(lengths)), runs)] = corpus.word_ids
        # a stable sort keeps each term's positions ascending; padding sorts last.
        # numpy sorts 16-bit keys stably by radix sort, about 7x faster here
        order = np.argsort(self.terms.astype(np.uint16) if pad_id < 2**16 else self.terms,
                           kind="stable")
        # int32 needles: int64 ones would make searchsorted copy terms to int64
        bounds = np.searchsorted(self.terms[order], np.arange(pad_id + 2, dtype=np.int32))
        self.postings: dict[str, np.ndarray] = {
            term: order[bounds[i]:bounds[i + 1]] for term, i in self.term_ids.items()}
        self.doc_of = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths + self.pad)
        self._doc_counts: dict[Term, int] = {}
        self.near_hits: dict[frozenset[Term], int] = {}
        self._reach: dict[Term, np.ndarray] = {}
        self._next_words: tuple[str | None, np.ndarray] = (None, _NO_POSITIONS)
        self._last_phrase: tuple[Term | None, np.ndarray] = (None, _NO_POSITIONS)

    def positions(self, term: Term) -> np.ndarray:
        """Ascending occurrence positions; phrases anchor at their first token."""
        if isinstance(term, str):
            return self.postings.get(term, _NO_POSITIONS)
        # kept for the next call only: so_phrase asks once for each seed
        if self._last_phrase[0] == term:
            return self._last_phrase[1]
        w1, w2 = term
        first = self.postings.get(w1)
        second = self.term_ids.get(w2)
        if first is None or second is None:
            return _NO_POSITIONS
        # the slot after each occurrence of w1, kept for w1's next phrase only; a
        # document's last token is followed by padding, never by a term
        if self._next_words[0] != w1:
            self._next_words = (w1, self.terms[1:][first])
        self._last_phrase = (term, first[self._next_words[1] == second])
        return self._last_phrase[1]

    def reach(self, term: Term) -> np.ndarray:
        """Slot mask: True where ``term`` occurs at most ``pad`` slots away."""
        mask = self._reach.get(term)
        if mask is None:
            # count[k] is the number of occurrences before slot k - pad, modulo
            # the smallest unsigned type that holds 2 pad + 1: slot s has
            # count[s + 2 pad + 1] - count[s] occurrences within pad of it, at
            # most 2 pad + 1, so the two differ exactly when one is in reach
            count = np.zeros(len(self.terms) + 2 * self.pad + 1,
                             np.min_scalar_type(2 * self.pad + 1))
            count[self.positions(term) + self.pad + 1] = 1
            np.cumsum(count, dtype=count.dtype, out=count)
            mask = self._reach[term] = count[2 * self.pad + 1:] != count[:len(self.terms)]
        return mask

    def _documents(self, positions: np.ndarray) -> int:
        """Distinct documents of ascending positions: the runs of their document ids."""
        docs = self.doc_of[positions]
        return int(docs.size and 1 + np.count_nonzero(docs[1:] != docs[:-1]))

    def document_count(self, term: Term) -> int:
        """Documents containing the term (document-level counting); once per term."""
        count = self._doc_counts.get(term)
        if count is None:
            count = self._doc_counts[term] = self._documents(self.positions(term))
        return count

    def near_count(self, a: Term, b: Term) -> int:
        """Documents where a and b occur within the window, order-free."""
        key = frozenset((a, b))
        count = self.near_hits.get(key)
        if count is None:
            at = self.positions(a)
            count = self.near_hits[key] = self._documents(at[self.reach(b)[at]])
        return count


def build_near_index(corpus: TaggedCorpus, window: int = DEFAULT_WINDOW) -> NearIndex:
    return NearIndex(corpus, window=window)


def seed_hits(index: NearIndex, pos_seed: str, neg_seed: str) -> tuple[int, int]:
    """Hit counts of both seeds; a seed that never occurs is an error."""
    counts = index.document_count(pos_seed), index.document_count(neg_seed)
    for seed, count in zip((pos_seed, neg_seed), counts):
        if count == 0:
            raise SeedMissingError(f"seed {seed!r} never occurs in the indexed corpus")
    return counts


def so_phrase(index: NearIndex, phrase: tuple[str, str],
              pos_seed: str = DEFAULT_POS_SEED,
              neg_seed: str = DEFAULT_NEG_SEED) -> float:
    """Log-ratio orientation of a phrase from hit counts."""
    seed_pos_hits, seed_neg_hits = seed_hits(index, pos_seed, neg_seed)
    near_pos = index.near_count(phrase, pos_seed)
    near_neg = index.near_count(phrase, neg_seed)
    smoothed_pos = near_pos if near_pos else ZERO_HIT_SMOOTHING
    smoothed_neg = near_neg if near_neg else ZERO_HIT_SMOOTHING
    # difference of logs keeps seed-swap antisymmetry exact in floats
    return math.log2(smoothed_pos * seed_neg_hits) - math.log2(smoothed_neg * seed_pos_hits)


def classify_review_pmi(phrases: Iterable[tuple[str, str]],
                        orientations: Mapping[tuple[str, str], float]) -> PmiReviewResult:
    """Mean orientation of one review's phrases, each looked up in ``orientations``;
    no phrase means a zero mean, which labels POS, and ``no_phrase`` flags it."""
    values = [orientations[phrase] for phrase in phrases]
    mean = sum(values) / len(values) if values else 0.0
    return PmiReviewResult(mean_so=mean, n_phrases=len(values))
