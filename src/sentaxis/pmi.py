"""PMI-based semantic orientation over a local proximity index.

A NEAR(window) co-occurrence index over a corpus substitutes for search-engine
hit counts: hits are counted per document (a document counts once however many
matches it holds), two terms are NEAR when some pair of their occurrences lies
within the window regardless of order, and a two-word phrase is a contiguous
bigram anchored at its first token.

The orientation of a phrase is
log2[(hits(phrase NEAR pos_seed) * hits(neg_seed)) /
     (hits(phrase NEAR neg_seed) * hits(pos_seed))]
with 0.01 substituted for zero NEAR counts. Zero seed marginals are an error:
the corpus cannot support the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .corpus import NEG, POS, TaggedCorpus, TaggedDocument
from .errors import EmptyInputError, SeedMissingError
from .patterns import PatternRule, extract_phrases

DEFAULT_WINDOW = 10
DEFAULT_POS_SEED = "excellent"
DEFAULT_NEG_SEED = "poor"

ZERO_HIT_SMOOTHING = 0.01

Term = str | tuple[str, str]


@dataclass(frozen=True, slots=True)
class PhraseSO:
    phrase: tuple[str, str]
    so: float
    hit_counts: dict[str, int]


@dataclass(frozen=True, slots=True)
class PmiReviewResult:
    label: str
    mean_so: float
    n_phrases: int
    no_phrase: bool


class NearIndex:
    """Positional postings with document-level hit counting.

    ``doc_hits`` maps each term to the documents containing it. ``near_hits``
    maps unordered term pairs to documents where they co-occur within the
    window; it fills on demand from the postings, so only queried pairs are
    materialized.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.postings: dict[str, dict[str, list[int]]] = {}
        self.doc_hits: dict[str, set[str]] = {}
        self.near_hits: dict[frozenset[Term], set[str]] = {}

    def add_document(self, doc: TaggedDocument) -> None:
        for position, token in enumerate(doc.tokens):
            docs = self.postings.setdefault(token.text, {})
            docs.setdefault(doc.id, []).append(position)
            self.doc_hits.setdefault(token.text, set()).add(doc.id)

    def _positions(self, term: Term) -> dict[str, list[int]]:
        """Occurrence positions per document; phrases anchor at their first token."""
        if isinstance(term, str):
            return self.postings.get(term, {})
        w1, w2 = term
        first = self.postings.get(w1, {})
        second = self.postings.get(w2, {})
        result: dict[str, list[int]] = {}
        for doc_id, starts in first.items():
            if doc_id not in second:
                continue
            follow = set(second[doc_id])
            anchors = [p for p in starts if p + 1 in follow]
            if anchors:
                result[doc_id] = anchors
        return result

    def docs_with(self, term: Term) -> set[str]:
        if isinstance(term, str):
            return self.doc_hits.get(term, set())
        return set(self._positions(term))

    def occurrence_count(self, term: Term) -> int:
        """Total occurrences across the corpus (token-level counting)."""
        return sum(len(p) for p in self._positions(term).values())

    def near_docs(self, a: Term, b: Term) -> set[str]:
        """Documents where a and b occur within the window, order-free."""
        key = frozenset((a, b))
        cached = self.near_hits.get(key)
        if cached is not None:
            return cached
        pos_a = self._positions(a)
        pos_b = self._positions(b)
        docs = set()
        for doc_id in pos_a.keys() & pos_b.keys():
            if _within_window(pos_a[doc_id], pos_b[doc_id], self.window):
                docs.add(doc_id)
        self.near_hits[key] = docs
        return docs

    def near_pair_count(self, a: Term, b: Term) -> int:
        """Number of in-window occurrence pairs (token-level counting)."""
        pos_a = self._positions(a)
        pos_b = self._positions(b)
        pairs = 0
        for doc_id in pos_a.keys() & pos_b.keys():
            for p in pos_a[doc_id]:
                for q in pos_b[doc_id]:
                    if abs(p - q) <= self.window:
                        pairs += 1
        return pairs


def _within_window(left: Sequence[int], right: Sequence[int], window: int) -> bool:
    # postings are position-sorted; a linear merge finds the closest pair
    i = j = 0
    while i < len(left) and j < len(right):
        gap = left[i] - right[j]
        if abs(gap) <= window:
            return True
        if gap > 0:
            j += 1
        else:
            i += 1
    return False


def build_near_index(corpus: TaggedCorpus, window: int = DEFAULT_WINDOW) -> NearIndex:
    if len(corpus) == 0:
        raise EmptyInputError("corpus is empty")
    index = NearIndex(window=window)
    for doc in corpus.documents:
        index.add_document(doc)
    return index


HIT_UNIT_DOCS = "docs"
HIT_UNIT_TOKENS = "tokens"


def hits(index: NearIndex, term_or_phrase: Term, unit: str = HIT_UNIT_DOCS) -> int:
    """Hit count for a term or contiguous phrase.

    Document-level counting (the default) counts each document once, matching
    search-engine hit semantics; token-level counting is the alternative flag
    for sensitivity analysis and counts every occurrence.
    """
    if unit == HIT_UNIT_DOCS:
        return len(index.docs_with(term_or_phrase))
    if unit == HIT_UNIT_TOKENS:
        return index.occurrence_count(term_or_phrase)
    raise ValueError(f"unit must be 'docs' or 'tokens', got {unit!r}")


def _near_count(index: NearIndex, a: Term, b: Term, unit: str) -> int:
    if unit == HIT_UNIT_DOCS:
        return len(index.near_docs(a, b))
    return index.near_pair_count(a, b)


def so_phrase(index: NearIndex, phrase: tuple[str, str],
              pos_seed: str = DEFAULT_POS_SEED,
              neg_seed: str = DEFAULT_NEG_SEED,
              unit: str = HIT_UNIT_DOCS) -> PhraseSO:
    """Log-ratio orientation of a phrase from hit counts."""
    seed_pos_hits = hits(index, pos_seed, unit)
    seed_neg_hits = hits(index, neg_seed, unit)
    if seed_pos_hits == 0:
        raise SeedMissingError(f"seed {pos_seed!r} never occurs in the indexed corpus")
    if seed_neg_hits == 0:
        raise SeedMissingError(f"seed {neg_seed!r} never occurs in the indexed corpus")
    near_pos = _near_count(index, phrase, pos_seed, unit)
    near_neg = _near_count(index, phrase, neg_seed, unit)
    smoothed_pos = near_pos if near_pos else ZERO_HIT_SMOOTHING
    smoothed_neg = near_neg if near_neg else ZERO_HIT_SMOOTHING
    # difference of logs keeps seed-swap antisymmetry exact in floats
    so = math.log2(smoothed_pos * seed_neg_hits) - math.log2(smoothed_neg * seed_pos_hits)
    return PhraseSO(
        phrase=tuple(phrase),
        so=so,
        hit_counts={
            "near_pos_seed": near_pos,
            "near_neg_seed": near_neg,
            "pos_seed": seed_pos_hits,
            "neg_seed": seed_neg_hits,
        },
    )


def classify_review_pmi(index: NearIndex, review: TaggedDocument,
                        rules: Sequence[PatternRule] | None = None,
                        pos_seed: str = DEFAULT_POS_SEED,
                        neg_seed: str = DEFAULT_NEG_SEED,
                        so_cache: dict | None = None,
                        unit: str = HIT_UNIT_DOCS) -> PmiReviewResult:
    """Label a review by the mean orientation of its extracted phrases.

    No extracted phrase means a zero mean, which labels POS; the result is
    flagged so downstream reporting can count it. ``so_cache`` memoizes phrase
    orientations across reviews.
    """
    single = TaggedCorpus(documents=(review,), source="review")
    occurrences = extract_phrases(single, rules)
    if not occurrences:
        return PmiReviewResult(label=POS, mean_so=0.0, n_phrases=0, no_phrase=True)
    values = []
    for occ in occurrences:
        if so_cache is not None and occ.phrase in so_cache:
            values.append(so_cache[occ.phrase])
            continue
        value = so_phrase(index, occ.phrase, pos_seed=pos_seed, neg_seed=neg_seed,
                          unit=unit).so
        if so_cache is not None:
            so_cache[occ.phrase] = value
        values.append(value)
    mean = sum(values) / len(values)
    label = NEG if mean < 0.0 else POS
    return PmiReviewResult(label=label, mean_so=mean, n_phrases=len(values), no_phrase=False)
