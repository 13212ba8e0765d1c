"""Two-word phrase extraction by POS-tag rules and point-word selection.

:data:`RULES` is the table of the five extraction rules, one row each in
priority order: the tags the first word may have, the tags the second word
may have, and whether the word after the bigram (the third word) may be NN
or NNS. At a document's final bigram the missing third word satisfies every
rule. When several rules match one position, the lowest-numbered rule wins
and a single occurrence is emitted.

Extraction is one gather from the tag ids through a table ``rule[tag1, tag2,
third]`` of the lowest-numbered matching rule (0 for none), ``third`` being
the class of the next word: NN or NNS, another tag, or none at a document's
end. Its matches are token positions of the corpus they carry (:class:`Phrases`),
so no match is checked again; :func:`load_phrases` checks a phrase file once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import records
from .corpus import TaggedCorpus
from .errors import EmptyInputError, NoQualifyingPhrasesError, ParseError

#: Tags whose bearers count as modifiers when collecting point words.
MODIFIER_TAGS = frozenset({"JJ", "JJR", "JJS", "RB", "RBR", "RBS"})
#: The third-word tags a rule may refuse.
NOUN_TAGS = frozenset({"NN", "NNS"})

#: The five extraction rules in priority order: the first word's tags, the
#: second word's tags, and whether the word after them may be NN or NNS.
RULES = (
    (("JJ",), ("NN", "NNS"), True),
    (("RB", "RBR", "RBS"), ("JJ",), False),
    (("JJ",), ("JJ",), False),
    (("NN", "NNS"), ("VB", "VBD"), False),
    (("RB", "RBR", "RBS"), ("VBN", "VBG"), True),
)


@dataclass(frozen=True, slots=True, eq=False)
class Phrases:
    """Occurrence k is tokens ``at[k]`` and ``at[k] + 1`` of ``corpus``, matched
    by rule ``rule[k]``; ``at`` (int64) is in ascending order."""

    corpus: TaggedCorpus
    at: np.ndarray
    rule: np.ndarray

    def __len__(self) -> int:
        return len(self.at)

    def pairs(self) -> np.ndarray:
        """Each occurrence's (first, second) word ids as one int64 id."""
        word_ids = self.corpus.word_ids
        return word_ids[self.at] * np.int64(len(self.corpus.words)) + word_ids[self.at + 1]


@dataclass(frozen=True, slots=True)
class PointWordSet:
    words: frozenset[str]
    cutoff: int
    word_counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class TagVarianceReport:
    per_tag: dict[str, tuple[float, int]]
    total_variance: float

    def shares(self) -> dict[str, float]:
        """Each tag's weighted-variance share of the total."""
        if self.total_variance == 0.0:
            return {tag: 0.0 for tag in self.per_tag}
        return {tag: var * count / self.total_variance
                for tag, (var, count) in self.per_tag.items()}


def _rule_table(tags: tuple[str, ...]):
    """``rule[tag1, tag2, third]`` of :data:`RULES` and each tag id's third-word class:
    0 NN or NNS, 1 another tag, 2 tag id ``len(tags)``, a document boundary (no rule's
    second word)."""
    table = np.zeros((len(tags), len(tags) + 1, 3), dtype=np.int8)
    # lower-numbered rules are written last, so they win
    for rule_index, (first, second, noun_third) in reversed(list(enumerate(RULES, start=1))):
        table[np.ix_([tag in first for tag in tags], [tag in second for tag in tags] + [False],
                     [noun_third, True, True])] = rule_index
    third_class = np.array([0 if tag in NOUN_TAGS else 1 for tag in tags] + [2], dtype=np.intp)
    return table, third_class


def extract_phrases(corpus: TaggedCorpus) -> Phrases:
    """All rule-matching bigram occurrences of ``corpus``, in token order."""
    rule = _bigram_rules(corpus)
    at = rule.nonzero()[0]
    return Phrases(corpus, at, rule[at])


def _bigram_rules(corpus: TaggedCorpus) -> np.ndarray:
    """Each bigram's lowest-numbered matching rule: 0 for none, or across documents."""
    tag_ids, n = corpus.tag_ids, len(corpus.tag_ids)
    table, third_class = _rule_table(corpus.tags)
    # bigram i is tokens i and i + 1, then marked[i + 2]; document starts are boundaries
    marked = np.empty(n + 1, dtype=np.intp)
    marked[:n] = tag_ids
    marked[corpus.offsets[1:]] = len(corpus.tags)
    return table[tag_ids[:-1], marked[1:n], third_class[marked[2:]]]


def select_point_words(phrases: Phrases, cutoff: int) -> PointWordSet:
    """Collect modifier words from phrases whose type frequency reaches the cutoff.

    Frequency is counted over (w1, w2) word types across all occurrences. A
    word qualifies when its tag at a qualifying occurrence is a modifier tag,
    and counts once for each such occurrence.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    corpus, at = phrases.corpus, phrases.at
    _, types, counts = np.unique(phrases.pairs(), return_inverse=True, return_counts=True)
    first = at[(counts >= cutoff)[types]]
    tokens = np.concatenate((first, first + 1))
    modifier = np.array([tag in MODIFIER_TAGS for tag in corpus.tags], dtype=bool)
    word_counts = np.bincount(corpus.word_ids[tokens[modifier[corpus.tag_ids[tokens]]]],
                              minlength=len(corpus.words))
    qualifying = word_counts.nonzero()[0]
    if not qualifying.size:
        raise NoQualifyingPhrasesError(cutoff)
    counts = dict(zip(map(corpus.words.__getitem__, qualifying.tolist()),
                      word_counts[qualifying].tolist()))
    return PointWordSet(words=frozenset(counts), cutoff=cutoff, word_counts=counts)


def tag_polarity_variance(annotated: Sequence[tuple[str, str, float]]) -> TagVarianceReport:
    """Population variance of the polarity values of ``(token, tag,
    polarity)`` triples per POS tag, weighted by count.

    total_variance is the sum over tags of variance * occurrence count, so a
    tag's contribution share is (variance * count) / total_variance.
    """
    if not annotated:
        raise EmptyInputError("no annotated tokens")
    by_tag: dict[str, list[float]] = {}
    for token, tag, polarity in annotated:
        if not np.isfinite(polarity):
            raise ValueError(f"polarity for {token!r} is not finite")
        by_tag.setdefault(tag, []).append(float(polarity))
    per_tag: dict[str, tuple[float, int]] = {}
    total = 0.0
    for tag in sorted(by_tag):
        values = np.array(by_tag[tag])
        variance = float(np.var(values))  # population variance; one value -> 0
        per_tag[tag] = (variance, len(values))
        total += variance * len(values)
    return TagVarianceReport(per_tag=per_tag, total_variance=total)


# ---------------------------------------------------------------------------
# persistence

def save_phrases(phrases: Phrases, path) -> None:
    """Records ``w1<TAB>w2<TAB>rule<TAB>doc_id<TAB>position``."""
    corpus, at = phrases.corpus, phrases.at
    doc = corpus.offsets.searchsorted(at, side="right") - 1
    words = (map(corpus.words.__getitem__, corpus.word_ids[at + k].tolist()) for k in (0, 1))
    records.write(path, zip(*words, phrases.rule.tolist(),
                            map(corpus.ids.__getitem__, doc.tolist()),
                            (at - corpus.offsets[doc]).tolist()))


def load_phrases(path, corpus: TaggedCorpus) -> Phrases:
    """The phrases of ``corpus`` in a ``save_phrases`` file; each record must name a
    bigram of ``corpus`` and the rule ``corpus`` gives that bigram."""
    _, rows = records.read(path, ("w1", "w2", "rule", "doc_id", "position"))
    bounds = corpus.offsets.tolist()
    spans = dict(zip(corpus.ids, zip(bounds, bounds[1:])))
    word_index = dict(zip(corpus.words, range(len(corpus.words))))
    matched = _bigram_rules(corpus)
    at = []
    for line, (w1, w2, rule, doc_id, position) in rows:
        rule = records.integer(path, line, rule, "rule")
        position = records.integer(path, line, position, "position")
        start, end = spans.get(doc_id, (0, 0))
        phrase = f"phrase {w1!r} {w2!r} at document {doc_id!r} position {position}"
        if not (0 <= position < end - start - 1
                and corpus.word_ids[start + position] == word_index.get(w1, -1)
                and corpus.word_ids[start + position + 1] == word_index.get(w2, -1)):
            raise ParseError(f"{phrase} is not in the corpus; were the phrases "
                             f"extracted from another corpus?", path=path, line=line)
        given = int(matched[start + position])
        if not given:
            raise ParseError(f"{phrase} matches no extraction rule", path=path, line=line)
        if rule != given:
            raise ParseError(f"{phrase} has rule {rule}, but the corpus gives rule {given}",
                             path=path, line=line)
        at.append(start + position)
    at = np.sort(np.array(at, dtype=np.int64))
    return Phrases(corpus, at, matched[at])


def save_point_words(points: PointWordSet, path) -> None:
    """Records ``word<TAB>count`` with the cutoff in a ``# cutoff=`` header."""
    records.write(path, ((w, points.word_counts.get(w, 0)) for w in sorted(points.words)),
                  {"cutoff": points.cutoff})


def load_point_words(path) -> PointWordSet:
    """Point words; a repeated word is an error, no cutoff header means 1."""
    headers, rows = records.read(path, ("word", "count"))
    word_counts: dict[str, int] = {}
    for line, (word, count) in rows:
        if word in word_counts:
            raise ParseError(f"duplicate word {word!r}", path=path, line=line)
        word_counts[word] = records.integer(path, line, count, "count")
    if not word_counts:
        raise EmptyInputError(f"{path}: no point words found")
    cutoff = records.integer(path, *headers["cutoff"], "cutoff") if "cutoff" in headers else 1
    return PointWordSet(words=frozenset(word_counts), cutoff=cutoff,
                        word_counts=word_counts)


def save_tag_variance(report: TagVarianceReport, path) -> None:
    """Records ``tag<TAB>variance<TAB>count<TAB>share`` sorted by weighted share."""
    shares = report.shares()
    rows = sorted(report.per_tag.items(), key=lambda kv: (-shares[kv[0]], kv[0]))
    records.write(path, ((tag, var, count, shares[tag]) for tag, (var, count) in rows),
                  {"total_variance": report.total_variance})
