"""Two-word phrase extraction by POS-tag rules and point-word selection.

The five built-in rules match a bigram by the tags of its two words plus a
constraint on the tag of the word after it; at a document's final bigram the
missing third word satisfies every constraint. When several rules match one
position, the lowest-numbered rule wins and a single occurrence is emitted.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import records
from .corpus import TaggedCorpus, TaggedToken
from .errors import ConfigError, EmptyInputError, NoQualifyingPhrasesError, ParseError

#: Tags whose bearers count as modifiers when collecting point words.
MODIFIER_TAGS = frozenset({"JJ", "JJR", "JJS", "RB", "RBR", "RBS"})


class ThirdWord(enum.Enum):
    ANYTHING = "anything"
    NOT_NN_NOR_NNS = "not-nn-nor-nns"


@dataclass(frozen=True, slots=True)
class PatternRule:
    first: frozenset[str]
    second: frozenset[str]
    third: ThirdWord

    def __post_init__(self):
        if not self.first or not self.second:
            raise ValueError("first and second tag sets must be non-empty")

    def third_allows(self, tag: str | None) -> bool:
        if self.third is ThirdWord.ANYTHING or tag is None:
            return True
        return tag not in ("NN", "NNS")


@dataclass(frozen=True, slots=True)
class PhraseOccurrence:
    w1: str
    w2: str
    rule_index: int
    doc_id: str
    position: int

    @property
    def phrase(self) -> tuple[str, str]:
        return (self.w1, self.w2)


@dataclass(frozen=True, slots=True)
class PointWordSet:
    words: frozenset[str]
    cutoff: int
    phrase_counts: dict[tuple[str, str], int] = field(default_factory=dict)
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


def builtin_rules() -> list[PatternRule]:
    """The five bigram extraction rules, in priority order."""
    return [
        PatternRule(frozenset({"JJ"}), frozenset({"NN", "NNS"}), ThirdWord.ANYTHING),
        PatternRule(frozenset({"RB", "RBR", "RBS"}), frozenset({"JJ"}), ThirdWord.NOT_NN_NOR_NNS),
        PatternRule(frozenset({"JJ"}), frozenset({"JJ"}), ThirdWord.NOT_NN_NOR_NNS),
        PatternRule(frozenset({"NN", "NNS"}), frozenset({"VB", "VBD"}), ThirdWord.NOT_NN_NOR_NNS),
        PatternRule(frozenset({"RB", "RBR", "RBS"}), frozenset({"VBN", "VBG"}), ThirdWord.ANYTHING),
    ]


def extract_phrases(corpus: TaggedCorpus,
                    rules: Sequence[PatternRule] | None = None) -> list[PhraseOccurrence]:
    """All rule-matching bigram occurrences, in document then position order."""
    if rules is None:
        rules = builtin_rules()
    occurrences: list[PhraseOccurrence] = []
    for doc in corpus.documents:
        tokens = doc.tokens
        for i in range(len(tokens) - 1):
            tag1 = tokens[i].tag
            tag2 = tokens[i + 1].tag
            tag3 = tokens[i + 2].tag if i + 2 < len(tokens) else None
            for rule_index, rule in enumerate(rules, start=1):
                if tag1 in rule.first and tag2 in rule.second and rule.third_allows(tag3):
                    occurrences.append(PhraseOccurrence(
                        w1=tokens[i].text, w2=tokens[i + 1].text,
                        rule_index=rule_index, doc_id=doc.id, position=i))
                    break
    return occurrences


def select_point_words(phrases: Iterable[PhraseOccurrence], corpus: TaggedCorpus,
                       cutoff: int) -> PointWordSet:
    """Collect modifier words from phrases whose type frequency reaches the cutoff.

    Frequency is counted over (w1, w2) string types across all occurrences. A
    word qualifies when its tag at a qualifying occurrence is a modifier tag.
    Every occurrence must name a bigram of ``corpus`` (the corpus it was
    extracted from); one that does not raises ConfigError.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    phrases = list(phrases)
    type_counts = Counter(occ.phrase for occ in phrases)
    qualifying = {ph: c for ph, c in type_counts.items() if c >= cutoff}
    docs = {doc.id: doc for doc in corpus.documents}
    words: set[str] = set()
    word_counts: Counter[str] = Counter()
    for occ in phrases:
        tokens = docs[occ.doc_id].tokens if occ.doc_id in docs else ()
        if not (0 <= occ.position < len(tokens) - 1
                and tokens[occ.position].text == occ.w1
                and tokens[occ.position + 1].text == occ.w2):
            raise ConfigError(
                f"phrase {occ.w1!r} {occ.w2!r} at document {occ.doc_id!r} position "
                f"{occ.position} is not in the corpus; were the phrases extracted "
                f"from another corpus?")
        if occ.phrase not in qualifying:
            continue
        for offset, word in ((0, occ.w1), (1, occ.w2)):
            if tokens[occ.position + offset].tag in MODIFIER_TAGS:
                words.add(word)
                word_counts[word] += 1
    if not words:
        raise NoQualifyingPhrasesError(cutoff)
    return PointWordSet(words=frozenset(words), cutoff=cutoff,
                        phrase_counts=dict(qualifying), word_counts=dict(word_counts))


def tag_polarity_variance(annotated: Sequence[tuple[TaggedToken, float]]) -> TagVarianceReport:
    """Population variance of polarity values per POS tag, weighted by count.

    total_variance is the sum over tags of variance * occurrence count, so a
    tag's contribution share is (variance * count) / total_variance.
    """
    if not annotated:
        raise EmptyInputError("no annotated tokens")
    by_tag: dict[str, list[float]] = {}
    for token, polarity in annotated:
        if not np.isfinite(polarity):
            raise ValueError(f"polarity for {token.text!r} is not finite")
        by_tag.setdefault(token.tag, []).append(float(polarity))
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

def save_phrases(phrases: Iterable[PhraseOccurrence], path) -> None:
    """Records ``w1<TAB>w2<TAB>rule<TAB>doc_id<TAB>position``."""
    records.write(path, ((o.w1, o.w2, o.rule_index, o.doc_id, o.position) for o in phrases))


def load_phrases(path) -> list[PhraseOccurrence]:
    _, rows = records.read(path, ("w1", "w2", "rule", "doc_id", "position"))
    return [PhraseOccurrence(w1=w1, w2=w2, rule_index=records.integer(path, line, rule, "rule"),
                             doc_id=doc_id,
                             position=records.integer(path, line, position, "position"))
            for line, (w1, w2, rule, doc_id, position) in rows]


def save_point_words(points: PointWordSet, path) -> None:
    """Records ``word<TAB>count`` with the cutoff in a ``# cutoff=`` header."""
    records.write(path, ((w, points.word_counts.get(w, 0)) for w in sorted(points.words)),
                  {"cutoff": points.cutoff})


def load_point_words(path) -> PointWordSet:
    """Point words; a repeated word is an error, a missing cutoff header means 1."""
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
