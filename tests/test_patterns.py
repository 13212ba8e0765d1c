from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sentaxis import patterns
from sentaxis.errors import EmptyInputError, NoQualifyingPhrasesError, ParseError
from sentaxis.patterns import (
    MODIFIER_TAGS,
    RULES,
    extract_phrases,
    load_phrases,
    load_point_words,
    save_phrases,
    save_point_words,
    select_point_words,
    tag_polarity_variance,
)

from corpus_helpers import documents, make_corpus, occurrences
from pattern_fixture import FIFTY_DOCUMENTS
from synthgen import make_reviews


class TestBuiltinRules:
    def test_rule_count(self):
        assert len(RULES) == 5

    def test_rule_one(self):
        first, second, noun_third = RULES[0]
        assert set(first) == {"JJ"}
        assert set(second) == {"NN", "NNS"}
        assert noun_third is True

    def test_rule_three(self):
        first, second, noun_third = RULES[2]
        assert set(first) == {"JJ"}
        assert set(second) == {"JJ"}
        assert noun_third is False

    def test_all_rows(self):
        rows = [(set(first), set(second), noun_third) for first, second, noun_third in RULES]
        assert rows == [
            ({"JJ"}, {"NN", "NNS"}, True),
            ({"RB", "RBR", "RBS"}, {"JJ"}, False),
            ({"JJ"}, {"JJ"}, False),
            ({"NN", "NNS"}, {"VB", "VBD"}, False),
            ({"RB", "RBR", "RBS"}, {"VBN", "VBG"}, True),
        ]


def oracle_extract(corpus):
    """Independent enumeration: collect every rule match per position, keep
    the lowest rule index. Restates the rule table rather than importing it."""
    rules = [
        ({"JJ"}, {"NN", "NNS"}, False),
        ({"RB", "RBR", "RBS"}, {"JJ"}, True),
        ({"JJ"}, {"JJ"}, True),
        ({"NN", "NNS"}, {"VB", "VBD"}, True),
        ({"RB", "RBR", "RBS"}, {"VBN", "VBG"}, False),
    ]
    rows = []
    for doc_id, tokens, _ in documents(corpus):
        words, tags = zip(*tokens)
        for i in range(len(tags) - 1):
            matching = []
            for idx, (first, second, blocks_nouns) in enumerate(rules, start=1):
                if tags[i] not in first or tags[i + 1] not in second:
                    continue
                if blocks_nouns and i + 2 < len(tags) and tags[i + 2] in ("NN", "NNS"):
                    continue
                matching.append(idx)
            if matching:
                rows.append((words[i], words[i + 1], min(matching), doc_id, i))
    return rows


class TestExtractPhrases:
    def test_rule_one_direct_match(self):
        corpus = make_corpus([[("nice", "JJ"), ("film", "NN"), ("the", "DT")]])
        got = extract_phrases(corpus)
        assert len(got) == 1
        assert occurrences(got) == [("nice", "film", 1, "d000000", 0)]
        assert got.at.dtype == np.int64

    def test_rule_two_blocked_by_noun_third_word(self):
        corpus = make_corpus([[("very", "RB"), ("nice", "JJ"), ("film", "NN")]])
        got = occurrences(extract_phrases(corpus))
        # the RB+JJ bigram is blocked by the NN third word; only the trailing
        # JJ+NN bigram matches (rule 1)
        assert [row[:3] for row in got] == [("nice", "film", 1)]

    def test_document_final_bigram_passes_constraints(self):
        corpus = make_corpus([[("very", "RB"), ("nice", "JJ")]])
        assert extract_phrases(corpus).rule.tolist() == [2]

    def test_lowest_rule_index_wins_on_overlap(self, monkeypatch):
        # no two built-in rules match one tag pair, so the table is built from two that do
        monkeypatch.setattr(patterns, "RULES", ((("JJ",), ("NN",), True),
                                                (("JJ", "RB"), ("NN", "JJ"), True)))
        table, _ = patterns._rule_table(("JJ", "NN"))
        # JJ NN before any third word: both rules match, rule 1 wins; JJ JJ is rule 2's alone
        assert table[0, 1].tolist() == [1, 1, 1]
        assert table[0, 0].tolist() == [2, 2, 2]

    def test_empty_corpus_gives_empty_list(self):
        corpus = make_corpus([[("the", "DT"), ("film", "NN")]])
        assert len(extract_phrases(corpus)) == 0

    def test_fifty_document_fixture_matches_oracle(self):
        corpus = make_corpus(FIFTY_DOCUMENTS)
        got = sorted("\t".join(map(str, row)) for row in occurrences(extract_phrases(corpus)))
        expected = sorted(
            f"{w1}\t{w2}\t{rule}\t{doc}\t{pos}"
            for w1, w2, rule, doc, pos in oracle_extract(corpus))
        assert "\n".join(got) == "\n".join(expected)
        assert got  # the fixture must actually produce phrases

    def test_no_cross_document_bigrams(self):
        corpus = make_corpus([
            [("great", "JJ")],
            [("film", "NN")],
        ])
        assert len(extract_phrases(corpus)) == 0

    @given(order=st.permutations(range(5)))
    def test_stable_under_document_reordering(self, order):
        docs = FIFTY_DOCUMENTS[:5]
        base = {(w1, w2, rule, position)
                for w1, w2, rule, _, position in occurrences(extract_phrases(make_corpus(docs)))}
        shuffled = {(w1, w2, rule, position) for w1, w2, rule, _, position
                    in occurrences(extract_phrases(make_corpus([docs[i] for i in order])))}
        assert base == shuffled

    def test_every_emitted_phrase_revalidates(self):
        corpus = make_corpus(FIFTY_DOCUMENTS)
        docs = {doc_id: [tag for _, tag in tokens] for doc_id, tokens, _ in documents(corpus)}
        for _, _, rule_index, doc_id, position in occurrences(extract_phrases(corpus)):
            tags = docs[doc_id]
            first, second, noun_third = RULES[rule_index - 1]
            assert tags[position] in first
            assert tags[position + 1] in second
            third = tags[position + 2] if position + 2 < len(tags) else None
            assert noun_third or third not in ("NN", "NNS")



def priority_loop(corpus, rules):
    """Every bigram's lowest-numbered matching rule, by a plain loop over the rules."""
    rows = []
    for doc_id, tokens, _ in documents(corpus):
        words, tags = zip(*tokens)
        for i in range(len(tags) - 1):
            third = tags[i + 2] if i + 2 < len(tags) else None
            for rule_index, (first, second, noun_third) in enumerate(rules, start=1):
                if tags[i] in first and tags[i + 1] in second \
                        and (noun_third or third not in ("NN", "NNS")):
                    rows.append((words[i], words[i + 1], rule_index, doc_id, i))
                    break
    return rows


class TestRuleTable:
    """Table-driven extraction against a priority-order loop over the rules."""

    TAGS = sorted({tag for first, second, _ in RULES for tag in first + second}) + ["DT"]

    def test_every_tag_triple_matches_the_priority_loop(self):
        # every (tag1, tag2, tag3) of the tags the rules name plus a foreign
        # tag, and every (tag1, tag2) at a document's end
        docs = [[("a", t1), ("b", t2)] + ([("c", t3)] if t3 else [])
                for t1 in self.TAGS for t2 in self.TAGS for t3 in self.TAGS + [None]]
        corpus = make_corpus(docs)
        got = occurrences(extract_phrases(corpus))
        assert got == priority_loop(corpus, RULES)
        assert {rule for _, _, rule, _, _ in got} == {1, 2, 3, 4, 5}

    @given(st.lists(st.lists(st.sampled_from(TAGS), min_size=1, max_size=6),
                    min_size=1, max_size=6))
    def test_documents_of_any_tags_match_the_priority_loop(self, tag_lists):
        corpus = make_corpus([[(f"w{i}", tag) for i, tag in enumerate(tags)]
                              for tags in tag_lists])
        assert occurrences(extract_phrases(corpus)) == priority_loop(corpus, RULES)

    def test_custom_rules_match_the_priority_loop(self, monkeypatch):
        rules = ((("NN",), ("NN",), False), (("NN", "DT"), ("NN",), True))
        monkeypatch.setattr(patterns, "RULES", rules)
        corpus = make_corpus([[("a", "DT"), ("b", "NN"), ("c", "NN"), ("d", "NN")],
                              [("e", "NN"), ("f", "NN")]])
        got = occurrences(extract_phrases(corpus))
        assert got == priority_loop(corpus, rules)
        assert [rule for _, _, rule, _, _ in got] == [2, 2, 1, 1]


def oracle_point_words(corpus, cutoff):
    """Point words by strings: count (w1, w2) over the oracle's occurrences,
    then count each word at a qualifying occurrence where it bears a
    modifier tag."""
    docs = {doc_id: tokens for doc_id, tokens, _ in documents(corpus)}
    rows = oracle_extract(corpus)
    phrase_counts = Counter((w1, w2) for w1, w2, *_ in rows)
    word_counts = Counter()
    for w1, w2, _, doc_id, position in rows:
        if phrase_counts[w1, w2] >= cutoff:
            for offset, word in enumerate((w1, w2)):
                if docs[doc_id][position + offset][1] in MODIFIER_TAGS:
                    word_counts[word] += 1
    return word_counts


class TestSelectPointWords:
    def corpus_and_phrases(self):
        corpus = make_corpus(
            [[("very", "RB"), ("good", "JJ"), (".", ".")]] * 3
            + [[("truly", "RB"), ("bad", "JJ"), (".", ".")]]
        )
        return corpus, extract_phrases(corpus)

    def test_cutoff_keeps_frequent_phrases_only(self):
        _, phrases = self.corpus_and_phrases()
        points = select_point_words(phrases, cutoff=2)
        assert points.words == {"very", "good"}
        assert points.word_counts == {"very": 3, "good": 3}

    def test_cutoff_one_is_superset(self):
        _, phrases = self.corpus_and_phrases()
        low = select_point_words(phrases, cutoff=1)
        high = select_point_words(phrases, cutoff=2)
        assert high.words <= low.words
        assert low.words == {"very", "good", "truly", "bad"}

    def test_anti_monotone_across_cutoffs(self):
        phrases = extract_phrases(make_corpus(FIFTY_DOCUMENTS))
        previous = None
        for cutoff in (1, 2, 3):
            try:
                points = select_point_words(phrases, cutoff)
            except NoQualifyingPhrasesError:
                break
            if previous is not None:
                assert points.words <= previous
            previous = points.words

    def test_fixture_enumeration_oracle(self):
        corpus = make_corpus(FIFTY_DOCUMENTS)
        got = select_point_words(extract_phrases(corpus), cutoff=1)
        expected = oracle_point_words(corpus, 1)
        assert (got.words, got.word_counts) == (set(expected), dict(expected))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_reviews_match_the_string_oracle(self, seed):
        corpus = make_reviews(2000, seed)
        phrases = extract_phrases(corpus)
        for cutoff in range(1, 6):
            expected = oracle_point_words(corpus, cutoff)
            got = select_point_words(phrases, cutoff)
            assert (got.words, got.word_counts, got.cutoff) == \
                (set(expected), dict(expected), cutoff)

    @pytest.mark.parametrize("w1,w2,doc_id,position", [
        ("very", "bad", "d000001", 0),
        (".", "very", "d000000", 2),
        ("very", "good", "d000001", -1),
        ("very", "good", "d000001", 10**30),
        ("very", "good", "d000009", 0),
    ], ids=["second-word", "across-documents", "negative", "huge", "unknown-document"])
    def test_occurrence_not_in_the_corpus_is_rejected(self, tmp_path, w1, w2, doc_id,
                                                      position):
        # select-points reads its phrases through load_phrases, which checks each record
        corpus, phrases = self.corpus_and_phrases()
        path = tmp_path / "phrases.tsv"
        save_phrases(phrases, path)
        good = path.read_text(encoding="utf-8").splitlines()
        bad = f"{w1}\t{w2}\t1\t{doc_id}\t{position}"
        path.write_text("\n".join([good[0], bad, bad, good[2]]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"{w1!r} {w2!r} at document {doc_id!r} "
                                             f"position {position} is not in the corpus"):
            load_phrases(path, corpus)
        with pytest.raises(ParseError) as err:
            load_phrases(path, corpus)
        assert (err.value.path, err.value.line) == (path, 2)

    @pytest.mark.parametrize("w1,w2,rule,position,error", [
        ("truly", "bad", "7", 0, "has rule 7, but the corpus gives rule 2"),
        ("truly", "bad", str(10**30), 0, f"has rule {10**30}, but the corpus gives rule 2"),
        ("bad", ".", "1", 1, "matches no extraction rule"),
    ], ids=["rule-7", "rule-10**30", "no-rule"])
    def test_rule_field_must_be_the_corpus_rule(self, tmp_path, w1, w2, rule, position, error):
        corpus, phrases = self.corpus_and_phrases()
        path = tmp_path / "phrases.tsv"
        save_phrases(phrases, path)
        good = path.read_text(encoding="utf-8").splitlines()
        bad = f"{w1}\t{w2}\t{rule}\td000003\t{position}"
        path.write_text("\n".join([good[0], bad, good[1]]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"{w1!r} {w2!r} at document 'd000003' "
                                             f"position {position} {error}") as err:
            load_phrases(path, corpus)
        assert (err.value.path, err.value.line) == (path, 2)

    def test_no_qualifying_phrase_reports_cutoff(self):
        _, phrases = self.corpus_and_phrases()
        with pytest.raises(NoQualifyingPhrasesError) as err:
            select_point_words(phrases, cutoff=99)
        assert err.value.cutoff == 99

    def test_every_point_word_has_modifier_occurrence(self):
        corpus = make_corpus(FIFTY_DOCUMENTS)
        phrases = extract_phrases(corpus)
        points = select_point_words(phrases, cutoff=1)
        docs = {doc_id: tokens for doc_id, tokens, _ in documents(corpus)}
        rows = occurrences(phrases)  # at cutoff 1 every phrase qualifies
        for word in points.words:
            found = any(
                docs[doc_id][position + off][1] in MODIFIER_TAGS
                for w1, w2, _, doc_id, position in rows
                for off, w in ((0, w1), (1, w2)) if w == word
            )
            assert found, word


class TestTagVariance:
    def test_two_point_variance(self):
        report = tag_polarity_variance([
            ("good", "JJ", 1.0),
            ("bad", "JJ", -1.0),
        ])
        assert report.per_tag["JJ"] == (pytest.approx(1.0), 2)

    def test_all_equal_gives_zero(self):
        report = tag_polarity_variance([
            ("a", "DT", 0.5),
            ("b", "NN", 0.5),
            ("c", "NN", 0.5),
        ])
        assert all(var == 0.0 for var, _ in report.per_tag.values())
        assert report.total_variance == 0.0

    def test_single_occurrence_is_zero_not_error(self):
        report = tag_polarity_variance([("wow", "UH", 0.7)])
        assert report.per_tag["UH"] == (0.0, 1)

    def test_thirty_item_fixture_matches_spreadsheet(self):
        # expected values frozen from the two-pass population-variance formula
        fixture = [
            ("JJ", [1.8, -1.6, 2.1, -2.0, 1.2, -0.9, 2.4, -1.3]),
            ("RB", [1.1, -1.4, 0.9, -1.7, 1.5, -0.6]),
            ("NN", [0.3, -0.2, 0.1, 0.0, -0.1]),
            ("VB", [0.4, -0.5, 0.2, -0.3]),
            ("DT", [0.05, -0.04, 0.02, 0.01]),
            (".", [0.0, 0.0]),
            ("UH", [0.7]),
        ]
        annotated = [
            (f"w{tag}{i}".lower().replace(".", "p"), tag, value)
            for tag, values in fixture for i, value in enumerate(values)
        ]
        assert len(annotated) == 30
        report = tag_polarity_variance(annotated)
        expected = {
            "JJ": (2.9435937500000002, 8),
            "RB": (1.578888888888889, 6),
            "NN": (0.029599999999999998, 5),
            "VB": (0.1325, 4),
            "DT": (0.0010500000000000002, 4),
            ".": (0.0, 2),
            "UH": (0.0, 1),
        }
        for tag, (variance, count) in expected.items():
            got_var, got_count = report.per_tag[tag]
            assert got_var == pytest.approx(variance, abs=1e-9)
            assert got_count == count
        assert report.total_variance == pytest.approx(33.704283333333336, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            tag_polarity_variance([])

    def test_non_finite_polarity_raises(self):
        with pytest.raises(ValueError):
            tag_polarity_variance([("a", "DT", float("nan"))])

    def test_shares_sum_to_one(self):
        report = tag_polarity_variance([
            ("good", "JJ", 1.0),
            ("bad", "JJ", -1.0),
            ("fast", "RB", 0.4),
            ("slow", "RB", -0.4),
        ])
        assert sum(report.shares().values()) == pytest.approx(1.0)


class TestPersistence:
    def test_phrase_dump_round_trip(self, tmp_path):
        corpus = make_corpus(FIFTY_DOCUMENTS[:10])
        phrases = extract_phrases(corpus)
        path = tmp_path / "phrases.tsv"
        save_phrases(phrases, path)
        again = load_phrases(path, corpus)
        assert again.corpus is corpus
        assert again.at.tolist() == phrases.at.tolist()
        assert again.rule.tolist() == phrases.rule.tolist()

    def test_phrase_fields_are_stripped(self, tmp_path):
        corpus = make_corpus(FIFTY_DOCUMENTS[:10])
        phrases = extract_phrases(corpus)
        path = tmp_path / "phrases.tsv"
        save_phrases(phrases, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(" " + " \t ".join(line.split("\t")) + " \n" for line in lines),
                        encoding="utf-8")
        again = load_phrases(path, corpus)
        assert again.at.tolist() == phrases.at.tolist()
        assert again.rule.tolist() == phrases.rule.tolist()

    def test_phrase_records_load_in_any_order_and_with_repeats(self, tmp_path):
        corpus = make_corpus(FIFTY_DOCUMENTS)
        phrases = extract_phrases(corpus)
        path = tmp_path / "phrases.tsv"
        save_phrases(phrases, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[::-1] + lines[:3]) + "\n", encoding="utf-8")
        again = load_phrases(path, corpus)
        assert again.at.tolist() == sorted(phrases.at.tolist() + phrases.at[:3].tolist())
        counts = Counter(occurrences(phrases) + occurrences(phrases)[:3])
        assert Counter(occurrences(again)) == counts

    def test_point_word_dump_round_trip(self, tmp_path):
        corpus = make_corpus(FIFTY_DOCUMENTS)
        points = select_point_words(extract_phrases(corpus), cutoff=1)
        path = tmp_path / "points.tsv"
        save_point_words(points, path)
        again = load_point_words(path)
        assert again.words == points.words
        assert again.cutoff == points.cutoff
        assert again.word_counts == points.word_counts

    def test_point_words_are_stripped(self, tmp_path):
        path = tmp_path / "points.tsv"
        path.write_text(" good \t2\nbad\t1\n", encoding="utf-8")
        assert load_point_words(path).word_counts == {"good": 2, "bad": 1}
        path.write_text(" good \t2\ngood\t1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate word 'good'"):
            load_point_words(path)
