import numpy as np
import pytest
from hypothesis import given, strategies as st

from sentaxis import axis as axis_mod
from sentaxis import records
from sentaxis.axis import OrientationLexicon
from sentaxis.corpus import NEG, POS, label_for
from sentaxis.errors import ConfigError, EmptyInputError, PipelineError
from sentaxis.evaluation import (
    MODE_SEMI,
    MODE_UNSUP,
    PipelineConfig,
    SweepRow,
    evaluate,
    read_report,
    review_means,
    run_pipeline,
    sweep_cutoffs,
    write_report,
    write_sweep_csv,
)
from sentaxis.patterns import extract_phrases, select_point_words
from sentaxis.sgns import SgnsConfig, train_sgns

from corpus_helpers import documents, join, make_corpus, save_reviews, save_tagged_corpus
from synthgen import gold_lexicon, make_reviews


def lexicon_of(**scores) -> OrientationLexicon:
    return OrientationLexicon(scores=dict(scores), axis=None, fingerprint="test")


def review_of(*words, label=None):
    return make_corpus([[(w, "NN") for w in words]],
                       labels=[label] if label else None)


def label_of(review, lexicon) -> str:
    return label_for(review_means(review, lexicon)[0][0])


class TestClassifyReview:
    def test_positive_mean(self):
        lex = lexicon_of(nice=0.2, dull=-0.1)
        assert label_of(review_of("nice", "dull"), lex) == POS

    def test_negative_mean(self):
        lex = lexicon_of(nice=-0.2, dull=-0.1)
        assert label_of(review_of("nice", "dull"), lex) == NEG

    def test_all_tokens_unknown_defaults_positive(self):
        lex = lexicon_of(nice=1.0)
        review = review_of("the", "film")
        assert label_of(review, lex) == POS
        mean, n = review_means(review, lex)[0]
        assert mean == 0.0 and n == 0

    def test_tokens_counted_with_multiplicity(self):
        lex = lexicon_of(good=1.0, bad=-0.6)
        # one 'good' vs three 'bad': multiplicity drags the mean negative
        assert label_of(review_of("good", "bad", "bad", "bad"), lex) == NEG

    @given(order=st.permutations(range(5)))
    def test_invariant_under_token_reordering(self, order):
        lex = lexicon_of(a=0.3, b=-0.2, c=0.1, d=-0.4, e=0.25)
        words = ["a", "b", "c", "d", "e"]
        base = label_of(review_of(*words), lex)
        assert label_of(review_of(*[words[i] for i in order]), lex) == base


    def test_means_of_many_reviews_are_each_reviews_own_sum(self):
        reviews = make_reviews(40, seed=9)
        rng = np.random.default_rng(9)
        lex = lexicon_of(**{w: float(rng.normal()) for w in reviews.words[::2]})
        expected = []
        for _, tokens, _ in documents(reviews):
            scored = [lex.scores[word] for word, _ in tokens if word in lex.scores]
            total = 0.0
            for score in scored:
                total += score
            expected.append((total / len(scored) if scored else 0.0, len(scored)))
        assert review_means(reviews, lex) == expected

def test_label_for_is_neg_only_below_zero():
    assert [label_for(m) for m in (-1e-300, -0.0, 0.0, 1e-300)] == [NEG, POS, POS, POS]


class TestEvaluate:
    def reviews(self):
        return join([
            review_of("good", "good", label=POS),
            review_of("good", "bad", label=POS),
            review_of("bad", "bad", label=NEG),
            review_of("bad", label=NEG),
        ])

    def test_all_correct(self):
        lex = lexicon_of(good=1.0, bad=-0.5)
        report = evaluate(self.reviews(), lex)
        assert report.accuracy == 1.0
        assert report.n_correct == report.n_total == 4
        assert report.confusion == ((2, 0), (0, 2))

    def test_all_wrong(self):
        lex = lexicon_of(good=-1.0, bad=0.5)
        report = evaluate(self.reviews(), lex)
        assert report.accuracy == 0.0
        assert report.confusion == ((0, 2), (2, 0))

    def test_twenty_review_hand_tally(self):
        lex = lexicon_of(fine=0.5, poor=-0.5)
        reviews = []
        # 8 true positives, 2 mislabeled positives, 7 true negatives,
        # 3 mislabeled negatives: accuracy 15/20 by hand
        for _ in range(8):
            reviews.append(review_of("fine", label=POS))
        for _ in range(2):
            reviews.append(review_of("poor", label=POS))
        for _ in range(7):
            reviews.append(review_of("poor", label=NEG))
        for _ in range(3):
            reviews.append(review_of("fine", label=NEG))
        report = evaluate(join(reviews), lex)
        assert report.accuracy == pytest.approx(15 / 20)
        assert report.n_pos_gold == 10
        assert report.n_neg_gold == 10
        assert report.confusion == ((8, 2), (3, 7))

    def test_undecided_counted_and_positive(self):
        lex = lexicon_of(good=1.0)
        report = evaluate(join([review_of("the", label=POS),
                                review_of("the", label=NEG)]), lex)
        assert report.n_undecided == 2
        assert report.confusion == ((1, 0), (1, 0))

    @pytest.mark.parametrize("words,scores", [
        pytest.param(("good", "bad"), {"good": 0.5, "bad": -0.5}, id="cancelling"),
        pytest.param(("flat",), {"flat": -0.0}, id="negative-zero"),
    ])
    def test_zero_mean_is_positive_and_decided(self, words, scores):
        lex = lexicon_of(**scores)
        review = review_of(*words, label=NEG)
        assert review_means(review, lex)[0] == (0.0, len(words))
        report = evaluate(review, lex)
        assert report.confusion == ((0, 0), (1, 0))
        assert report.n_undecided == 0

    def test_empty_reviews_raise(self):
        with pytest.raises(EmptyInputError):
            evaluate(join([]), lexicon_of(a=1.0))

    def test_unlabeled_review_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(review_of("good"), lexicon_of(good=1.0))

    def test_confusion_sums_to_total(self):
        lex = lexicon_of(good=1.0, bad=-0.5)
        report = evaluate(self.reviews(), lex)
        assert sum(sum(row) for row in report.confusion) == report.n_total

    def test_flipped_gold_complements_accuracy(self):
        lex = lexicon_of(good=1.0, bad=-0.5)
        docs = documents(self.reviews())[:3]
        token_lists = [tokens for _, tokens, _ in docs]
        reviews = make_corpus(token_lists, labels=[label for *_, label in docs])
        flipped = make_corpus(token_lists,
                              labels=[POS if label == NEG else NEG for label in reviews.labels])
        assert evaluate(reviews, lex).accuracy == \
            pytest.approx(1.0 - evaluate(flipped, lex).accuracy)

    def test_global_shift_flips_only_crossing_reviews(self):
        scores = {"a": 0.4, "b": -0.3, "c": 0.05, "d": -0.9}
        reviews = [review_of("a", "b", label=POS), review_of("c", label=POS),
                   review_of("d", label=NEG), review_of("b", "c", label=NEG)]
        base_labels = [label_of(r, lexicon_of(**scores)) for r in reviews]
        # c == 0 is the identity case
        same = [label_of(r, lexicon_of(**scores)) for r in reviews]
        assert same == base_labels
        shift = 0.2
        shifted = lexicon_of(**{w: s + shift for w, s in scores.items()})
        for review, before in zip(reviews, base_labels):
            mean, _ = review_means(review, lexicon_of(**scores))[0]
            after = label_of(review, shifted)
            if (mean < 0.0) == (mean + shift < 0.0):
                assert after == before
            else:
                assert after != before


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    """Small trained world shared by sweep and pipeline tests."""
    root = tmp_path_factory.mktemp("world")
    train = make_reviews(200, seed=31)
    test = make_reviews(60, seed=77)
    table = train_sgns(train, SgnsConfig(dim=24, epochs=3, min_count=3, rng_seed=5))

    corpus_path = root / "train.tsv"
    save_tagged_corpus(train, corpus_path)
    reviews_path = root / "reviews.tsv"
    save_reviews(test, reviews_path)
    lexicon_path = root / "gold.tsv"
    records.write(lexicon_path, sorted(gold_lexicon().items()))
    return {"train": train, "test": test, "table": table, "root": root,
            "corpus_path": corpus_path, "reviews_path": reviews_path,
            "lexicon_path": lexicon_path}


class TestSweep:
    def test_single_cutoff_single_row(self, small_world):
        rows = sweep_cutoffs(small_world["train"], small_world["test"], MODE_UNSUP,
                             [2], small_world["table"])
        assert len(rows) == 1
        assert rows[0].cutoff == 2
        assert rows[0].mode == MODE_UNSUP

    def test_k_non_increasing_and_rows_in_order(self, small_world):
        cutoffs = [1, 2, 4, 8, 16, 32, 64]
        rows = sweep_cutoffs(small_world["train"], small_world["test"], MODE_UNSUP,
                             cutoffs, small_world["table"])
        assert [r.cutoff for r in rows] == cutoffs
        ks = [r.k_point_words for r in rows if r.k_point_words]
        assert ks == sorted(ks, reverse=True)

    def test_failures_reported_not_raised(self, small_world):
        rows = sweep_cutoffs(small_world["train"], small_world["test"], MODE_UNSUP,
                             [10_000], small_world["table"])
        assert rows[0].accuracy is None
        assert rows[0].reason == "NoQualifyingPhrasesError"

    def test_failure_after_selection_keeps_its_point_word_count(self, small_world):
        # a one-sided polarity lexicon: selection passes, build-axis cannot partition
        rows = sweep_cutoffs(small_world["train"], small_world["test"], MODE_SEMI,
                             [7, 10_000], small_world["table"], lexicon={"excellent": 1.0})
        k = len(select_point_words(extract_phrases(small_world["train"]), 7).words)
        assert k > 0
        assert [(r.k_point_words, r.accuracy, r.reason) for r in rows] == [
            (k, None, "PartitionError"), (0, None, "NoQualifyingPhrasesError")]

    def test_pmi_mode_rejected(self, small_world):
        with pytest.raises(ConfigError):
            sweep_cutoffs(small_world["train"], small_world["test"], "pmi",
                          [1], small_world["table"])

    def test_empty_cutoffs_rejected(self, small_world):
        with pytest.raises(ConfigError):
            sweep_cutoffs(small_world["train"], small_world["test"], MODE_UNSUP,
                          [], small_world["table"])

    def test_csv_format(self, tmp_path):
        rows = [SweepRow(cutoff=1, k_point_words=12, accuracy=0.75, mode=MODE_UNSUP),
                SweepRow(cutoff=2, k_point_words=0, accuracy=None, mode=MODE_UNSUP,
                         reason="PartitionError")]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cutoff,k,mode,accuracy,reason"
        assert lines[1] == "1,12,unsup,0.75,"
        assert lines[2] == "2,0,unsup,,PartitionError"


class TestPipeline:
    def test_unsupervised_run_completes(self, small_world, tmp_path):
        config = PipelineConfig(
            corpus_path=str(small_world["corpus_path"]),
            reviews_path=str(small_world["reviews_path"]),
            out_dir=str(tmp_path / "out"),
            mode=MODE_UNSUP, cutoff=2,
            sgns=SgnsConfig(dim=16, epochs=2, min_count=3, rng_seed=9),
        )
        report = run_pipeline(config)
        assert 0.0 <= report.accuracy <= 1.0
        out = tmp_path / "out"
        assert (out / "lexicon.tsv").exists()
        assert (out / "axis.tsv").exists()
        assert (out / "projection.csv").exists()
        assert (out / "report.txt").exists()
        assert (out / "embeddings.txt").exists()
        # the seed's orientation is non-negative in the written lexicon
        from sentaxis.axis import load_orientation_lexicon
        lexicon = load_orientation_lexicon(out / "lexicon.tsv")
        assert lexicon.scores["excellent"] >= 0.0

    def test_semi_without_lexicon_is_config_error(self, small_world, tmp_path):
        config = PipelineConfig(
            corpus_path=str(small_world["corpus_path"]),
            reviews_path=str(small_world["reviews_path"]),
            out_dir=str(tmp_path / "out"),
            mode=MODE_SEMI, cutoff=2,
        )
        with pytest.raises(ConfigError):
            run_pipeline(config)

    def test_semi_run_with_lexicon(self, small_world, tmp_path):
        config = PipelineConfig(
            corpus_path=str(small_world["corpus_path"]),
            reviews_path=str(small_world["reviews_path"]),
            out_dir=str(tmp_path / "out"),
            mode=MODE_SEMI, cutoff=2,
            lexicon_path=str(small_world["lexicon_path"]),
            sgns=SgnsConfig(dim=16, epochs=2, min_count=3, rng_seed=9),
        )
        report = run_pipeline(config)
        assert report.accuracy > 0.0
        assert read_report(tmp_path / "out" / "report.txt")["config_mode"] == MODE_SEMI

    def test_stage_attribution_on_failure(self, small_world, tmp_path):
        config = PipelineConfig(
            corpus_path=str(tmp_path / "missing.tsv"),
            reviews_path=str(small_world["reviews_path"]),
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises((PipelineError, FileNotFoundError)):
            run_pipeline(config)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_out_as_it_was(self, small_world, tmp_path, monkeypatch,
                                               existing):
        runs = tmp_path / "runs"
        runs.mkdir()

        def config(seed):
            return PipelineConfig(
                corpus_path=str(small_world["corpus_path"]),
                reviews_path=str(small_world["reviews_path"]), out_dir=str(runs / "out"),
                sgns=SgnsConfig(dim=8, epochs=1, min_count=3, rng_seed=seed))
        if existing:
            run_pipeline(config(9))
        before = {path.name: path.read_bytes() for path in runs.glob("*/*")}
        assert len(before) == (5 if existing else 0)

        def fail(*args):
            raise OSError("disk full")
        monkeypatch.setattr(axis_mod, "save_projection_csv", fail)
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(config(10))
        assert {path.name: path.read_bytes() for path in runs.glob("*/*")} == before
        assert [path.name for path in runs.iterdir()] == (["out"] if existing else [])

    def test_bad_cutoff_attributed_to_select_stage(self, small_world, tmp_path):
        config = PipelineConfig(
            corpus_path=str(small_world["corpus_path"]),
            reviews_path=str(small_world["reviews_path"]),
            out_dir=str(tmp_path / "out"),
            mode=MODE_UNSUP, cutoff=10_000,
            sgns=SgnsConfig(dim=16, epochs=1, min_count=3, rng_seed=9),
        )
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert err.value.stage == "select-points"


class TestReportFormat:
    def test_write_and_read_back(self, tmp_path):
        from sentaxis.evaluation import EvalReport
        report = EvalReport(
            accuracy=0.75, n_total=4, n_correct=3, n_pos_gold=2, n_neg_gold=2,
            n_undecided=1, confusion=((2, 0), (1, 1)))
        path = tmp_path / "report.txt"
        write_report(report, path, {"mode": "unsup", "cutoff": 3})
        values = read_report(path)
        assert values["accuracy"] == "0.75"
        assert values["n_total"] == "4"
        assert values["confusion_gold_neg_pred_pos"] == "1"
        assert values["config_mode"] == "unsup"
        assert values["config_cutoff"] == "3"

    def test_report_lines_are_key_value(self, tmp_path):
        from sentaxis.evaluation import EvalReport
        report = EvalReport(
            accuracy=1.0, n_total=1, n_correct=1, n_pos_gold=1, n_neg_gold=0,
            n_undecided=0, confusion=((1, 0), (0, 0)))
        path = tmp_path / "report.txt"
        write_report(report, path, {})
        for line in path.read_text().splitlines():
            assert "=" in line
