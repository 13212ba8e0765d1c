"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Reproduction of published full-corpus accuracy figures is out of scope at this
scale; the end-to-end checks below assert signal direction and floor accuracy
on a deterministic desk-scale corpus instead (see tests/synthgen.py).

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the test names.
"""

import functools
import time

import numpy as np
import pytest

from sentaxis import axis as axis_mod
from sentaxis import evaluation as ev
from sentaxis import patterns, pmi, records
from sentaxis.axis import SentimentAxis, principal_axis
from sentaxis.sgns import (
    SgnsConfig,
    negative_sampling_grads,
    negative_sampling_loss,
    train_sgns,
)
from sentaxis.vectors import EmbeddingTable

from corpus_helpers import documents, make_corpus, save_reviews, save_tagged_corpus
from pattern_fixture import FIFTY_DOCUMENTS
from synthgen import gold_lexicon, make_reviews
from test_patterns import oracle_extract
from test_pca import matches_up_to_sign, oracle_projection, random_distance_matrix, relative_gap
from test_pmi import make_index
from test_sgns import central_difference

DESK_RUN_BUDGET_SECONDS = 15 * 60


def criterion(name):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL: {name}")
                raise
            print(f"ACCEPTANCE PASS: {name}")
            return result
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """2,000 balanced training reviews, 500 balanced held-out reviews, one
    trained embedding table, and the runtimes of each pipeline leg."""
    root = tmp_path_factory.mktemp("acceptance")
    train = make_reviews(2000, seed=11)
    test = make_reviews(500, seed=99)

    corpus_path = root / "train.tsv"
    save_tagged_corpus(train, corpus_path)
    reviews_path = root / "reviews.tsv"
    save_reviews(test, reviews_path)
    lexicon_path = root / "gold.tsv"
    records.write(lexicon_path, sorted(gold_lexicon().items()))

    timings = {}
    start = time.monotonic()
    table = train_sgns(train, SgnsConfig(dim=64, window=5, negatives=5, epochs=5,
                                         min_count=5, rng_seed=3))
    timings["train"] = time.monotonic() - start

    start = time.monotonic()
    phrases = patterns.extract_phrases(train)
    points = patterns.select_point_words(phrases, cutoff=2)

    unsup_axis, projection = ev.induce_axis(points, table, ev.MODE_UNSUP)
    unsup_lexicon = axis_mod.score_vocabulary(unsup_axis, table)
    unsup_report = ev.evaluate(test, unsup_lexicon)
    timings["unsup"] = time.monotonic() - start

    start = time.monotonic()
    semi_axis, _ = ev.induce_axis(points, table, ev.MODE_SEMI, lexicon=gold_lexicon())
    semi_lexicon = axis_mod.score_vocabulary(semi_axis, table)
    semi_report = ev.evaluate(test, semi_lexicon)
    timings["semi"] = time.monotonic() - start

    start = time.monotonic()
    index = pmi.build_near_index(train, window=10)
    pmi_report = ev.evaluate_pmi(index, test)
    timings["pmi"] = time.monotonic() - start

    return {
        "root": root, "train": train, "test": test, "table": table,
        "points": points, "projection": projection,
        "unsup_axis": unsup_axis, "unsup_lexicon": unsup_lexicon,
        "unsup_report": unsup_report, "semi_report": semi_report,
        "pmi_report": pmi_report, "timings": timings,
        "corpus_path": corpus_path, "reviews_path": reviews_path,
        "lexicon_path": lexicon_path,
    }


@criterion("end-to-end signal: unsupervised accuracy > 0.55 on held-out reviews")
def test_unsupervised_signal(world):
    accuracy = world["unsup_report"].accuracy
    elapsed = world["timings"]["train"] + world["timings"]["unsup"]
    print(f"  unsupervised accuracy={accuracy:.4f} ({elapsed:.1f}s)")
    assert accuracy > 0.55
    assert elapsed < DESK_RUN_BUDGET_SECONDS


@criterion("end-to-end signal: semi-supervised >= unsupervised - 0.02")
def test_semi_supervised_signal(world):
    semi = world["semi_report"].accuracy
    unsup = world["unsup_report"].accuracy
    elapsed = world["timings"]["train"] + world["timings"]["semi"]
    print(f"  semi={semi:.4f} unsup={unsup:.4f} ({elapsed:.1f}s)")
    assert semi >= unsup - 0.02
    assert elapsed < DESK_RUN_BUDGET_SECONDS


@criterion("ordering: unsupervised pipeline >= local PMI baseline")
def test_pipeline_beats_pmi_baseline(world):
    unsup = world["unsup_report"].accuracy
    baseline = world["pmi_report"].accuracy
    print(f"  unsupervised={unsup:.4f} pmi={baseline:.4f}")
    assert unsup >= baseline


@criterion("PCA oracle: 100 random fixtures up to 8x8 match eigendecomposition")
def test_pca_oracle_suite():
    rng = np.random.default_rng(2718)
    start = time.monotonic()
    checked = 0
    while checked < 100:
        k = int(rng.integers(3, 9))
        dm = random_distance_matrix(rng, k)
        if relative_gap(dm) < 1e-3:
            continue  # direction ill-posed when the top eigenvalues collide
        proj = principal_axis(dm)
        expected_pc1, _, _, _ = oracle_projection(dm)
        assert matches_up_to_sign(proj.pc1, expected_pc1, 1e-6), f"fixture {checked}"
        checked += 1
    elapsed = time.monotonic() - start
    print(f"  100 fixtures in {elapsed:.2f}s")
    assert elapsed < 5.0


@criterion("hit-ratio orientation formula exact on the documented toy corpus")
def test_pmi_formula_exactness():
    balanced = make_index(1, 1, 3, 3)
    assert pmi.so_phrase(balanced, ("very", "good")) == 0.0

    four_to_one = make_index(4, 1, 5, 5)
    assert pmi.so_phrase(four_to_one, ("very", "good")) == \
        pytest.approx(2.0, abs=1e-9)

    zero_hit = make_index(2, 0, 10, 5)
    assert pmi.so_phrase(zero_hit, ("very", "good")) == \
        pytest.approx(6.643856189774724, abs=1e-9)


@criterion("orientation scores: exact antisymmetry under reference swap")
def test_orientation_antisymmetry(world):
    table = world["table"]
    oriented = world["unsup_axis"]
    swapped = SentimentAxis(
        pos_words=oriented.neg_words, neg_words=oriented.pos_words,
        vec_pos=oriented.vec_neg, vec_neg=oriented.vec_pos,
        seed=oriented.seed, mode=oriented.mode)
    base = axis_mod.score_vocabulary(oriented, table).scores
    negated = axis_mod.score_vocabulary(swapped, table).scores
    for word in table.words:
        assert negated[word] == -base[word]


@criterion("orientation scores: seed word scores non-negative after orientation")
def test_seed_nonnegative(world):
    assert world["unsup_lexicon"].scores["excellent"] >= 0.0
    semi_axis, _ = ev.induce_axis(world["points"], world["table"], ev.MODE_SEMI,
                                  lexicon=gold_lexicon())
    semi_scores = axis_mod.score_vocabulary(semi_axis, world["table"]).scores
    assert semi_scores["excellent"] >= 0.0


@criterion("orientation scores: invariant under global positive scaling (1e-9)")
def test_scale_invariance(world):
    table = world["table"]
    scaled = EmbeddingTable(table.words, table.matrix * 3.7)
    points = world["points"]

    base_axis, _ = ev.induce_axis(points, table, ev.MODE_UNSUP)
    scaled_axis, _ = ev.induce_axis(points, scaled, ev.MODE_UNSUP)
    assert scaled_axis.pos_words == base_axis.pos_words
    assert scaled_axis.neg_words == base_axis.neg_words

    base = axis_mod.score_vocabulary(base_axis, table).scores
    after = axis_mod.score_vocabulary(scaled_axis, scaled).scores
    worst = max(abs(after[w] - base[w]) for w in base)
    print(f"  worst score drift under scaling: {worst:.2e}")
    assert worst <= 1e-9


@criterion("pattern extraction equals the enumeration oracle byte-for-byte")
def test_pattern_extraction_exactness(tmp_path):
    corpus = make_corpus(FIFTY_DOCUMENTS)
    path = tmp_path / "phrases.tsv"
    patterns.save_phrases(patterns.extract_phrases(corpus), path)
    got = sorted(path.read_text(encoding="utf-8").splitlines())
    expected = sorted(
        f"{w1}\t{w2}\t{rule}\t{doc}\t{pos}"
        for w1, w2, rule, doc, pos in oracle_extract(corpus))
    assert "\n".join(got) == "\n".join(expected)
    assert len(got) >= 30  # the fixture is not trivially empty


@criterion("embedding gradients match finite differences (1e-4 relative)")
def test_gradient_check():
    rng = np.random.default_rng(2024)
    center = rng.normal(scale=0.8, size=7)
    outputs = rng.normal(scale=0.8, size=(4, 7))
    d_center, d_outputs = negative_sampling_grads(center.copy(), outputs.copy())
    num_center = central_difference(
        lambda: negative_sampling_loss(center, outputs), center)
    num_outputs = central_difference(
        lambda: negative_sampling_loss(center, outputs), outputs)
    assert np.allclose(d_center, num_center, rtol=1e-4, atol=1e-8)
    assert np.allclose(d_outputs, num_outputs, rtol=1e-4, atol=1e-8)


@criterion("per-tag polarity variance matches the spreadsheet values (1e-9)")
def test_tag_variance_spreadsheet():
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
    report = patterns.tag_polarity_variance(annotated)
    expected = {
        "JJ": 2.9435937500000002, "RB": 1.578888888888889,
        "NN": 0.029599999999999998, "VB": 0.1325,
        "DT": 0.0010500000000000002, ".": 0.0, "UH": 0.0,
    }
    for tag, variance in expected.items():
        assert report.per_tag[tag][0] == pytest.approx(variance, abs=1e-9)
    assert report.total_variance == pytest.approx(33.704283333333336, abs=1e-9)


@criterion("modifier tags out-rank determiners and punctuation by variance share")
def test_tag_variance_directional(world):
    gold = gold_lexicon()
    annotated = []
    for _, tokens, _ in documents(world["test"])[:200]:
        for i, (word, tag) in enumerate(tokens):
            polarity = gold.get(word, 0.01 if i % 2 else -0.01)
            annotated.append((word, tag, polarity))
    report = patterns.tag_polarity_variance(annotated)
    shares = report.shares()
    modifier_share = max(shares.get(tag, 0.0) for tag in ("JJ", "RB", "JJS", "RBR"))
    function_share = max(shares.get(tag, 0.0) for tag in ("DT", ".", "CC"))
    print(f"  modifier share={modifier_share:.3f} function-word share={function_share:.5f}")
    assert modifier_share > function_share


def test_embedding_sanity_at_scale(world):
    # related sentiment adjectives sit closer than unrelated function words
    from sentaxis.vectors import cosine_similarity
    table = world["table"]
    assert cosine_similarity(table["good"], table["great"]) > \
        cosine_similarity(table["good"], table["the"])


@criterion("determinism: identical config and seed give byte-identical outputs")
def test_pipeline_determinism(world, tmp_path):
    config = ev.PipelineConfig(
        corpus_path=str(world["corpus_path"]),
        reviews_path=str(world["reviews_path"]),
        out_dir=str(tmp_path / "run"),
        mode=ev.MODE_UNSUP, cutoff=2,
        sgns=SgnsConfig(dim=24, epochs=2, min_count=4, rng_seed=17),
    )
    run_dir = tmp_path / "run"
    ev.run_pipeline(config)
    first = {name: (run_dir / name).read_bytes()
             for name in ("lexicon.tsv", "report.txt", "axis.tsv", "projection.csv")}
    ev.run_pipeline(config)
    for name, content in first.items():
        assert (run_dir / name).read_bytes() == content, name
