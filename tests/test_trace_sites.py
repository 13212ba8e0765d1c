"""The benchmark traces sentaxis functions by module attribute name and
reads counts off their results; a refactor that moves a site or renames a
result field must fail here, not only inside the benchmark."""

import importlib
import sys
from pathlib import Path

import pytest

from sentaxis import axis as axis_mod
from sentaxis import cli, patterns
from sentaxis.corpus import load_tagged_corpus
from sentaxis.evaluation import read_report
from sentaxis.vectors import load_embeddings

from corpus_helpers import save_reviews, save_tagged_corpus
from synthgen import make_reviews

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def benchmark_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_site_resolves(benchmark_modules):
    tracing, workloads = benchmark_modules
    expected = set().union(*workloads.EXPECTED_SITES.values())
    assert expected <= set(tracing.SITES)
    for site in tracing.SITES:
        module_name, _, attr = site.rpartition(".")
        module = importlib.import_module(f"sentaxis.{module_name}")
        assert callable(getattr(module, attr, None)), site


def _site_attr(site):
    module_name, _, attr = site.rpartition(".")
    return importlib.import_module(f"sentaxis.{module_name}"), attr


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    corpus = root / "train.tsv"
    save_tagged_corpus(make_reviews(150, seed=41), corpus)
    reviews = root / "reviews.tsv"
    save_reviews(make_reviews(40, seed=42), reviews)
    # no in-lexicon token and no phrase: undecided in both classifiers
    with reviews.open("a", encoding="utf-8") as fh:
        fh.write("POS\tzzzunseen_NN\n")
    return root, corpus, reviews


def _traced_run(tracing, argv):
    """Run the CLI in-process under a Tracer; every patched site is restored."""
    originals = {site: getattr(*_site_attr(site)) for site in tracing.SITES}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main(argv) == 0
    finally:
        for site, func in originals.items():
            setattr(*_site_attr(site), func)
    assert all(getattr(*_site_attr(site)) is func for site, func in originals.items())
    trace = tracer.dump()
    return trace, tracing.layer_metrics(trace, corpus_tokens=1, sgns_tokens=1)


def test_pmi_baseline_trace_counts_agree_with_report(benchmark_modules, tiny_inputs):
    tracing, workloads = benchmark_modules
    root, corpus, reviews = tiny_inputs
    report_path = root / "pmi.txt"
    trace, metrics = _traced_run(tracing, ["pmi-baseline", "--corpus", str(corpus),
                                           "--reviews", str(reviews),
                                           "--report", str(report_path)])
    report = read_report(report_path)
    counts, calls = trace["counts"], tracing.site_calls(trace["spans"])
    assert set(calls) >= workloads.EXPECTED_SITES["pmi-20k"]
    n_total, n_undecided = int(report["n_total"]), int(report["n_undecided"])
    assert n_undecided == 1
    assert counts["evaluation.reviews"] == calls["pmi.classify_review_pmi"] == n_total
    assert counts["evaluation.undecided"] == counts["pmi.no_phrase"] == n_undecided
    assert metrics["pmi.no_phrase_ratio"] == n_undecided / n_total
    # every phrase a review yields is looked up once; each new one is scored once,
    # against both seeds, and adds one NEAR pair per seed
    assert counts["pmi.phrase_lookups"] == counts["patterns.phrases"] > 0
    assert counts["pmi.near_pairs"] == 2 * calls["pmi.so_phrase"] > 0
    assert metrics["pmi.so_cache_hit_ratio"] == pytest.approx(
        1 - calls["pmi.so_phrase"] / counts["pmi.phrase_lookups"])


def test_unsup_pipeline_trace_counts_agree_with_report(benchmark_modules, tiny_inputs):
    tracing, workloads = benchmark_modules
    root, corpus, reviews = tiny_inputs
    out = root / "run"
    trace, metrics = _traced_run(tracing, [
        "pipeline", "--corpus", str(corpus), "--reviews", str(reviews),
        "--mode", "unsup", "--cutoff", "2", "--dim", "16", "--epochs", "2",
        "--min-count", "3", "--seed", "13", "--out", str(out)])
    report = read_report(out / "report.txt")
    counts, calls = trace["counts"], tracing.site_calls(trace["spans"])
    assert set(calls) >= workloads.EXPECTED_SITES["train-unsup-2k"]
    n_total, n_undecided = int(report["n_total"]), int(report["n_undecided"])
    assert n_undecided == 1
    assert counts["evaluation.reviews"] == n_total
    assert counts["evaluation.undecided"] == n_undecided
    assert metrics["evaluation.undecided_ratio"] == n_undecided / n_total
    # the principal axis again, from the files the run wrote
    train = load_tagged_corpus(corpus)
    points = patterns.select_point_words(patterns.extract_phrases(train), 2)
    table = load_embeddings(out / "embeddings.txt")
    projection = axis_mod.principal_axis(axis_mod.build_distance_matrix(points, table))
    assert counts["axis.pc1_explained"] == float(projection.explained_variance[0])
    assert metrics["axis.pc1_explained"] == counts["axis.pc1_explained"]


def test_pipeline_into_an_existing_empty_out_leaves_no_temporary_directory(
        benchmark_modules, tiny_inputs):
    # the benchmark runs each pipeline into an empty --out it made beforehand
    tracing, workloads = benchmark_modules
    root, corpus, reviews = tiny_inputs
    out = root / "runs" / "out"
    out.mkdir(parents=True)
    trace, _ = _traced_run(tracing, [
        "pipeline", "--corpus", str(corpus), "--reviews", str(reviews),
        "--mode", "unsup", "--cutoff", "2", "--dim", "16", "--epochs", "2",
        "--min-count", "3", "--seed", "13", "--out", str(out)])
    calls = tracing.site_calls(trace["spans"])
    assert set(calls) >= workloads.EXPECTED_SITES["train-unsup-2k"]
    writers = ("evaluation.save_embeddings", "axis.save_axis", "axis.save_orientation_lexicon",
               "axis.save_projection_csv", "evaluation.write_report")
    assert [calls[site] for site in writers] == [1] * len(writers)
    assert [path.name for path in out.parent.iterdir()] == ["out"]
    assert sorted(path.name for path in out.iterdir()) == [
        "axis.tsv", "embeddings.txt", "lexicon.tsv", "projection.csv", "report.txt"]
