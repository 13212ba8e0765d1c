import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sentaxis
from sentaxis.cli import _sgns_config_from, build_parser, main
from sentaxis import records
from sentaxis.evaluation import read_report
from sentaxis.patterns import extract_phrases, load_point_words, select_point_words
from sentaxis.sgns import SgnsConfig
from sentaxis.vectors import load_embeddings

from corpus_helpers import save_reviews, save_tagged_corpus
from synthgen import gold_lexicon, make_reviews


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train = make_reviews(150, seed=41)
    test = make_reviews(40, seed=42)

    corpus = root / "train.tsv"
    save_tagged_corpus(train, corpus)
    reviews = root / "reviews.tsv"
    save_reviews(test, reviews)
    lexicon = root / "gold.tsv"
    records.write(lexicon, sorted(gold_lexicon().items()))

    embeddings = root / "vectors.txt"
    code = main(["train-embeddings", "--corpus", str(corpus),
                 "--dim", "16", "--epochs", "2", "--min-count", "3",
                 "--seed", "13", "--out", str(embeddings)])
    assert code == 0
    return {"root": root, "corpus": corpus, "reviews": reviews,
            "lexicon": lexicon, "embeddings": embeddings}


def test_train_embeddings_output_loads(world):
    table = load_embeddings(world["embeddings"])
    assert table.dim == 16
    assert len(table) > 10


def test_extract_and_select_points(world):
    phrases = world["root"] / "phrases.tsv"
    assert main(["extract-phrases", "--corpus", str(world["corpus"]),
                 "--out", str(phrases)]) == 0
    assert phrases.read_text().splitlines()

    points = world["root"] / "points.tsv"
    assert main(["select-points", "--phrases", str(phrases),
                 "--corpus", str(world["corpus"]),
                 "--cutoff", "2", "--out", str(points)]) == 0
    body = [l for l in points.read_text().splitlines() if not l.startswith("#")]
    assert all("\t" in line for line in body)


def test_build_axis_score_classify_unsup(world):
    axis_dir = world["root"] / "axis_unsup"
    assert main(["build-axis", "--embeddings", str(world["embeddings"]),
                 "--points", str(world["root"] / "points.tsv"),
                 "--mode", "unsup", "--out", str(axis_dir)]) == 0
    assert (axis_dir / "axis.tsv").exists()
    assert (axis_dir / "projection.csv").exists()

    lexicon_out = world["root"] / "orientation.tsv"
    assert main(["score", "--axis", str(axis_dir),
                 "--embeddings", str(world["embeddings"]),
                 "--out", str(lexicon_out)]) == 0

    report = world["root"] / "report.txt"
    assert main(["classify", "--lexicon", str(lexicon_out),
                 "--reviews", str(world["reviews"]),
                 "--report", str(report)]) == 0
    values = read_report(report)
    assert 0.0 <= float(values["accuracy"]) <= 1.0
    assert int(values["n_total"]) == 40


def test_build_axis_semi_requires_lexicon(world):
    axis_dir = world["root"] / "axis_semi_missing"
    code = main(["build-axis", "--embeddings", str(world["embeddings"]),
                 "--points", str(world["root"] / "points.tsv"),
                 "--mode", "semi", "--out", str(axis_dir)])
    assert code == 1


def test_build_axis_semi_with_lexicon(world):
    axis_dir = world["root"] / "axis_semi"
    assert main(["build-axis", "--embeddings", str(world["embeddings"]),
                 "--points", str(world["root"] / "points.tsv"),
                 "--mode", "semi", "--lexicon", str(world["lexicon"]),
                 "--out", str(axis_dir)]) == 0
    content = (axis_dir / "axis.tsv").read_text()
    assert "mode\tsemi-supervised" in content


def test_sweep_csv(world):
    csv_path = world["root"] / "sweep.csv"
    assert main(["sweep", "--corpus", str(world["corpus"]),
                 "--reviews", str(world["reviews"]),
                 "--embeddings", str(world["embeddings"]),
                 "--cutoffs", "1..3", "--mode", "unsup",
                 "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "cutoff,k,mode,accuracy,reason"
    assert len(lines) == 4


def test_sweep_semi_without_lexicon_is_tool_error(world, tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--corpus", str(world["corpus"]),
                 "--reviews", str(world["reviews"]),
                 "--embeddings", str(world["embeddings"]),
                 "--cutoffs", "1..3", "--mode", "semi", "--csv", str(csv_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: semi-supervised mode requires a polarity lexicon\n"
    assert not csv_path.exists()


def test_sweep_comma_list(world):
    csv_path = world["root"] / "sweep2.csv"
    assert main(["sweep", "--corpus", str(world["corpus"]),
                 "--reviews", str(world["reviews"]),
                 "--embeddings", str(world["embeddings"]),
                 "--cutoffs", "2,4", "--mode", "semi",
                 "--lexicon", str(world["lexicon"]),
                 "--csv", str(csv_path)]) == 0
    assert len(csv_path.read_text().splitlines()) == 3


def test_pmi_baseline(world):
    report = world["root"] / "pmi.txt"
    assert main(["pmi-baseline", "--corpus", str(world["corpus"]),
                 "--reviews", str(world["reviews"]),
                 "--window", "10", "--seeds", "excellent,poor",
                 "--report", str(report)]) == 0
    values = read_report(report)
    assert values["config_window"] == "10"
    assert 0.0 <= float(values["accuracy"]) <= 1.0


def test_pmi_missing_seed_is_tool_error(world, tmp_path, capsys):
    corpus = tmp_path / "tiny.tsv"
    corpus.write_text("the\tDT\nfilm\tNN\n", encoding="utf-8")
    code = main(["pmi-baseline", "--corpus", str(corpus),
                 "--reviews", str(world["reviews"]),
                 "--report", str(tmp_path / "r.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_pmi_missing_seed_is_detected_when_no_review_has_a_phrase(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("excellent\tJJ\nfilm\tNN\n\nthe\tDT\nfilm\tNN\n", encoding="utf-8")
    reviews = tmp_path / "reviews.tsv"
    reviews.write_text("POS\tthe_DT film_NN\nNEG\tthe_DT film_NN\n", encoding="utf-8")
    report = tmp_path / "r.txt"
    code = main(["pmi-baseline", "--corpus", str(corpus), "--reviews", str(reviews),
                 "--report", str(report)])
    assert code == 1
    assert "'poor'" in capsys.readouterr().err
    assert not report.exists()


def test_pmi_undecodable_corpus_names_file_and_line(world, tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_bytes(b"the\tDT\n\xff\tNN\n")
    code = main(["pmi-baseline", "--corpus", str(corpus), "--reviews", str(world["reviews"]),
                 "--report", str(tmp_path / "r.txt")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {corpus}:2: byte 0xff is not UTF-8\n"


def test_pmi_missing_corpus_file_is_tool_error(world, tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    code = main(["pmi-baseline", "--corpus", str(missing),
                 "--reviews", str(world["reviews"]),
                 "--report", str(tmp_path / "r.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_pmi_report_in_missing_directory_is_tool_error(world, tmp_path, capsys):
    report = tmp_path / "nodir" / "r.txt"
    code = main(["pmi-baseline", "--corpus", str(world["corpus"]),
                 "--reviews", str(world["reviews"]), "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(report) in err


@pytest.mark.parametrize("flag,value", [
    ("--window", "0"), ("--window", "-3"),
    ("--seeds", "excellent"), ("--seeds", "excellent,"), ("--seeds", ",poor"),
    ("--seeds", "excellent,poor,bad"), ("--seeds", "Excellent,excellent"),
])
def test_pmi_bad_argument_rejected_before_reading_files(tmp_path, capsys, flag, value):
    # the input files do not exist: the argument must be checked first
    code = main(["pmi-baseline", "--corpus", str(tmp_path / "nope.tsv"),
                 "--reviews", str(tmp_path / "nope-reviews.tsv"),
                 "--report", str(tmp_path / "r.txt"), flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be") and "nope" not in err


def test_tag_variance(world, tmp_path):
    annotated = tmp_path / "annotated.tsv"
    annotated.write_text(
        "good\tJJ\t1.0\nbad\tJJ\t-1.0\nthe\tDT\t0.0\nthe\tDT\t0.0\n",
        encoding="utf-8")
    out = tmp_path / "variance.tsv"
    assert main(["tag-variance", "--annotated", str(annotated),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# total_variance=")
    assert lines[1].startswith("JJ\t")


def test_tag_variance_strips_its_fields(tmp_path):
    # as the corpus and lexicon loaders do: ' JJ ' is the tag JJ
    annotated = tmp_path / "annotated.tsv"
    annotated.write_text(" good \t JJ \t1.0\nbad\tJJ\t-1\n", encoding="utf-8")
    out = tmp_path / "variance.tsv"
    assert main(["tag-variance", "--annotated", str(annotated), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["# total_variance=2.0", "JJ\t1.0\t2\t1.0"]


def test_pipeline_command(world, tmp_path):
    out_dir = tmp_path / "pipe"
    assert main(["pipeline", "--corpus", str(world["corpus"]),
                 "--reviews", str(world["reviews"]),
                 "--mode", "unsup", "--cutoff", "2",
                 "--dim", "16", "--epochs", "2", "--min-count", "3",
                 "--seed", "13", "--out", str(out_dir)]) == 0
    for name in ("lexicon.tsv", "axis.tsv", "projection.csv", "report.txt"):
        assert (out_dir / name).exists()


def test_pipeline_reuses_trained_embeddings(world, tmp_path):
    out_dir = tmp_path / "pipe2"
    assert main(["pipeline", "--corpus", str(world["corpus"]),
                 "--reviews", str(world["reviews"]),
                 "--mode", "unsup", "--cutoff", "2",
                 "--embeddings", str(world["embeddings"]),
                 "--out", str(out_dir)]) == 0
    assert not (out_dir / "embeddings.txt").exists()


def test_pipeline_with_embeddings_records_unchecked_training_flags(world, tmp_path):
    # nothing trains, so a bad training flag is recorded, not refused
    out_dir = tmp_path / "pipe3"
    assert main(["pipeline", "--corpus", str(world["corpus"]),
                 "--reviews", str(world["reviews"]),
                 "--mode", "unsup", "--cutoff", "2",
                 "--embeddings", str(world["embeddings"]),
                 "--subsample", "-1", "--dim", "0",
                 "--out", str(out_dir)]) == 0
    report = read_report(out_dir / "report.txt")
    assert report["config_sgns_subsample_threshold"] == "-1.0"
    assert report["config_sgns_dim"] == "0"
    assert report["config_sgns_epochs"] == str(SgnsConfig().epochs)


def test_pipeline_that_trains_checks_the_training_flags(world, tmp_path, capsys):
    out_dir = tmp_path / "pipe4"
    assert main(["pipeline", "--corpus", str(world["corpus"]),
                 "--reviews", str(world["reviews"]), "--mode", "unsup",
                 "--subsample", "-1", "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: --subsample (subsample_threshold)")
    assert not out_dir.exists()


def test_pipeline_failing_after_training_leaves_no_embeddings(world, tmp_path, capsys):
    out_dir = tmp_path / "pipe5"
    assert main(["pipeline", "--corpus", str(world["corpus"]),
                 "--reviews", str(world["reviews"]), "--mode", "unsup",
                 "--cutoff", "100000", "--dim", "8", "--epochs", "1", "--min-count", "3",
                 "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: stage 'select-points' failed")
    assert not out_dir.exists()


def test_pipeline_cutoff_past_int64_creates_no_out(world, tmp_path, capsys):
    out_dir = tmp_path / "pipe6"
    assert main(["pipeline", "--corpus", str(world["corpus"]),
                 "--reviews", str(world["reviews"]), "--mode", "unsup",
                 "--embeddings", str(world["embeddings"]),
                 "--cutoff", "100000000000000000000000", "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: stage 'select-points' failed")
    assert not out_dir.exists()


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_bad_cutoff_range_is_tool_error(world, capsys):
    code = main(["sweep", "--corpus", str(world["corpus"]),
                 "--reviews", str(world["reviews"]),
                 "--embeddings", str(world["embeddings"]),
                 "--cutoffs", "0..2", "--mode", "unsup",
                 "--csv", str(world["root"] / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_classify_rejects_nan_lexicon_score(world, tmp_path, capsys):
    lexicon = tmp_path / "nan.tsv"
    lexicon.write_text("# mode=unsupervised\nbad\t-0.5\ngood\tnan\n", encoding="utf-8")
    code = main(["classify", "--lexicon", str(lexicon),
                 "--reviews", str(world["reviews"]),
                 "--report", str(tmp_path / "r.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{lexicon}:3:" in err
    assert not (tmp_path / "r.txt").exists()


def test_select_points_rejects_phrases_of_another_corpus(tmp_path, capsys):
    corpora = {"big": make_reviews(30, seed=5), "small": make_reviews(12, seed=6)}
    for name, corpus in corpora.items():
        save_tagged_corpus(corpus, tmp_path / f"{name}.tsv")
        assert main(["extract-phrases", "--corpus", str(tmp_path / f"{name}.tsv"),
                     "--out", str(tmp_path / f"{name}.phrases")]) == 0
        out = tmp_path / f"{name}.points"
        assert main(["select-points", "--phrases", str(tmp_path / f"{name}.phrases"),
                     "--corpus", str(tmp_path / f"{name}.tsv"),
                     "--cutoff", "2", "--out", str(out)]) == 0
        expected = select_point_words(extract_phrases(corpus), 2).words
        assert load_point_words(out).words == expected
    capsys.readouterr()

    for phrases, corpus in (("big", "small"), ("small", "big")):
        phrases = tmp_path / f"{phrases}.phrases"
        code = main(["select-points", "--phrases", str(phrases),
                     "--corpus", str(tmp_path / f"{corpus}.tsv"),
                     "--cutoff", "2", "--out", str(tmp_path / "mixed.points")])
        assert code == 1
        err = capsys.readouterr().err
        assert re.match(f"error: {re.escape(str(phrases))}:[0-9]+: ", err)
        assert "document 'd0000" in err and "position" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1e400"])
def test_score_rejects_non_finite_vector_component(world, tmp_path, capsys, value):
    vectors = tmp_path / "v.txt"
    vectors.write_text(f"3 2\ngood 1 0\nbad 0 {value}\nfine 1 1\n", encoding="utf-8")
    code = main(["score", "--axis", str(tmp_path / "axis"),
                 "--embeddings", str(vectors), "--out", str(tmp_path / "lex.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{vectors}:3:" in err
    assert not (tmp_path / "lex.tsv").exists()


def test_train_embeddings_rejects_token_with_whitespace(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("the\tDT\nnew york\tNNP\nfilm\tNN\n", encoding="utf-8")
    out = tmp_path / "v.txt"
    code = main(["train-embeddings", "--corpus", str(corpus), "--dim", "4",
                 "--epochs", "1", "--min-count", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{corpus}:2:" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_embeddings_rejects_non_finite_subsample(world, tmp_path, capsys, value):
    out = tmp_path / "v.txt"
    code = main(["train-embeddings", "--corpus", str(world["corpus"]), "--dim", "4",
                 "--epochs", "1", "--min-count", "3", "--subsample", value,
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "subsample_threshold" in err
    assert not out.exists()


AXIS = "mode\tunsupervised\nseed\tgood\npos\tgood\nneg\tbad\nvec_pos\t1.0 0.0\nvec_neg\t0.0 1.0\n"
VECTORS_2D = "3 2\ngood 1 0\nbad 0 1\nfine 1 1\n"


@pytest.mark.parametrize("command,text,line", [
    pytest.param("score", AXIS.replace("1.0 0.0", "nan 0.0"), 5, id="axis-nan"),
    pytest.param("score", AXIS.replace("1.0 0.0", "abc 0.0"), 5, id="axis-abc"),
    pytest.param("score", AXIS.replace("0.0 1.0", "0.0"), 6, id="axis-unequal-lengths"),
    pytest.param("score", AXIS + "seed\tbad\n", 7, id="axis-second-seed"),
    pytest.param("score", AXIS + "mode\tsemi-supervised\n", 7, id="axis-second-mode"),
    pytest.param("score", AXIS + "vec_pos\t1.0 0.0\n", 7, id="axis-second-vec_pos"),
    pytest.param("score", AXIS + "vec_neg\t0.0 1.0\n", 7, id="axis-second-vec_neg"),
    pytest.param("score", AXIS + "pos\tbad\n", 7, id="axis-word-on-both-sides"),
    pytest.param("score", AXIS.replace("neg\tbad", "pos\tbad\nneg\tbad"), 5,
                 id="axis-word-on-both-sides-pos-first"),
    pytest.param("score", AXIS.replace("0.0 1.0", "1.0 0.0"), 6, id="axis-identical-vectors"),
    pytest.param("score", AXIS.replace("1.0 0.0", "0.0 0.0"), 5, id="axis-zero-vec_pos"),
    pytest.param("score", AXIS.replace("0.0 1.0", "-0.0 0.0"), 6, id="axis-zero-vec_neg"),
    pytest.param("build-axis", "# cutoff=two\ngood\t2\nbad\t2\nfine\t1\n", 1,
                 id="points-bad-cutoff"),
    pytest.param("build-axis", "# cutoff=2\ngood\t2\nbad\t2\ngood\t1\n", 4,
                 id="points-second-word"),
    pytest.param("tag-variance", "good\tJJ\t1.0\nbad\tJJ\tnan\n", 2, id="tag-variance-nan"),
    pytest.param("classify", "# mode=unsupervised\ngood\t0.5\nbad\t-0.5\ngood\t0.25\n", 4,
                 id="lexicon-second-word"),
])
def test_malformed_stage_file_ends_in_its_file_and_line(tmp_path, capsys, command, text, line):
    bad = tmp_path / "input.tsv"
    bad.write_text(text, encoding="utf-8")
    vectors = tmp_path / "v.txt"
    vectors.write_text(VECTORS_2D, encoding="utf-8")
    reviews = tmp_path / "reviews.tsv"
    reviews.write_text("POS\tgood_JJ film_NN\nNEG\tbad_JJ film_NN\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    argv = {
        "score": ["--axis", bad, "--embeddings", vectors, "--out", out],
        "build-axis": ["--points", bad, "--embeddings", vectors, "--mode", "unsup",
                       "--out", out],
        "tag-variance": ["--annotated", bad, "--out", out],
        "classify": ["--lexicon", bad, "--reviews", reviews, "--report", out],
    }[command]
    assert main([command, *map(str, argv)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}:{line}:")
    assert not out.exists()


def test_point_words_with_spaces_give_the_same_axis(tmp_path):
    vectors = tmp_path / "v.txt"
    vectors.write_text(VECTORS_2D, encoding="utf-8")
    axes = []
    for name, good in (("plain", "good"), ("spaced", " good ")):
        points = tmp_path / f"{name}.tsv"
        points.write_text(f"{good}\t2\nbad\t2\nfine\t1\n", encoding="utf-8")
        axis_dir = tmp_path / name
        assert main(["build-axis", "--points", str(points), "--embeddings", str(vectors),
                     "--mode", "unsup", "--seed-word", "good", "--out", str(axis_dir)]) == 0
        axes.append((axis_dir / "axis.tsv").read_bytes())
    assert axes[0] == axes[1]


def test_orientation_lexicon_words_with_spaces_classify_the_same(tmp_path):
    reviews = tmp_path / "reviews.tsv"
    reviews.write_text("POS\tgood_JJ bad_JJ film_NN\nNEG\tbad_JJ film_NN\n", encoding="utf-8")
    results = []
    for name, good in (("plain", "good"), ("spaced", " good ")):
        lexicon = tmp_path / f"{name}.tsv"
        lexicon.write_text(f"{good}\t1.0\nbad\t-0.25\n", encoding="utf-8")
        report = tmp_path / f"{name}.txt"
        assert main(["classify", "--lexicon", str(lexicon), "--reviews", str(reviews),
                     "--report", str(report)]) == 0
        results.append({k: v for k, v in read_report(report).items()
                        if not k.startswith("config_")})
    assert results[0] == results[1]
    assert results[0]["n_correct"] == "2"


def test_score_names_both_files_on_dimension_mismatch(tmp_path, capsys):
    axis = tmp_path / "axis.tsv"
    axis.write_text(AXIS, encoding="utf-8")
    vectors = tmp_path / "v3.txt"
    vectors.write_text("2 3\ngood 1 0 0\nbad 0 1 0\n", encoding="utf-8")
    out = tmp_path / "lex.tsv"
    code = main(["score", "--axis", str(axis), "--embeddings", str(vectors), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(axis) in err and str(vectors) in err
    assert not out.exists()


# each subcommand's inputs, none of which exist, its output flag and whether
# that output is a directory
OUTPUTS = {
    "train-embeddings": (["--corpus", "nope.tsv"], "--out", False),
    "extract-phrases": (["--corpus", "nope.tsv"], "--out", False),
    "select-points": (["--phrases", "nope-p.tsv", "--corpus", "nope.tsv", "--cutoff", "2"],
                      "--out", False),
    "build-axis": (["--embeddings", "nope-v.txt", "--points", "nope-pw.tsv", "--mode", "unsup"],
                   "--out", True),
    "score": (["--axis", "nope-axis", "--embeddings", "nope-v.txt"], "--out", False),
    "classify": (["--lexicon", "nope-lex.tsv", "--reviews", "nope-r.tsv"], "--report", False),
    "sweep": (["--corpus", "nope.tsv", "--reviews", "nope-r.tsv", "--embeddings", "nope-v.txt",
               "--cutoffs", "2", "--mode", "unsup"], "--csv", False),
    "pmi-baseline": (["--corpus", "nope.tsv", "--reviews", "nope-r.tsv"], "--report", False),
    "tag-variance": (["--annotated", "nope-a.tsv"], "--out", False),
    "pipeline": (["--corpus", "nope.tsv", "--reviews", "nope-r.tsv", "--mode", "unsup"],
                 "--out", True),
}


def refuse_output(tmp_path, capsys, command, output):
    """Run ``command`` on missing inputs into ``output``; its one error line."""
    inputs, flag, _ = OUTPUTS[command]
    inputs = [str(tmp_path / a) if a.startswith("nope") else a for a in inputs]
    assert main([command, *inputs, flag, str(output)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {output}") and err.count("\n") == 1
    assert "nope" not in err
    return err


def test_every_subcommand_declares_its_output():
    parser = build_parser()
    for command, (inputs, flag, is_dir) in OUTPUTS.items():
        args = parser.parse_args([command, *inputs, flag, "x"])
        assert args.output == (flag, "dir" if is_dir else "file")
    assert sorted(OUTPUTS) == sorted(argv[0] for argv in readme_commands())


@pytest.mark.parametrize("command", OUTPUTS)
def test_report_in_missing_directory_rejected_before_reading_files(tmp_path, capsys, command):
    err = refuse_output(tmp_path, capsys, command, tmp_path / "nodir" / "out")
    assert err.endswith(": its directory does not exist\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", OUTPUTS)
def test_output_of_the_wrong_kind_rejected_before_reading_files(tmp_path, capsys, command):
    output = tmp_path / "out"
    if OUTPUTS[command][2]:
        kept, expected = output, "exists and is not a directory"
    else:
        output.mkdir()
        kept, expected = output / "kept.txt", "is a directory"
    kept.write_text("kept\n", encoding="utf-8")
    assert refuse_output(tmp_path, capsys, command, output).endswith(f" {expected}\n")
    assert sorted(tmp_path.rglob("*")) == sorted({output, kept})
    assert kept.read_text(encoding="utf-8") == "kept\n"


def test_pipeline_out_that_is_a_file_rejected_before_reading_files(tmp_path, capsys):
    nope = str(tmp_path / "nope.tsv")
    out = tmp_path / "out"
    out.write_text("kept\n", encoding="utf-8")
    code = main(["pipeline", "--corpus", nope, "--reviews", nope, "--mode", "unsup",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out} ") and "nope" not in err
    assert out.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("command", ["build-axis", "sweep", "pipeline"])
def test_semi_without_lexicon_rejected_before_reading_files(tmp_path, capsys, command):
    inputs, flag, _ = OUTPUTS[command]
    inputs = ["semi" if a == "unsup" else str(tmp_path / a) if a.startswith("nope") else a
              for a in inputs]
    assert main([command, *inputs, flag, str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: semi-supervised mode requires a polarity lexicon\n"
    assert list(tmp_path.iterdir()) == []


def test_pmi_seeds_are_lowercased_like_the_corpus(world, tmp_path):
    reports = []
    for seeds in ("excellent,poor", "Excellent,POOR"):
        reports.append(tmp_path / f"{seeds}.txt")
        assert main(["pmi-baseline", "--corpus", str(world["corpus"]),
                     "--reviews", str(world["reviews"]), "--seeds", seeds,
                     "--report", str(reports[-1])]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


@pytest.mark.parametrize("command,argv,error", [
    pytest.param("select-points", ["--phrases", "nope-phrases.tsv", "--cutoff", "0"],
                 "--cutoff must be >= 1", id="select-points"),
    pytest.param("train-embeddings", ["--dim", "0"], "dim must be", id="train-embeddings"),
    pytest.param("pipeline",
                 ["--reviews", "nope-reviews.tsv", "--mode", "unsup", "--cutoff", "0"],
                 "--cutoff must be >= 1", id="pipeline"),
    pytest.param("sweep", ["--reviews", "nope-reviews.tsv", "--embeddings", "nope-v.txt",
                           "--mode", "unsup", "--cutoffs", "0..2"],
                 "invalid cutoff range", id="sweep"),
    *(pytest.param("sweep", ["--reviews", "nope-reviews.tsv", "--embeddings", "nope-v.txt",
                             "--mode", "unsup", "--cutoffs", cutoffs],
                   f"invalid cutoff range {cutoffs!r} for --cutoffs: expected 'A..B' or 'a,b,c'",
                   id=f"sweep-{cutoffs}") for cutoffs in ("1..", "..3", "1..5,7", "two")),
])
def test_bad_cutoff_or_training_flag_rejected_before_any_file(tmp_path, capsys,
                                                              command, argv, error):
    # the input files do not exist: the flag must be checked first
    out = tmp_path / "out"
    argv = [str(tmp_path / a) if a.startswith("nope") else a for a in argv]
    out_flag = "--csv" if command == "sweep" else "--out"
    code = main([command, "--corpus", str(tmp_path / "nope.tsv"), *argv, out_flag, str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and "nope" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,error", [
    ("--lr", "2", "--lr (initial_learning_rate) must be in (0, 1)"),
    ("--min-count", "0", "--min-count (min_count) must be in [1, 2**62)"),
    ("--subsample", "-1", "--subsample (subsample_threshold) must be a finite number >= 0"),
], ids=["lr", "min-count", "subsample"])
def test_training_config_error_names_the_flag(tmp_path, capsys, flag, value, error):
    out = tmp_path / "v.txt"
    code = main(["train-embeddings", "--corpus", str(tmp_path / "nope.tsv"), flag, value,
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


# the package's parent on the path first, as in this process
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join([str(Path(sentaxis.__file__).parent.parent), *sys.path])}


@pytest.mark.parametrize("flag,value", [
    # the noise draws' size wrapped past 2**63 in C
    pytest.param("--negatives", str(2**61), id="negatives-2**61"),
    # the noise draws cannot be allocated, in the kernel's scratch or the numpy loop's
    pytest.param("--negatives", "1000000000", id="negatives-1e9"),
    # the vectors cannot be allocated
    pytest.param("--dim", "1099511627776", id="dim-2**40"),
])
def test_training_memory_out_of_reach_is_a_tool_error(tmp_path, flag, value):
    # in a child process, so that a crash fails this test and not the run
    corpus = tmp_path / "train.tsv"
    save_tagged_corpus(make_reviews(20, seed=3), corpus)
    out = tmp_path / "v.txt"
    code = "import sys; from sentaxis.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, "train-embeddings",
                           "--corpus", str(corpus), "--min-count", "1", "--epochs", "1",
                           flag, value, "--out", str(out)],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert flag in done.stderr
    assert not out.exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Every ``sentaxis ...`` command of the README's shell blocks, continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("sentaxis ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) == 10
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func.__name__ == "cmd_" + argv[0].replace("-", "_")


@pytest.mark.parametrize("argv", [
    ["train-embeddings", "--corpus", "c.tsv", "--out", "v.txt"],
    ["pipeline", "--corpus", "c.tsv", "--reviews", "r.tsv", "--mode", "unsup",
     "--out", "run"],
])
def test_training_flags_default_to_sgns_config(argv):
    assert _sgns_config_from(build_parser().parse_args(argv)) == SgnsConfig()


@pytest.mark.parametrize("command,required", [
    ("build-axis", ["--embeddings", "v.txt", "--points", "p.tsv", "--out", "axis"]),
    ("sweep", ["--corpus", "c.tsv", "--reviews", "r.tsv", "--embeddings", "v.txt",
               "--cutoffs", "2", "--csv", "s.csv"]),
    ("pipeline", ["--corpus", "c.tsv", "--reviews", "r.tsv", "--out", "run"]),
])
def test_axis_flags_are_the_same_on_every_command(command, required):
    parser = build_parser()
    args = parser.parse_args([command, *required, "--mode", "semi"])
    assert (args.mode, args.lexicon, args.seed_word) == ("semi", None, "excellent")
    with pytest.raises(SystemExit):
        parser.parse_args([command, *required, "--mode", "pmi"])
    with pytest.raises(SystemExit):
        parser.parse_args([command, *required])
