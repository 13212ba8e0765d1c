"""The benchmark's own tests: python3 -m pytest perfbench/test_perfbench.py"""

import subprocess
import sys
from pathlib import Path

import run
import synth
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in ("a", "b"):
        reviews, labels = synth.make_reviews(20, seed=7, stream=synth.STREAM_TRAIN)
        synth.write_reviews(reviews, labels, tmp_path / f"{name}.tsv")
        synth.write_vectors(synth.token_counts(reviews), 80, 4, 7, tmp_path / f"{name}.vec")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    assert (tmp_path / "a.vec").read_bytes() == (tmp_path / "b.vec").read_bytes()
    other, _ = synth.make_reviews(20, seed=8, stream=synth.STREAM_TRAIN)
    assert other != reviews


def test_self_times_subtract_children_and_sum_to_root():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["evaluation.train_sgns", 1.0, 7.0, 0],
        ["pmi.classify_review_pmi", 7.0, 9.0, 0],
        ["pmi.extract_phrases", 7.5, 8.0, 2],
        ["pmi.so_phrase", 8.0, 8.25, 2],
    ]
    own = tracing.self_times(spans)
    assert own == {"cli": 2.0, "sgns.train": 6.0, "pmi.classify": 1.25,
                   "patterns.extract": 0.5, "pmi.so_phrase": 0.25}
    assert sum(own.values()) == 10.0
    assert tracing.inclusive_times(spans)["pmi.classify"] == 2.0


def test_coverage_check_fails_on_bypassed_sites_and_untraced_work():
    sites = sorted(workloads.EXPECTED_SITES["pmi-20k"] - {"cli.main"})
    step = 9.9 / len(sites)
    spans = [["cli.main", 0.0, 10.0, -1]] + [[s, i * step, (i + 1) * step, 0]
                                             for i, s in enumerate(sites)]
    assert run.coverage_errors("pmi-20k", spans, 10.0) == []
    moved = spans + [["evaluation.train_sgns", 9.9, 9.95, 0]]
    assert run.coverage_errors("pmi-20k", moved, 10.0) == [
        "site evaluation.train_sgns fired but pmi-20k bypasses it"]
    untraced = spans[:1] + [[s, 1.0, 1.001, 0] for s in sites]
    [error] = run.coverage_errors("pmi-20k", untraced, 10.0)
    assert error.startswith("cli.self_s is ")


def test_smoke_mode_runs_every_workload_and_matches_benchmark_json():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: PASS"
