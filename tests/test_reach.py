"""Every function in ``src/sentaxis`` is reached by some subcommand.

Each subcommand runs once in-process through ``cli.main`` on tiny synthetic
inputs, under a ``sys.setprofile`` hook that records every code object
called from the package's files. A named function or method that no run
reaches must be listed in ``UNREACHED`` with the reason it stays; anything
else is code no subcommand needs, and should be deleted.
"""

import inspect
import sys
from pathlib import Path

import pytest

import sentaxis
from sentaxis import cli, compiled, records, sgns, vectors

from corpus_helpers import save_reviews, save_tagged_corpus
from synthgen import gold_lexicon, make_reviews

PACKAGE = Path(sentaxis.__file__).parent  # as imported, so file names match the frames'
TESTS = Path(__file__).resolve().parent

ERROR_PATH = "error path, covered by "
# The reasons a function may stay unreached; an error path names its test.
REASONS = (ERROR_PATH, "numpy SGNS reference", "read by perfbench")

UNREACHED = {
    "errors.ParseError.__init__":
        ERROR_PATH + "test_cli.py::test_malformed_stage_file_ends_in_its_file_and_line",
    "records.not_utf8": ERROR_PATH + "test_records.py::TestRead::test_undecodable_byte_names_its_line",
    "sgns._train_documents": "numpy SGNS reference",
    "sgns._numpy_step": "numpy SGNS reference",
    "sgns.negative_sampling_grads": "numpy SGNS reference",
    "sgns.negative_sampling_loss": "numpy SGNS reference, its gradient check",
    "sgns._sigmoid": "numpy SGNS reference",
    "evaluation.read_report": "read by perfbench: the workloads' report check",
    "pmi.PmiReviewResult.no_phrase": "read by perfbench: pmi.no_phrase_ratio",
}

# Functions that wrap a compiled kernel, with the loader that returns the
# kernel or None. A wrapper is reached whenever its kernel loads, and cannot
# be when no compiler can build it; only then may it stay unreached.
KERNEL_WRAPPERS = {"sgns._train_kernel": sgns._load_kernel,
                   "vectors._parse": vectors._load_parser,
                   "vectors._powers_of_five": vectors._load_parser}


def _functions():
    """module.qualname -> (file, first line) of every named function in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)]
        while stack:
            code, scope = stack.pop()
            # class bodies are code objects too, but have no local scope
            function = code.co_flags & inspect.CO_NEWLOCALS
            name = scope if code.co_name == "<module>" else f"{scope}.{code.co_name}"
            if function and not code.co_name.startswith("<"):
                found[name] = (code.co_filename, code.co_firstlineno)
            inner = f"{name}.<locals>" if function else name
            stack.extend((c, inner) for c in code.co_consts if hasattr(c, "co_code"))
    return found


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """(file, first line) of every package function the subcommands call, and
    the kernel wrappers whose kernel did not load."""
    root = tmp_path_factory.mktemp("reach")
    corpus, inline, reviews, gold, annotated = (
        root / name for name in ("train.tsv", "train.txt", "reviews.tsv", "gold.tsv",
                                 "annotated.tsv"))
    train = make_reviews(60, seed=41)
    save_tagged_corpus(train, corpus)
    save_tagged_corpus(train, inline, "inline")
    save_reviews(make_reviews(20, seed=42), reviews)
    records.write(gold, sorted(gold_lexicon().items()))
    annotated.write_text("good\tJJ\t1.0\nbad\tJJ\t-1.0\nfilm\tNN\t0.0\n", encoding="utf-8")
    training = ["--dim", "8", "--epochs", "1", "--min-count", "2", "--seed", "3"]
    vectors, phrases, points, axis, lexicon = (
        str(root / name) for name in ("v.txt", "p.tsv", "pw.tsv", "axis", "lex.tsv"))
    runs = [
        ["train-embeddings", "--corpus", str(corpus), *training, "--out", vectors],
        ["extract-phrases", "--corpus", str(inline), "--format", "inline", "--out", phrases],
        ["select-points", "--phrases", phrases, "--corpus", str(inline), "--format", "inline",
         "--cutoff", "2", "--out", points],
        ["build-axis", "--embeddings", vectors, "--points", points, "--mode", "semi",
         "--lexicon", str(gold), "--out", str(root / "semi")],
        ["build-axis", "--embeddings", vectors, "--points", points, "--mode", "unsup",
         "--out", axis],
        ["score", "--axis", axis, "--embeddings", vectors, "--out", lexicon],
        ["classify", "--lexicon", lexicon, "--reviews", str(reviews),
         "--report", str(root / "classify.txt")],
        ["sweep", "--corpus", str(corpus), "--reviews", str(reviews), "--embeddings", vectors,
         "--cutoffs", "1,99999", "--mode", "unsup", "--csv", str(root / "sweep.csv")],
        ["pmi-baseline", "--corpus", str(corpus), "--reviews", str(reviews),
         "--report", str(root / "pmi.txt")],
        ["tag-variance", "--annotated", str(annotated), "--out", str(root / "tags.tsv")],
        ["pipeline", "--corpus", str(corpus), "--reviews", str(reviews), "--mode", "unsup",
         *training, "--out", str(root / "unsup")],
        ["pipeline", "--corpus", str(corpus), "--reviews", str(reviews), "--mode", "semi",
         "--lexicon", str(gold), "--embeddings", vectors, "--out", str(root / "semi-run")],
    ]
    package = str(PACKAGE)
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # cached functions run their body only on a cache miss, and the SGNS
    # kernel, the vector parser and the line interner are built only where
    # no built copy is found: as in a new checkout
    for name, module in list(sys.modules.items()):
        if name.startswith("sentaxis."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiled, "CACHE", root / "kernel")
        sys.setprofile(profile)
        try:
            codes = [cli.main(argv) for argv in runs]
        finally:
            sys.setprofile(None)
            # the runs' own result: compiled.kernel keeps it until cleared here
            unloaded = {name for name, loader in KERNEL_WRAPPERS.items()
                        if loader() is None}
            compiled.kernel.cache_clear()
    assert codes == [0] * len(runs)
    return called, unloaded


def test_every_function_is_reached_or_allowed(reached):
    called, unloaded = reached
    unreached = {name for name, where in _functions().items() if where not in called}
    assert sorted(unreached - UNREACHED.keys() - unloaded) == []


def test_allowlist_names_existing_functions_with_a_reason():
    functions = _functions()
    assert sorted((UNREACHED.keys() | KERNEL_WRAPPERS.keys()) - functions.keys()) == []
    for name, reason in UNREACHED.items():
        assert reason.startswith(REASONS), name
        if reason.startswith(ERROR_PATH):
            test_file, *_, test_name = reason.removeprefix(ERROR_PATH).split("::")
            source = (TESTS / test_file).read_text(encoding="utf-8")
            assert f"def {test_name}(" in source, reason
