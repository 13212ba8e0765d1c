"""The one build-and-bind path every C kernel shares: each kernel's build and
fallback cases, and what a package must ship for it."""

import ast
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType
from typing import Callable, NamedTuple

import numpy as np
import pytest

import sentaxis
from sentaxis import compiled, sgns, vectors
from sentaxis import corpus as corpus_mod

from synthgen import make_reviews

PACKAGE = Path(sentaxis.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
# every kernel source of the package: a new one gets every build case below
STEMS = [path.stem for path in sorted(PACKAGE.glob("*.c"))]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), *sys.path])}

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def load_corpus(tmp_path):
    """A small format-A corpus as loaded: its columns with their dtypes."""
    path = tmp_path / "c.tsv"
    path.write_text("Good\tJJ\nfilm\tNN\n\nbad\tJJ\ngood\tJJ\n", encoding="utf-8")
    corpus = corpus_mod.load_tagged_corpus(path)
    return (corpus.words, corpus.tags, corpus.ids,
            *((column.dtype, column.tolist())
              for column in (corpus.word_ids, corpus.tag_ids, corpus.offsets)))


def train(tmp_path):
    """SGNS on a small corpus: the loop that ran and the vectors' fingerprint."""
    table = sgns.train_sgns(make_reviews(30, seed=8),
                            sgns.SgnsConfig(dim=8, epochs=1, min_count=2, rng_seed=3))
    return table.metadata["sgns_kernel"], table.fingerprint()


def load_vectors(tmp_path):
    """A small vector file as loaded: the parser that read it, words and values."""
    path = tmp_path / "v.txt"
    path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
    table = vectors.load_embeddings(path)
    return table.metadata["vector_parser"], table.words, table.matrix.tobytes()


class Kernel(NamedTuple):
    module: ModuleType
    loader: str  # the module's function that binds the kernel, or gives None
    run: Callable[[Path], object]  # the kernel's stage on a small input: what it gives


KERNELS = {"corpus_kernel": Kernel(corpus_mod, "_load_interner", load_corpus),
           "sgns_kernel": Kernel(sgns, "_load_kernel", train),
           "vectors_kernel": Kernel(vectors, "_load_parser", load_vectors)}


def bound(stem):
    """The function of ``<stem>.c`` its module binds, or None."""
    kernel = KERNELS[stem]
    return getattr(kernel.module, kernel.loader)()


def fallback(stem, tmp_path):
    """What the stage of ``<stem>.c`` gives with the kernel forced off."""
    kernel = KERNELS[stem]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel.module, kernel.loader, lambda: None)
        return kernel.run(tmp_path)


def build_command(stem, tmp_path):
    """The compiler command binding ``<stem>.c`` runs in an empty cache,
    recorded and not run."""
    commands = []

    def record(argv, **kwargs):
        commands.append(list(argv))
        raise OSError("recorded, not run")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subprocess, "run", record)
        patch.setattr(compiled, "CACHE", tmp_path / "recorded")
        compiled.kernel.cache_clear()
        try:
            assert bound(stem) is None
        finally:
            compiled.kernel.cache_clear()
    (command,) = commands
    return command


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """An empty kernel cache and no kernel bound yet, as in a new checkout."""
    monkeypatch.setattr(compiled, "CACHE", tmp_path / "cache")
    compiled.kernel.cache_clear()
    yield tmp_path / "cache"
    compiled.kernel.cache_clear()


def test_every_c_source_ships_with_the_package():
    # a source missing from an installed package quietly leaves the slow path
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        shipped = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["sentaxis"]
    sources = [f"{stem}.c" for stem in STEMS]
    assert sources == ["corpus_kernel.c", "sgns_kernel.c", "vectors_kernel.c"]
    assert set(sources) <= set(shipped)


def test_importing_the_cli_builds_nothing():
    # a kernel is built or loaded on its first use only; numpy itself imports ctypes
    code = ("import sys, sentaxis.cli; "
            "print('subprocess' in sys.modules, 'sentaxis.compiled' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, check=True)
    assert done.stdout.split() == ["False", "False"]


def builds_or_opens(node) -> bool:
    """Whether ``node`` imports ``subprocess`` or names a ``ctypes`` library loader."""
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "subprocess" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "subprocess" or any(alias.name in ("CDLL", "cdll")
                                                  for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr in ("CDLL", "cdll", "LoadLibrary")


def test_only_compiled_builds_or_opens_a_library():
    found = {path.name for path in PACKAGE.glob("*.py")
             if any(map(builds_or_opens, ast.walk(ast.parse(path.read_bytes()))))}
    assert found == {"compiled.py"}


@needs_cc
def test_every_kernel_builds_into_one_cache_under_its_key(cache):
    # the key of the source, the flags, numpy's version and every linked library
    assert all(bound(stem) is not None for stem in STEMS)
    flags = b"-O3 -ffp-contract=off -shared -fPIC"

    def name(stem, *linked):
        key = hashlib.sha256((PACKAGE / f"{stem}.c").read_bytes() + flags
                             + np.__version__.encode()
                             + b"".join(path.read_bytes() for path in linked))
        return f"{stem}-{key.hexdigest()[:16]}.so"

    assert sorted(path.name for path in cache.iterdir()) == [
        name("corpus_kernel"), name("sgns_kernel", sgns._numpy_random_library()),
        name("vectors_kernel")]


def test_only_the_sgns_kernel_links_numpy_random(tmp_path):
    linked = {stem: [arg for arg in build_command(stem, tmp_path) if arg.endswith(".a")]
              for stem in STEMS}
    assert linked == {"corpus_kernel": [], "sgns_kernel": [str(sgns._numpy_random_library())],
                      "vectors_kernel": []}


@needs_cc
@pytest.mark.parametrize("stem", STEMS)
def test_source_compiles_without_warnings(stem, tmp_path):
    # the command the loader runs, linking included, with warnings as errors
    cc, *args = build_command(stem, tmp_path)
    args[args.index("-o") + 1] = str(tmp_path / "warned.so")
    built = subprocess.run([cc, "-Wall", "-Wextra", "-Werror", *args],
                           capture_output=True, text=True)
    assert built.returncode == 0, built.stderr


@pytest.mark.parametrize("stem", STEMS)
def test_hidden_compiler_falls_back(stem, monkeypatch, tmp_path, cache):
    expected = fallback(stem, tmp_path)
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    assert KERNELS[stem].run(tmp_path) == expected
    assert bound(stem) is None
    assert list(cache.iterdir()) == []


@needs_cc
@pytest.mark.parametrize("stem", STEMS)
def test_failed_build_falls_back_with_an_empty_cache(stem, monkeypatch, tmp_path, cache):
    expected = fallback(stem, tmp_path)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / f"{stem}.c").write_text("int broken(void) { return }\n")
    monkeypatch.setattr(compiled, "PACKAGE", tmp_path / "src")
    assert KERNELS[stem].run(tmp_path) == expected
    assert bound(stem) is None
    assert list(cache.iterdir()) == []


@needs_cc
@pytest.mark.parametrize("stem", STEMS)
def test_a_second_process_loads_the_cached_library(stem, cache):
    assert bound(stem) is not None
    built = sorted(cache.iterdir())
    assert [path.suffix for path in built] == [".so"]
    # the later process runs no compiler: it does not even import subprocess,
    # which would cost it a few milliseconds
    kernel = KERNELS[stem]
    code = ("import sys; from pathlib import Path; "
            f"from sentaxis import compiled, {kernel.module.__name__.rpartition('.')[2]}"
            " as module; compiled.CACHE = Path(sys.argv[1]); "
            f"print(module.{kernel.loader}() is not None, 'subprocess' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(cache)], capture_output=True,
                          text=True, env=ENV)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]
    assert sorted(cache.iterdir()) == built


@needs_cc
def test_missing_random_library_falls_back_to_numpy(monkeypatch, tmp_path, cache):
    expected = fallback("sgns_kernel", tmp_path)
    monkeypatch.setattr(sgns, "_numpy_random_library", lambda: tmp_path / "libnpyrandom.a")
    assert train(tmp_path) == expected
    assert expected[0] == "numpy"
    assert not cache.exists()


@needs_cc
def test_a_missing_symbol_gives_none():
    assert compiled.kernel("vectors_kernel", "vectors_parse", (), None) is not None
    assert compiled.kernel("vectors_kernel", "no_such_function", (), None) is None
