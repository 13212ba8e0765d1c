"""The one build path every C kernel shares, and what a package must ship for it."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sentaxis
from sentaxis import sgns, vectors

PACKAGE = Path(sentaxis.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def test_every_c_source_ships_with_the_package():
    # a source missing from an installed package quietly leaves the slow path
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        shipped = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["sentaxis"]
    sources = sorted(path.name for path in PACKAGE.glob("*.c"))
    assert sources == ["corpus_kernel.c", "sgns_kernel.c", "vectors_kernel.c"]
    assert set(sources) <= set(shipped)


def test_importing_the_cli_builds_nothing():
    # a kernel is built or loaded on its first use only; numpy itself imports ctypes
    code = ("import sys, sentaxis.cli; "
            "print('subprocess' in sys.modules, 'sentaxis.compiled' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), *sys.path])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == ["False", "False"]


@needs_cc
def test_both_kernels_build_into_one_cache_under_their_keys(monkeypatch, tmp_path):
    # the SGNS key is the one it had before the build path was shared
    library = sgns._numpy_random_library()
    monkeypatch.setattr(sgns, "_KERNEL_CACHE", tmp_path)
    monkeypatch.setattr(vectors, "_PARSER_CACHE", tmp_path)
    sgns._load_kernel.cache_clear()
    vectors._load_parser.cache_clear()
    try:
        assert sgns._load_kernel() is not None
        assert vectors._load_parser() is not None
    finally:
        sgns._load_kernel.cache_clear()
        vectors._load_parser.cache_clear()
    flags = b"-O3 -ffp-contract=off -shared -fPIC"
    sgns_key = hashlib.sha256(sgns._KERNEL_SOURCE.read_bytes() + flags
                              + np.__version__.encode() + library.read_bytes())
    parser_key = hashlib.sha256(vectors._PARSER_SOURCE.read_bytes() + flags
                                + np.__version__.encode())
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"sgns_kernel-{sgns_key.hexdigest()[:16]}.so",
        f"vectors_kernel-{parser_key.hexdigest()[:16]}.so"]


def test_only_the_sgns_kernel_links_numpy_random(tmp_path):
    output = tmp_path / "k.so"
    assert str(sgns._numpy_random_library()) in sgns._kernel_build_argv(output)
    assert not any(arg.endswith(".a") for arg in vectors._parser_build_argv(output))
