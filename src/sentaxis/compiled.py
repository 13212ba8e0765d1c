"""Build a C source of this package with ``cc`` once, then bind one of its
functions with ``ctypes``.

All three kernels, ``sgns_kernel.c``, ``vectors_kernel.c`` and
``corpus_kernel.c``, are bound by :func:`kernel`; their modules import this
one on first use only, so importing the CLI starts no build. The first call
in a checkout compiles the source into ``<stem>-<key>.so`` in ``CACHE``
(``__pycache__/`` beside the source); later processes load that file, and
import no ``subprocess``. The key is the sha256 of the source, the flags,
numpy's version and the bytes of every library linked in, so a change to any
of them builds anew. Without a compiler, or if the build fails, the caller
gets None and runs its Python path.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

PACKAGE = Path(__file__).parent
CACHE = PACKAGE / "__pycache__"
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def load_library(source: Path, linked: Sequence[Path] = ()):
    """The ``ctypes.CDLL`` of ``source`` built with the libraries ``linked``,
    or None if it cannot be built or loaded."""
    try:
        key = hashlib.sha256(source.read_bytes() + " ".join(FLAGS).encode()
                             + np.__version__.encode()
                             + b"".join(path.read_bytes() for path in linked))
        library = CACHE / f"{source.stem}-{key.hexdigest()[:16]}.so"
        if not library.exists():
            import subprocess  # here, not at the top: loading a cached library runs none

            CACHE.mkdir(exist_ok=True)
            # build under a private name, then move into place in one step, so
            # a concurrent process never loads a half-written library
            with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
                built = Path(tmp) / library.name
                try:
                    subprocess.run(("cc", *FLAGS, "-I", np.get_include(), "-o", str(built),
                                    str(source), *map(str, linked), "-lm"),
                                   check=True, capture_output=True, timeout=120)
                except subprocess.SubprocessError:
                    return None
                os.replace(built, library)
        return ctypes.CDLL(str(library))
    except OSError:
        return None


@functools.cache
def kernel(stem: str, symbol: str, argtypes: tuple, restype,
           linked: tuple[Path, ...] = ()):
    """The function ``symbol`` of the package source ``<stem>.c``, built with
    the libraries ``linked`` and typed by ``argtypes`` and ``restype``; None
    if it cannot be built or loaded, or the library lacks ``symbol``."""
    function = getattr(load_library(PACKAGE / f"{stem}.c", linked), symbol, None)
    if function is not None:
        function.argtypes, function.restype = argtypes, restype
    return function
