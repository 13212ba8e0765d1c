"""Build a C source of this package with ``cc`` once, then load it with ``ctypes``.

All three kernels, ``sgns_kernel.c``, ``vectors_kernel.c`` and
``corpus_kernel.c``, go through :func:`load_library`; their modules import
this one on first use only, so importing the CLI starts no build. The first call in a checkout compiles the
source into ``<stem>-<key>.so`` in the cache directory (``__pycache__/``
beside the source); later processes load that file. The key is the sha256 of
the source, the flags, numpy's version and the bytes of every library linked
in, so a change to any of them builds anew. Without a compiler, or if the
build fails, the caller gets None and runs its numpy path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def build_argv(source: Path, output: Path, linked: Sequence[Path] = ()) -> tuple[str, ...]:
    """The compiler command that builds ``source`` and ``linked`` into ``output``."""
    return ("cc", *FLAGS, "-I", np.get_include(), "-o", str(output), str(source),
            *map(str, linked), "-lm")


def load_library(source: Path, cache: Path, argv: Callable[[Path], Sequence[str]],
                 linked: Sequence[Path] = ()):
    """The ``ctypes.CDLL`` of ``source``, built by the command ``argv(output)``
    with the libraries ``linked``, or None if it cannot be built or loaded."""
    try:
        key = hashlib.sha256(source.read_bytes() + " ".join(FLAGS).encode()
                             + np.__version__.encode()
                             + b"".join(path.read_bytes() for path in linked))
        library = cache / f"{source.stem}-{key.hexdigest()[:16]}.so"
        if not library.exists():
            cache.mkdir(exist_ok=True)
            # build under a private name, then move into place in one step, so
            # a concurrent process never loads a half-written library
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                built = Path(tmp) / library.name
                subprocess.run(argv(built), check=True, capture_output=True, timeout=120)
                os.replace(built, library)
        return ctypes.CDLL(str(library))
    except (OSError, subprocess.SubprocessError):
        return None
