"""Tab-separated record files: the one layout every stage file shares.

One record per line, fields separated by tabs, UTF-8. Blank lines are
skipped. A line that starts with ``#`` and holds no tab is a comment, and a
comment of the form ``# key=value`` is a header; so a record's first field may
start with ``#``. A record has exactly its layout's number of fields, none
blank. Every error is a :class:`ParseError` that names ``path:line``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ParseError


def read(path, layout: Sequence[str]) -> tuple[dict, list]:
    """``path``'s headers as key -> (line, value) and its records as
    (line, fields) in file order; ``layout`` names the fields."""
    headers: dict[str, tuple[int, str]] = {}
    rows: list[tuple[int, list[str]]] = []
    for line, text in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not text.strip():
            continue
        if text.startswith("#") and "\t" not in text:
            key, sep, value = text[1:].strip().partition("=")
            if sep and key.isidentifier():
                if key in headers:
                    raise ParseError(f"duplicate header {key!r}", path=path, line=line)
                headers[key] = (line, value)
            continue
        fields = text.split("\t")
        if len(fields) != len(layout) or not all(f.strip() for f in fields):
            raise ParseError("expected '" + "<TAB>".join(layout) + "'", path=path, line=line)
        rows.append((line, fields))
    return headers, rows


def finite_float(path, line: int, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric {what} {text!r}", path=path, line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {text!r}", path=path, line=line)
    return value


def integer(path, line: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"non-integer {what} {text!r}", path=path, line=line) from None


def write(path, rows: Iterable[Sequence], headers: dict | None = None) -> None:
    """``# key=value`` headers, then one tab-joined line per row. A float is
    written as a Python float's ``repr``, which reads back bit-identical
    (numpy 2's ``repr`` of a float64 is ``np.float64(...)``)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(f"# {key}={_text(value)}\n" for key, value in (headers or {}).items())
        fh.writelines("\t".join(map(_text, row)) + "\n" for row in rows)


def _text(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)
