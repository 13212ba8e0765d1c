"""Tab-separated record files: the one layout every stage file shares.

One record per line, fields separated by tabs, UTF-8. Blank lines are
skipped. A line that starts with ``#`` and holds no tab is a comment, and a
comment of the form ``# key=value`` is a header, its key and value stripped of
the whitespace around them; so a record's first field may start with ``#``. A
record has exactly its layout's number of fields, none blank, and each field
is stripped of the whitespace around it. Every error is a :class:`ParseError`
that names ``path:line``, bytes that are not UTF-8 included.
"""

from __future__ import annotations

import math
import re
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ParseError


def read(path, layout: Sequence[str]) -> tuple[dict, list]:
    """``path``'s headers as key -> (line, value) and its records as
    (line, stripped fields) in file order; ``layout`` names the fields."""
    headers: dict[str, tuple[int, str]] = {}
    rows: list[tuple[int, list[str]]] = []
    for line, text in enumerate(read_text(path).splitlines(), start=1):
        if not text.strip():
            continue
        if text.startswith("#") and "\t" not in text:
            key, sep, value = map(str.strip, text[1:].partition("="))
            if sep and key.isidentifier():
                if key in headers:
                    raise ParseError(f"duplicate header {key!r}", path=path, line=line)
                headers[key] = (line, value)
            continue
        fields = [field.strip() for field in text.split("\t")]
        if len(fields) != len(layout) or not all(fields):
            raise ParseError("expected '" + "<TAB>".join(layout) + "'", path=path, line=line)
        rows.append((line, fields))
    return headers, rows


def read_text(path) -> str:
    """All of ``path`` as UTF-8 text (see :func:`decode`)."""
    return decode(path, Path(path).read_bytes())


def decode(path, data: bytes) -> str:
    """``data``, read from ``path``, as UTF-8 text; bytes that are not UTF-8
    raise a :class:`ParseError` naming their line as ``str.splitlines``
    counts it."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise not_utf8(path, data.decode("utf-8", "surrogateescape").splitlines()) from None


def not_utf8(path, lines: Iterable[str], first: int = 1) -> ParseError:
    """The error naming the first of ``lines``, numbered from ``first``, that
    holds a byte that is not UTF-8; ``lines`` are decoded with
    ``errors="surrogateescape"``, which turns each such byte into a lone
    surrogate."""
    for line, text in enumerate(lines, start=first):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(text[exc.start]) - 0xDC00
            return ParseError(f"byte {byte:#04x} is not UTF-8", path=path, line=line)
    # a stream that cannot be read twice, or a file changed since
    return ParseError("not UTF-8", path=path)


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
    (numpy 2's ``repr`` of a float64 is ``np.float64(...)``). A field holding
    a tab or a line break raises ``ValueError`` and leaves no file behind."""
    path = Path(path)
    rows = chain(([f"# {key}={_text(value)}"] for key, value in (headers or {}).items()), rows)
    try:
        with path.open("w", encoding="utf-8") as fh:
            while block := list(islice(rows, _BLOCK_ROWS)):
                fh.write(_lines(path, block))
    except ValueError:
        path.unlink(missing_ok=True)  # a partial file would not read back
        raise


# rows joined and checked at a time
_BLOCK_ROWS = 1024

# every character but "\n" that str.splitlines ends a line at
_OTHER_BREAK = re.compile("[\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _lines(path, rows: list[Sequence]) -> str:
    """The rows' lines, built in one pass: a str field as it is, any other
    through :func:`_text`. Their separators are exactly ``len(fields) - 1``
    tabs a row and one ``"\\n"`` a line, so the block is counted once; only a
    miscount checks row by row, to name the row at fault."""
    lines = ["\t".join([f if f.__class__ is str else _text(f) for f in fields])
             for fields in rows]
    text = "\n".join(lines) + "\n"
    if text.count("\t") != sum(map(len, rows)) - len(rows) or \
            text.count("\n") != len(rows) or _OTHER_BREAK.search(text):
        for fields, line in zip(rows, lines):
            if line.count("\t") != len(fields) - 1 or "\n" in line or _OTHER_BREAK.search(line):
                raise ValueError(f"{path}: a field of {line!r} holds a tab or a line break")
    return text


def _text(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)
