"""The text codec the artifact formats share: file reads and writes, the
versioned header line, and rows of floats.

Floats are written as their shortest round-trip `repr`, so every artifact
reads back bit for bit, and parsed only as finite values. A loader built on
these functions returns a valid object or raises FormatError.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def read_text(path) -> str:
    """The file's contents; bytes that are not UTF-8 are a FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text (byte {e.start})") from None


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def header_fields(lines: list[str], magic: str) -> dict[str, str]:
    """The `key=value` words of line 1, whose first word must be `magic`."""
    words = lines[0].split() if lines else []
    if not words or words[0] != magic:
        raise FormatError(f"line 1: the file is not {magic}")
    return dict(w.split("=", 1) for w in words[1:] if "=" in w)


_ROW_CHUNK = 8192  # floats converted to Python floats at a time


def float_row(values) -> str:
    """The values, flattened, as space-separated shortest round-trip reprs."""
    # chunk by chunk: one `.tolist()` converts fast, and a chunk bounds the
    # Python floats alive at once, where a whole checkpoint array would
    # raise the writer's peak RSS by ~3.5 MB
    flat = np.asarray(values, dtype=float).reshape(-1)
    return " ".join(" ".join(map(repr, flat[i:i + _ROW_CHUNK].tolist()))
                    for i in range(0, len(flat), _ROW_CHUNK))


def parse_floats(parts: list[str], lineno: int, count: int | None = None) -> np.ndarray:
    """Line `lineno`'s float tokens as an array: exactly `count` of them when
    given, each parsable and finite."""
    return _floats((parts,), lineno, count)


_PARSE_CHARS = 1 << 16  # characters of a row split and converted at a time


def parse_float_row(line: str, lineno: int, count: int) -> np.ndarray:
    """`parse_floats(line.split(), lineno, count)`, a bounded slice of the
    line at a time, so no token list of a long row is ever built."""
    return _floats(_token_chunks(line), lineno, count)


def _token_chunks(line: str):
    """The line's tokens in lists of about `_PARSE_CHARS` characters each,
    cut at spaces so that no token is split; always at least one list."""
    start = 0
    while (stop := line.find(" ", start + _PARSE_CHARS)) >= 0:
        yield line[start:stop].split()
        start = stop
    yield line[start:].split()


def _floats(chunks, lineno: int, count: int | None) -> np.ndarray:
    """The one float parser. The checks run in one order over the whole
    line, whatever its chunks: the token count, then any unparsable token,
    then any non-finite value."""
    pieces, got = [], 0
    for parts in chunks:
        got += len(parts)
        if pieces is not None:
            try:
                pieces.append(np.array(parts, dtype=float))
            except ValueError:
                pieces = None  # keep counting: a wrong count is reported first
    if count is not None and got != count:
        raise FormatError(f"line {lineno}: expected {count} floats, got {got}")
    if pieces is None:
        raise FormatError(f"line {lineno}: unparsable float")
    values = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    if not np.isfinite(values).all():
        raise FormatError(f"line {lineno}: non-finite value")
    return values
