r"""Matrix file I/O: MatrixMarket (array and coordinate, real general)
and headerless CSV.

Array and CSV bodies are read in up to three tiers:

1. A body in a strict grammar (one token per line, or one row of
   comma-separated tokens per line, every token matching
   ``-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?`` and every line ending in
   ``\n``) goes to scipy's C++ reader, which rounds correctly, so it
   gives the bits of Python's ``float``; the sign of a zero is taken
   from its token. What ``save_matrix`` writes of a finite matrix is in
   this grammar.
2. Any other body, or one with a non-finite value, is converted whole:
   one split into tokens, one pass of Python's ``float`` into a NumPy
   array, one vectorized finiteness check.
3. Only when that fails (a bad token, a non-finite value, a wrong width
   or count) is the body rescanned line by line, which reports the first
   error in file order with its line number.

Coordinate files are read line by line. The accepted token set is
Python's ``float``/``int``, not a library reader's: the C++ reader sees
only bodies whose every token ``float`` reads to the same value.
"""

import io
import math
import re
from pathlib import Path

import numpy as np

from .errors import ArgumentError, DataFormatError

_MM_MAGIC = "%%MatrixMarket"
_HEAD_CHARS = 4096  # prefix first split in search of the size line


def _real(tok, path, lineno):
    try:
        v = float(tok)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: not a real number: {tok!r}") from None
    if not math.isfinite(v):
        raise DataFormatError(f"{path}:{lineno}: non-finite value: {tok!r}")
    return v


def _int(tok, path, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: bad {what}: {tok!r}") from None


def _reals(tokens):
    """The tokens as a float array, or None unless every one is a finite real."""
    try:
        v = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        return None
    return v if np.isfinite(v).all() else None


# A real in the strict grammar. Outside it the C++ reader drops the rest of
# a line without a word ("1_0" reads 1.0, "1.2.3" 1.2, "0x10" 0.0).
_TOKEN = rb"-?+(?:\d++\.?+\d*+|\.\d++)(?:[eE][-+]?+\d++)?+"
_ONE_PER_LINE = re.compile(rb"(?:%s\n)*+" % _TOKEN)


def _csv_rows(width):
    """The strict grammar of CSV rows of `width` fields."""
    return re.compile(rb"(?:%s(?:,%s){%d}\n)*+" % (_TOKEN, _TOKEN, width - 1))


def _strict_reals(body, grammar, count):
    """The `count` reals of a body in the strict grammar, in file order, read
    by scipy's C++ reader; None unless the whole body matches `grammar` and
    every value is finite. Inside the grammar that reader and ``float`` give
    the same bits, except that it reads -0.0 and -1e-400 as +0.0."""
    head = f"{_MM_MAGIC} matrix array real general\n{count} 1\n"
    try:
        src = (head + body).encode("ascii")
    except UnicodeEncodeError:
        return None
    if not grammar.fullmatch(src, len(head)):
        return None
    src = src.replace(b",", b"\n")  # a CSV row's fields, one to a line
    import scipy.io  # ~35 ms to import; only this path needs it

    try:
        v = scipy.io.mmread(io.BytesIO(src)).ravel()
    except ValueError:
        return None
    if not np.isfinite(v).all():
        return None
    zeros = np.flatnonzero(v == 0)
    if zeros.size:
        # value i starts after the (i + 2)-th line break; a zero is negative
        # exactly when its token starts with "-"
        buf = np.frombuffer(src, np.uint8)
        starts = np.flatnonzero(buf == ord("\n"))[1:-1] + 1
        v[zeros[buf[starts[zeros]] == ord("-")]] = -0.0
    return v


def _is_data(ln):
    """A line that is neither blank nor a % comment."""
    return ln.strip() and not ln.lstrip().startswith("%")


def _size_index(lines):
    """Index of the size line, the first data line after the header, or None."""
    return next((i for i in range(1, len(lines)) if _is_data(lines[i])), None)


def _head(text, n=_HEAD_CHARS):
    """The lines from the header through the size line; all lines when there
    is no size line. Splits a prefix of n characters, doubled until the size
    line is among its whole lines, instead of every line of a large body."""
    while n < len(text):
        lines = text[:n].splitlines()[:-1]  # the last line may be cut short
        k = _size_index(lines)
        if k is not None:
            return lines[:k + 1]
        n *= 2
    lines = text.splitlines()
    k = _size_index(lines)
    return lines if k is None else lines[:k + 1]


def _data_lines(text, k):
    """(line number, line) of every data line after line index k."""
    return [(i + 1, ln) for i, ln in enumerate(text.splitlines())
            if i > k and _is_data(ln)]


def _body_start(text, head):
    """Offset in text of the line after the head, splitting lines as _head
    does. Only a prefix is split: it holds every head line and its break."""
    cut = sum(map(len, head)) + 2 * len(head)
    return sum(map(len, text[:cut].splitlines(keepends=True)[:len(head)]))


def _body_tokens(text, head):
    """Tokens of the data lines after the head, whose last line is the size line."""
    if text.count("%") == sum(ln.count("%") for ln in head):
        # no comment line below the size line: one split, minus the head's
        # tokens (every line break splitlines knows is whitespace to split)
        return text.split()[sum(len(ln.split()) for ln in head):]
    # a line's first token starts with % exactly when the stripped line does
    return [t for p in map(str.split, text.splitlines()[len(head):])
            if p and p[0][0] != "%" for t in p]


def _parse_matrixmarket(text, path):
    head = _head(text)
    if not head or not head[0].startswith(_MM_MAGIC):
        raise DataFormatError(f"{path}:1: missing {_MM_MAGIC} header")
    toks = head[0].split()
    if len(toks) != 5 or toks[1].lower() != "matrix":
        raise DataFormatError(f"{path}:1: malformed header: {head[0]!r}")
    layout, field, symmetry = (t.lower() for t in toks[2:])
    if layout not in ("array", "coordinate"):
        raise DataFormatError(f"{path}:1: unsupported layout {layout!r}")
    if field != "real":
        raise DataFormatError(f"{path}:1: only 'real' entries supported, got {field!r}")
    if symmetry != "general":
        raise DataFormatError(
            f"{path}:1: only 'general' symmetry supported, got {symmetry!r}")

    k = len(head) - 1
    if k == 0 or not _is_data(head[k]):
        raise DataFormatError(f"{path}: missing size line")
    size_no, size_ln = k + 1, head[k]
    size_toks = size_ln.split()

    if layout == "array":
        if len(size_toks) != 2:
            raise DataFormatError(
                f"{path}:{size_no}: array size line needs 'rows cols', got {size_ln!r}")
        m = _int(size_toks[0], path, size_no, "row count")
        n = _int(size_toks[1], path, size_no, "column count")
        if m < 1 or n < 1:
            raise DataFormatError(f"{path}:{size_no}: dimensions must be positive")
        start = _body_start(text, head)
        v = None
        if text.count("\n", start) == m * n:
            v = _strict_reals(text[start:], _ONE_PER_LINE, m * n)
        if v is None:
            v = _reals(_body_tokens(text, head))
        if v is None or v.size != m * n:
            return _array_by_line(text, path, k, m, n)
        # values run down each column in turn
        return v.reshape((n, m)).T.copy()

    if len(size_toks) != 3:
        raise DataFormatError(
            f"{path}:{size_no}: coordinate size line needs 'rows cols nnz', "
            f"got {size_ln!r}")
    m = _int(size_toks[0], path, size_no, "row count")
    n = _int(size_toks[1], path, size_no, "column count")
    nnz = _int(size_toks[2], path, size_no, "entry count")
    if m < 1 or n < 1 or nnz < 0:
        raise DataFormatError(f"{path}:{size_no}: bad dimensions/entry count")
    entries = _data_lines(text, k)
    if len(entries) != nnz:
        raise DataFormatError(
            f"{path}: coordinate body has {len(entries)} entries, expected {nnz}")
    A = np.zeros((m, n))
    for no, ln in entries:
        parts = ln.split()
        if len(parts) != 3:
            raise DataFormatError(
                f"{path}:{no}: coordinate entry needs 'i j value', got {ln!r}")
        i = _int(parts[0], path, no, "row index")
        j = _int(parts[1], path, no, "column index")
        if not (1 <= i <= m and 1 <= j <= n):
            raise DataFormatError(
                f"{path}:{no}: index ({i},{j}) outside {m}x{n}")
        A[i - 1, j - 1] += _real(parts[2], path, no)
    return A


def _array_by_line(text, path, k, m, n):
    vals = []
    for no, ln in _data_lines(text, k):
        vals.extend(_real(t, path, no) for t in ln.split())
    if len(vals) != m * n:
        raise DataFormatError(
            f"{path}: array body has {len(vals)} entries, expected {m * n}")
    return np.array(vals).reshape((n, m)).T.copy()


def _parse_csv(text, path):
    end = text.find("\n")
    if end > 0:
        width = text.count(",", 0, end) + 1
        count = text.count("\n")
        v = _strict_reals(text, _csv_rows(width), count * width)
        if v is not None:
            return v.reshape((count, width))
    rows = list(filter(str.strip, text.splitlines()))
    if rows:
        commas = rows[0].count(",")
        if all(ln.count(",") == commas for ln in rows):
            # float() strips the whitespace around each field itself
            v = _reals(",".join(rows).split(","))
            if v is not None:
                return v.reshape((len(rows), commas + 1))
    return _csv_by_line(text, path)


def _csv_by_line(text, path):
    rows = []
    width = None
    for no, ln in enumerate(text.splitlines(), start=1):
        if not ln.strip():
            continue
        fields = ln.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise DataFormatError(
                f"{path}:{no}: expected {width} fields, got {len(fields)}")
        rows.append([_real(t.strip(), path, no) for t in fields])
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(rows)


def load_matrix(path, format="auto"):
    """Read a dense matrix from MatrixMarket or headerless CSV."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise DataFormatError(f"cannot read {path}: {e}") from None
    fmt = format
    if fmt == "auto":
        if text.lstrip().startswith(_MM_MAGIC) or p.suffix.lower() in (".mtx", ".mm"):
            fmt = "matrixmarket"
        else:
            fmt = "csv"
    if fmt == "matrixmarket":
        return _parse_matrixmarket(text, path)
    if fmt == "csv":
        return _parse_csv(text, path)
    raise ArgumentError(
        f"unknown format {format!r} (expected auto|matrixmarket|csv)")


def save_matrix(path, A, format="matrixmarket"):
    """Write a dense matrix; values round-trip bit-identically."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if format == "matrixmarket":
        # values run down each column in turn, a column's lines at a time
        out = [f"{_MM_MAGIC} matrix array real general", f"{m} {n}"]
        out.extend("\n".join(map(repr, col.tolist()))
                   for col in A.T if col.size)
    elif format == "csv":
        out = [",".join(map(repr, row.tolist())) for row in A]
    else:
        raise ArgumentError(
            f"unknown format {format!r} (expected matrixmarket|csv)")
    Path(path).write_text("\n".join(out) + "\n")
