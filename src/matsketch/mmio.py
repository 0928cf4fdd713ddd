r"""Matrix file I/O: MatrixMarket (array and coordinate, real general)
and headerless CSV.

A file is read into memory once, as bytes, with its line ends translated
as ``Path.read_text()`` translates them (a copy, made only when the file
holds a ``\r``). An ASCII file is decoded only where it is needed: its
head comes from a decoded prefix. Array and CSV bodies are then read in
up to three tiers:

1. An ASCII body in a strict grammar (one token per line, or one row of
   comma-separated tokens per line, every token matching
   ``-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?`` and every line ending in
   ``\n``) is checked in place and streamed to scipy's C++ reader a chunk
   at a time, so Python holds the bytes and the result. That reader
   rounds correctly, so it gives the bits of Python's ``float``; the
   sign of a zero is taken from its token, by a scan of the whole body
   that runs only when the result holds a zero. What ``save_matrix``
   writes is in this grammar.
2. Any other body, or one with a non-finite value, is decoded in full and
   converted whole: one split into tokens, one pass of Python's ``float``
   into a NumPy array, one vectorized finiteness check.
3. Only when that fails (a bad token, a non-finite value, a wrong width
   or count) is the body rescanned line by line, which reports the first
   error in file order with its line number.

Coordinate files and non-ASCII files are decoded in full; coordinate
files are read line by line. The accepted token set is Python's
``float``/``int``, not a library reader's: the C++ reader sees only
bodies whose every token ``float`` reads to the same value.

``save_matrix`` writes each column (MatrixMarket) or row (CSV) as it is
formatted, so a save holds no copy of the whole file.
"""

import itertools
import locale
import math
import re
from pathlib import Path

import numpy as np

from .errors import ArgumentError, DataFormatError

_MM_MAGIC = "%%MatrixMarket"
_HEAD_CHARS = 4096  # prefix first split in search of the size line
_CHUNK = 1 << 18  # bytes of a body handed to the C++ reader at a time

# the header's magic after what str.lstrip() strips: in ASCII, \s and \x1c-\x1f
_MM_START = re.compile(r"\s*+" + _MM_MAGIC)
_MM_START_ASCII = re.compile(rb"[\s\x1c-\x1f]*+" + _MM_MAGIC.encode())


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


def _finite(a):
    """Whether every entry of a non-empty array is finite, without an
    array-sized temporary: min and max carry any nan or inf."""
    return bool(np.isfinite([a.min(), a.max()]).all())


def _reals(tokens):
    """The tokens as a float array, or None unless every one is a finite real."""
    try:
        v = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        return None
    return v if np.isfinite(v).all() else None


def _text(src):
    """src as text: an ASCII bytes object is decoded, a str kept."""
    return src if isinstance(src, str) else src.decode("ascii")


def _decode(data, path):
    """The file's bytes as ``Path.read_text()`` decodes them; a byte that the
    locale's encoding cannot decode is a DataFormatError naming its line."""
    encoding = locale.getpreferredencoding(False)
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as e:
        before = data[:e.start].decode(encoding, "replace")
        line = len((before + "x").splitlines())
        raise DataFormatError(
            f"{path}:{line}: not {e.encoding} text: byte 0x{data[e.start]:02x}"
        ) from None


# A real in the strict grammar. Outside it the C++ reader drops the rest of
# a line without a word ("1_0" reads 1.0, "1.2.3" 1.2, "0x10" 0.0).
_TOKEN = rb"-?+(?:\d++\.?+\d*+|\.\d++)(?:[eE][-+]?+\d++)?+"
_ONE_PER_LINE = re.compile(rb"(?:%s\n)*+" % _TOKEN)


def _csv_rows(width):
    """The strict grammar of CSV rows of `width` fields."""
    return re.compile(rb"(?:%s(?:,%s){%d}\n)*+" % (_TOKEN, _TOKEN, width - 1))


class _ChunkReader:
    """A binary file for scipy.io.mmread: a MatrixMarket header for `shape`,
    then data[start:] a chunk at a time, commas (a CSV row's fields) turned
    into line breaks. Each read returns the next chunk whatever size is
    asked: the C++ reader takes the returned bytes as its buffer."""

    def __init__(self, data, start, shape):
        head = b"%s matrix array real general\n%d %d\n" % (
            _MM_MAGIC.encode(), *shape)
        self._chunks = itertools.chain([head], (
            data[a:a + _CHUNK].replace(b",", b"\n")
            for a in range(start, len(data), _CHUNK)))

    def read(self, size=-1):
        return next(self._chunks, b"")


def _strict_reals(data, start, grammar, shape):
    """The reals of data[start:] as an array of `shape`, read by scipy's C++
    reader in MatrixMarket order (down each column in turn); None unless
    data[start:] matches `grammar` and every value is finite. The caller
    checks that the body holds as many values as `shape`. Inside the grammar
    that reader and ``float`` give the same bits, except that it reads -0.0
    and -1e-400 as +0.0."""
    if not grammar.fullmatch(data, start):
        return None
    import scipy.io  # ~35 ms to import; only this path needs it

    try:
        v = scipy.io.mmread(_ChunkReader(data, start, shape))
    except ValueError:
        return None
    if not _finite(v):
        return None
    _sign_zeros(v, data, start)
    return v


def _sign_zeros(v, data, start):
    """Negate each zero of v whose token in data[start:] starts with "-"."""
    if np.count_nonzero(v) == v.size:
        return
    zeros = np.flatnonzero(v.T == 0)  # file order is the C order of v.T
    buf = np.frombuffer(data, np.uint8)[start:]
    # value i > 0 starts one past the i-th line break or comma
    seps = np.flatnonzero((buf == ord("\n")) | (buf == ord(",")))
    firsts = np.concatenate(([0], seps[:v.size - 1] + 1))
    v.T.flat[zeros[buf[firsts[zeros]] == ord("-")]] = -0.0


def _is_data(ln):
    """A line that is neither blank nor a % comment."""
    return ln.strip() and not ln.lstrip().startswith("%")


def _size_index(lines):
    """Index of the size line, the first data line after the header, or None."""
    return next((i for i in range(1, len(lines)) if _is_data(lines[i])), None)


def _head(src, n=_HEAD_CHARS):
    """The lines from the header through the size line; all lines when there
    is no size line. Splits a prefix of n characters, doubled until the size
    line is among its whole lines, instead of every line of a large body."""
    while n < len(src):
        lines = _text(src[:n]).splitlines()[:-1]  # the last line may be cut short
        k = _size_index(lines)
        if k is not None:
            return lines[:k + 1]
        n *= 2
    lines = _text(src).splitlines()
    k = _size_index(lines)
    return lines if k is None else lines[:k + 1]


def _data_lines(text, k):
    """(line number, line) of every data line after line index k."""
    return [(i + 1, ln) for i, ln in enumerate(text.splitlines())
            if i > k and _is_data(ln)]


def _body_start(src, head):
    """Offset in src of the line after the head, splitting lines as _head
    does. Only a prefix is split: it holds every head line and its break."""
    cut = sum(map(len, head)) + 2 * len(head)
    return sum(map(len, _text(src[:cut]).splitlines(keepends=True)[:len(head)]))


def _body_tokens(text, head):
    """Tokens of the data lines after the head, whose last line is the size line."""
    if text.count("%") == sum(ln.count("%") for ln in head):
        # no comment line below the size line: one split, minus the head's
        # tokens (every line break splitlines knows is whitespace to split)
        return text.split()[sum(len(ln.split()) for ln in head):]
    # a line's first token starts with % exactly when the stripped line does
    return [t for p in map(str.split, text.splitlines()[len(head):])
            if p and p[0][0] != "%" for t in p]


def _parse_matrixmarket(src, path):
    """A MatrixMarket file from its text, or from its bytes if they are
    ASCII with translated line ends (only those go to the C++ reader)."""
    head = _head(src)
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
        if isinstance(src, bytes):
            start = _body_start(src, head)
            if src.count(b"\n", start) == m * n:
                A = _strict_reals(src, start, _ONE_PER_LINE, (m, n))
                if A is not None:
                    return A
        text = _text(src)
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
    entries = _data_lines(_text(src), k)
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


def _parse_csv(src, path):
    """A CSV file from its text, or from its bytes if they are ASCII with
    translated line ends (only those go to the C++ reader)."""
    if isinstance(src, bytes):
        end = src.find(b"\n")
        if end > 0:
            width = src.count(b",", 0, end) + 1
            count = src.count(b"\n")
            v = _strict_reals(src, 0, _csv_rows(width), (count * width, 1))
            if v is not None:
                return v.reshape((count, width))
    text = _text(src)
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
        src = p.read_bytes()
    except OSError as e:
        raise DataFormatError(f"cannot read {path}: {e}") from None
    if b"\r" in src:
        # universal newlines, as read_text translates them
        src = src.replace(b"\r\n", b"\n")
        src = src.replace(b"\r", b"\n")
    if src.isascii():
        magic = _MM_START_ASCII
    else:
        src, magic = _decode(src, path), _MM_START
    fmt = format
    if fmt == "auto":
        if magic.match(src) or p.suffix.lower() in (".mtx", ".mm"):
            fmt = "matrixmarket"
        else:
            fmt = "csv"
    if fmt == "matrixmarket":
        return _parse_matrixmarket(src, path)
    if fmt == "csv":
        return _parse_csv(src, path)
    raise ArgumentError(
        f"unknown format {format!r} (expected auto|matrixmarket|csv)")


def save_matrix(path, A, format="matrixmarket"):
    """Write a dense matrix; values round-trip bit-identically. A matrix
    with an empty dimension or a non-finite entry, which could not be read
    back, is refused before the file is created."""
    if format not in ("matrixmarket", "csv"):
        raise ArgumentError(
            f"unknown format {format!r} (expected matrixmarket|csv)")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if A.size == 0:
        raise ArgumentError(f"cannot save a {m}x{n} matrix: it has no entries")
    if not _finite(A):
        raise ArgumentError("cannot save a matrix with a non-finite entry")
    if format == "matrixmarket":
        # values run down each column in turn, a column's lines at a time
        head = f"{_MM_MAGIC} matrix array real general\n{m} {n}\n"
        lines, sep = A.T, "\n"
    else:
        head, lines, sep = "", A, ","  # one line a row
    with open(path, "w") as f:
        f.write(head)
        for line in lines:
            f.write(sep.join(map(repr, line.tolist())))
            f.write("\n")
