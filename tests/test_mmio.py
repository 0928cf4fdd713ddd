"""Matrix file round-trips and malformed-input reporting."""

import codecs
import locale
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matsketch import ArgumentError, DataFormatError, load_matrix, mmio, save_matrix
from matsketch.mmio import _MM_MAGIC

from conftest import rand


def test_array_body_runs_down_columns(tmp_path):
    p = tmp_path / "a.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    np.testing.assert_array_equal(load_matrix(p), [[1.0, 3.0], [2.0, 4.0]])


def test_array_tolerates_comments_and_multiple_tokens(tmp_path):
    p = tmp_path / "a.mtx"
    p.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% a comment\n"
        "2 3\n"
        "1 2\n"
        "\n"
        "3 4 5 6\n")
    np.testing.assert_array_equal(
        load_matrix(p), [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


def test_coordinate_sums_duplicates(tmp_path):
    p = tmp_path / "c.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "1 1 2.5\n"
        "1 1 0.5\n"
        "3 2 -1\n")
    A = load_matrix(p)
    want = np.zeros((3, 3))
    want[0, 0] = 3.0
    want[2, 1] = -1.0
    np.testing.assert_array_equal(A, want)


def test_csv_rows_in_order(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n")
    np.testing.assert_array_equal(load_matrix(p), [[1.0, 2.0], [3.0, 4.0]])


def test_format_autodetect(tmp_path):
    mm = tmp_path / "x.dat"
    mm.write_text("%%MatrixMarket matrix array real general\n1 1\n7\n")
    np.testing.assert_array_equal(load_matrix(mm), [[7.0]])
    csv = tmp_path / "y.dat"
    csv.write_text("7\n")
    np.testing.assert_array_equal(load_matrix(csv), [[7.0]])


@pytest.mark.parametrize("fmt", ["matrixmarket", "csv"])
def test_round_trip_is_bit_identical(tmp_path, fmt):
    A = rand(7).normal(size=(5, 3)) * np.pi
    A[0, 0] = 0.1  # not representable exactly; repr must preserve the bits
    # == would take -0.0 for 0.0: the bytes tell them apart
    A[1:, 0] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    p = tmp_path / "rt.dat"
    save_matrix(p, A, format=fmt)
    B = load_matrix(p, format=fmt)
    assert B.shape == A.shape
    assert B.tobytes() == A.tobytes()


def test_save_vector_becomes_row(tmp_path):
    p = tmp_path / "v.csv"
    save_matrix(p, np.array([1.0, 2.0, 3.0]), format="csv")
    assert load_matrix(p).shape == (1, 3)


@pytest.mark.parametrize("text, lineno", [
    ("%%MatrixMarket matrix array real general\n2 2\n1\nx\n3\n4\n", ":4:"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 5 1.0\n", ":3:"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", ":3:"),
    ("1,2\n3\n", ":2:"),
    ("1,nan\n", ":1:"),
])
def test_errors_carry_line_numbers(tmp_path, text, lineno):
    p = tmp_path / "bad.dat"
    p.write_text(text)
    with pytest.raises(DataFormatError, match=lineno):
        load_matrix(p)


@pytest.mark.parametrize("text", [
    "not a matrix file at all, but with, commas\nno",
    "%%MatrixMarket matrix array complex general\n1 1\n1 0\n",
    "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n",
    "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
    "",
])
def test_malformed_files_are_refused(tmp_path, text):
    p = tmp_path / "bad.mtx"
    p.write_text(text)
    with pytest.raises(DataFormatError):
        load_matrix(p)


def test_unknown_format_arguments(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1\n")
    with pytest.raises(ArgumentError):
        load_matrix(p, format="tsv")
    with pytest.raises(ArgumentError):
        save_matrix(p, np.eye(2), format="tsv")


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        load_matrix(tmp_path / "nope.csv")


@pytest.mark.parametrize("name, body, line, byte", [
    ("a.mtx", b"%%MatrixMarket matrix array real general\n2 1\n1\n\xff\n", 4, "0xff"),
    ("m.csv", b"1,2\r\n3,4\r5,\xe9\n", 3, "0xe9"),
    ("m.csv", b"\xe9", 1, "0xe9"),
])
def test_undecodable_bytes_are_a_data_error_naming_their_line(tmp_path, name, body,
                                                               line, byte):
    if codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8":
        pytest.skip("the bytes are undecodable only in UTF-8")
    p = tmp_path / name
    p.write_bytes(body)
    with pytest.raises(DataFormatError) as exc:
        load_matrix(p)
    assert str(exc.value) == f"{p}:{line}: not utf-8 text: byte {byte}"


@pytest.mark.parametrize("fmt", ["matrixmarket", "csv"])
@pytest.mark.parametrize("A", [
    np.zeros((0, 3)), np.zeros((3, 0)), np.array([]),
    [[1.0, np.inf]], [[-np.inf, 2.0]], [[0.0], [np.nan]],
], ids=["0x3", "3x0", "empty", "inf", "-inf", "nan"])
def test_save_refuses_what_load_cannot_read_back(tmp_path, fmt, A):
    p = tmp_path / "m.dat"
    with pytest.raises(ArgumentError):
        save_matrix(p, A, format=fmt)
    assert not p.exists()


def _traced_peak(f, *args, **kwargs):
    """f's result and the peak of the memory that tracemalloc saw it take."""
    tracemalloc.start()
    try:
        return f(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt, shape", [("matrixmarket", (800, 500)), ("csv", (4000, 60))])
def test_load_holds_the_file_once_and_save_streams(tmp_path, fmt, shape):
    A = rand(9).normal(size=shape)
    p = tmp_path / "m.dat"
    _, save_peak = _traced_peak(save_matrix, p, A, format=fmt)
    load_matrix(p, format=fmt)  # lazy imports and compiled grammars first
    B, load_peak = _traced_peak(load_matrix, p, format=fmt)
    size = p.stat().st_size
    assert B.tobytes() == A.tobytes()
    # the load holds the file's bytes and the result, the save a line at a
    # time; tracemalloc does not count the C++ reader's own chunk buffers
    assert load_peak <= 2 * size
    assert save_peak <= 0.1 * size


# ---------------------------------------------------------------------------
# The per-line parsers that preceded the bulk conversion, kept verbatim as an
# independent reference: the bulk parsers must return byte-identical arrays
# and raise identical messages.


def _ref_real(tok, path, lineno):
    try:
        v = float(tok)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: not a real number: {tok!r}") from None
    if not math.isfinite(v):
        raise DataFormatError(f"{path}:{lineno}: non-finite value: {tok!r}")
    return v


def _ref_int(tok, path, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: bad {what}: {tok!r}") from None


def _ref_parse_matrixmarket(text, path):
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_MM_MAGIC):
        raise DataFormatError(f"{path}:1: missing {_MM_MAGIC} header")
    toks = lines[0].split()
    if len(toks) != 5 or toks[1].lower() != "matrix":
        raise DataFormatError(f"{path}:1: malformed header: {lines[0]!r}")
    layout, field, symmetry = (t.lower() for t in toks[2:])
    if layout not in ("array", "coordinate"):
        raise DataFormatError(f"{path}:1: unsupported layout {layout!r}")
    if field != "real":
        raise DataFormatError(f"{path}:1: only 'real' entries supported, got {field!r}")
    if symmetry != "general":
        raise DataFormatError(
            f"{path}:1: only 'general' symmetry supported, got {symmetry!r}")

    body = [(i + 1, ln) for i, ln in enumerate(lines)
            if i > 0 and ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise DataFormatError(f"{path}: missing size line")
    size_no, size_ln = body[0]
    entries = body[1:]
    size_toks = size_ln.split()

    if layout == "array":
        if len(size_toks) != 2:
            raise DataFormatError(
                f"{path}:{size_no}: array size line needs 'rows cols', got {size_ln!r}")
        m = _ref_int(size_toks[0], path, size_no, "row count")
        n = _ref_int(size_toks[1], path, size_no, "column count")
        if m < 1 or n < 1:
            raise DataFormatError(f"{path}:{size_no}: dimensions must be positive")
        vals = []
        for no, ln in entries:
            vals.extend(_ref_real(t, path, no) for t in ln.split())
        if len(vals) != m * n:
            raise DataFormatError(
                f"{path}: array body has {len(vals)} entries, expected {m * n}")
        # values run down each column in turn
        return np.array(vals).reshape((n, m)).T.copy()

    if len(size_toks) != 3:
        raise DataFormatError(
            f"{path}:{size_no}: coordinate size line needs 'rows cols nnz', "
            f"got {size_ln!r}")
    m = _ref_int(size_toks[0], path, size_no, "row count")
    n = _ref_int(size_toks[1], path, size_no, "column count")
    nnz = _ref_int(size_toks[2], path, size_no, "entry count")
    if m < 1 or n < 1 or nnz < 0:
        raise DataFormatError(f"{path}:{size_no}: bad dimensions/entry count")
    if len(entries) != nnz:
        raise DataFormatError(
            f"{path}: coordinate body has {len(entries)} entries, expected {nnz}")
    A = np.zeros((m, n))
    for no, ln in entries:
        parts = ln.split()
        if len(parts) != 3:
            raise DataFormatError(
                f"{path}:{no}: coordinate entry needs 'i j value', got {ln!r}")
        i = _ref_int(parts[0], path, no, "row index")
        j = _ref_int(parts[1], path, no, "column index")
        if not (1 <= i <= m and 1 <= j <= n):
            raise DataFormatError(
                f"{path}:{no}: index ({i},{j}) outside {m}x{n}")
        A[i - 1, j - 1] += _ref_real(parts[2], path, no)
    return A


def _ref_parse_csv(text, path):
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
        rows.append([_ref_real(t.strip(), path, no) for t in fields])
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(rows)


def _outcome(parse, *args):
    """What a parser did, comparable with ==: the array's exact bytes and
    layout, or the DataFormatError message."""
    try:
        A = parse(*args)
    except DataFormatError as e:
        return ("error", str(e))
    return ("array", A.shape, A.dtype.str, A.flags.c_contiguous, A.tobytes())


_GOOD_REALS = ["0", "-0", "1", "+1", "-2.5", ".5", "5.", "1e-300", "1E5",
               "1_000", "1_0.5", "\u0663"]  # the last is an Arabic-Indic 3
_BAD_REALS = ["x", "%", "1__0", "_1", "1.2.3", "--1", "0x10", "1,5",
              "inf", "-inf", "nan", "NaN", "1e400", "Infinity"]
_BAD_INDICES = ["0", "-1", "9", "1.0", "a", "99999999999999999999999"]
_SEPS = ["\n", "\r\n", "\r"]

_reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(_GOOD_REALS))


def _spoil(draw, toks, bad):
    """Replace one token, chosen by the draw, with a bad one."""
    if toks:
        toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(bad))


@st.composite
def _lines_of(draw, groups):
    """Token groups as text lines, with blank and comment lines mixed in."""
    out = []
    for g in groups:
        while draw(st.integers(0, 9)) == 0:
            out.append(draw(st.sampled_from(["", "  ", "\t", "% note", "  %x 1"])))
        sep = draw(st.sampled_from([" ", "\t", "   "]))
        lead = draw(st.sampled_from(["", "", " "]))
        out.append(lead + sep.join(g))
    return out


@st.composite
def _matrixmarket_text(draw):
    """A well-formed file with up to two faults, as a list of lines."""
    faults = draw(st.lists(st.sampled_from(
        ["header", "size", "count", "real", "index", "parts", "shift", "inline"]),
        max_size=2, unique=True))
    layout = draw(st.sampled_from(["array", "coordinate"]))
    header = f"{_MM_MAGIC} matrix {layout} real general"
    if "header" in faults:
        header = draw(st.sampled_from([
            f"{_MM_MAGIC} matrix array complex general",
            f"{_MM_MAGIC} matrix array real",
            f"{_MM_MAGIC}  matrix  {layout.upper()}  Real  General",
            "%MatrixMarket matrix array real general"]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pre = draw(st.lists(st.sampled_from(["", "% comment", " %", "\t"]), max_size=2))
    miscount = draw(st.sampled_from([-1, 1])) if "count" in faults else 0
    if layout == "array":
        size = [str(m), str(n)]
        toks = draw(st.lists(_reals, min_size=m * n + miscount,
                             max_size=m * n + miscount))
        if "real" in faults:
            _spoil(draw, toks, _BAD_REALS)
        groups, at = [], 0
        while at < len(toks):
            w = draw(st.integers(1, 4))
            groups.append(toks[at:at + w])
            at += w
    else:
        nnz = draw(st.integers(0, 6))
        size = [str(m), str(n), str(nnz + miscount)]
        groups = [[str(draw(st.integers(1, m))), str(draw(st.integers(1, n))),
                   draw(_reals)] for _ in range(nnz)]
        if groups and ("real" in faults or "index" in faults or "parts" in faults):
            g = groups[draw(st.integers(0, nnz - 1))]
            if "real" in faults:
                g[2] = draw(st.sampled_from(_BAD_REALS))
            if "index" in faults:
                g[draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD_INDICES))
            if "parts" in faults:
                g.insert(0, "1") if draw(st.booleans()) else g.pop()
        if "shift" in faults and nnz >= 2:
            # one entry a token short, the next one over: the total still fits
            a = draw(st.integers(0, nnz - 2))
            groups[a + 1].append(groups[a].pop())
    if "size" in faults:
        size = draw(st.sampled_from([size[:1], size + ["1"], ["0"] + size[1:],
                                     ["a"] + size[1:], []]))
    lines = [header, *pre, " ".join(size), *draw(_lines_of(groups))]
    if "inline" in faults:
        lines.insert(draw(st.integers(0, len(lines))), "1 2 % inline")
    return lines


@st.composite
def _csv_text(draw):
    """Rows of one width with up to two faults, as a list of lines."""
    faults = draw(st.lists(st.sampled_from(["width", "real", "pad"]),
                           max_size=2, unique=True))
    width = draw(st.integers(1, 4))
    pad = st.sampled_from(["", " ", "\t", "\xa0"] + ["\x1f"] * ("pad" in faults))
    rows = [[draw(pad) + draw(_reals) + draw(pad) for _ in range(width)]
            for _ in range(draw(st.integers(0, 5)))]
    if rows and "width" in faults:
        r = rows[draw(st.integers(0, len(rows) - 1))]
        r.append("1") if draw(st.booleans()) or width == 1 else r.pop()
    if rows and "real" in faults:
        _spoil(draw, rows[draw(st.integers(0, len(rows) - 1))], _BAD_REALS)
    lines = []
    for r in rows:
        while draw(st.integers(0, 6)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        lines.append(",".join(r))
    return lines


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.large_base_example])
@given(data=st.data())
def test_bulk_parsers_match_the_per_line_reference(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(["matrixmarket", "csv"]))
    lines = data.draw(_matrixmarket_text() if kind == "matrixmarket" else _csv_text())
    sep = data.draw(st.sampled_from(_SEPS))
    text = sep.join(lines) + data.draw(st.sampled_from(["", sep]))
    parse, ref = ((mmio._parse_matrixmarket, _ref_parse_matrixmarket)
                  if kind == "matrixmarket" else (mmio._parse_csv, _ref_parse_csv))

    p = tmp_path_factory.getbasetemp() / ("m.mtx" if kind == "matrixmarket" else "m.csv")
    p.write_bytes(text.encode())
    # raw text (CR line ends intact) and through load_matrix, which reads
    # with universal newlines
    assert _outcome(parse, text, "f") == _outcome(ref, text, "f")
    assert _outcome(load_matrix, p) == _outcome(ref, p.read_text(), p)
    # a first prefix that cuts the header or size line at any point
    lines = text.splitlines()
    k = next((i for i in range(1, len(lines)) if lines[i].strip()
              and not lines[i].lstrip().startswith("%")), len(lines))
    n = data.draw(st.integers(1, len(text) + 1))
    assert mmio._head(text, n) == lines[:k + 1]


def test_bad_token_before_a_width_error_is_reported_first(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("x,1\n2\n")
    with pytest.raises(DataFormatError, match=r":1: not a real number: 'x'"):
        load_matrix(p)


def test_coordinate_duplicates_sum_in_file_order(tmp_path):
    # pairwise or sorted summation would give 1.0 here
    p = tmp_path / "c.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "2 1 1e16\n"
        "2 1 1\n"
        "2 1 -1e16\n")
    A = load_matrix(p)
    assert A[1, 0] == 0.0
    assert not A.any()


def test_size_line_after_a_long_comment_block(tmp_path):
    # the head is longer than the prefix first split for the size line
    p = tmp_path / "a.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n"
                 + ("% " + "c" * 100 + "\n") * 100 + "1 2\n3\n4\n")
    np.testing.assert_array_equal(load_matrix(p), [[3.0, 4.0]])


@pytest.mark.parametrize("rest", ["", "\n% only a comment\n  \n"])
def test_missing_size_line(tmp_path, rest):
    p = tmp_path / "a.mtx"
    p.write_text("%%MatrixMarket matrix array real general" + rest)
    with pytest.raises(DataFormatError) as exc:
        load_matrix(p)
    assert str(exc.value) == f"{p}: missing size line"


def test_well_formed_files_skip_the_per_line_rescan(tmp_path):
    files = {
        "a.mtx": "%%MatrixMarket matrix array real general\r\n% c\r\n2 1\r\n1\r\n% c\r\n2\r\n",
        "m.csv": "1, 2\n\n3 ,4\n",
    }

    def rescan(*args):
        raise AssertionError("per-line rescan ran on a well-formed file")

    with mock.patch.multiple(mmio, _array_by_line=rescan, _csv_by_line=rescan):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
            assert load_matrix(tmp_path / name).shape == (2, 1 if name == "a.mtx" else 2)


# ---------------------------------------------------------------------------
# The strict path: bodies that scipy's C++ reader reads in place of float.

_STRICT_TOKEN = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", re.ASCII)

_strict_tokens = st.one_of(
    st.text(alphabet="0123456789.eE+-", min_size=1, max_size=12),
    st.floats().map(repr),
    st.sampled_from([
        "1.2.3", "1e", "1e5.5", "-", ".", "-0", "-0.0", "-.0e9", "-1e-400",
        "1e-400", "1e400", "9007199254740993", "2.4703282292062328e-324",
        "2.4703282292062327e-324", "1.7976931348623159e308", "7" * 400,
        "-0." + "0" * 399 + "1", "9" * 400 + "e-700", "1" * 400 + "e-100"]))


def _by_float(toks):
    """float's reading of the tokens; None unless every one is in the strict
    grammar and finite."""
    if not all(_STRICT_TOKEN.fullmatch(t) for t in toks):
        return None
    v = np.array([float(t) for t in toks])
    return v if np.isfinite(v).all() else None


# Bodies are handed to the C++ reader in chunks of mmio._CHUNK bytes; 3-byte
# chunks split tokens, line breaks and commas across many chunk boundaries.
_CHUNKS = [mmio._CHUNK, 3]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(toks=st.lists(_strict_tokens, min_size=1, max_size=8),
       width=st.integers(1, 3))
def test_strict_reader_gives_the_bits_of_float_or_declines(toks, width):
    rows = [toks[i:i + width] for i in range(0, len(toks) - width + 1, width)]
    for body, grammar, used in [
            ("".join(t + "\n" for t in toks), mmio._ONE_PER_LINE, toks),
            ("".join(",".join(r) + "\n" for r in rows), mmio._csv_rows(width),
             [t for r in rows for t in r])]:
        if not used:
            continue
        want = _by_float(used)
        # the body at an offset, after bytes outside the grammar; values run
        # down the columns of the shape, so got.T holds them in file order
        data = b"x,-\n" + body.encode()
        height = 2 if len(used) % 2 == 0 else 1
        for chunk in _CHUNKS:
            with mock.patch.object(mmio, "_CHUNK", chunk):
                got = mmio._strict_reals(data, 4, grammar, (height, len(used) // height))
            if want is None:
                assert got is None
            else:
                assert got is not None and got.T.tobytes() == want.tobytes()


@pytest.mark.parametrize("fmt", ["matrixmarket", "csv"])
def test_saved_files_skip_the_python_conversion(tmp_path, fmt):
    A = rand(3).normal(size=(40, 7))
    A[0] = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e-300, -1.0]
    p = tmp_path / "s.dat"
    save_matrix(p, A, format=fmt)

    def python_path(*args):
        raise AssertionError("Python float conversion ran on a saved file")

    for chunk in _CHUNKS:
        with mock.patch.multiple(mmio, _reals=python_path, _array_by_line=python_path,
                                 _csv_by_line=python_path, _CHUNK=chunk):
            B = load_matrix(p, format=fmt)
        assert B.shape == A.shape and B.flags.c_contiguous
        assert B.tobytes() == A.tobytes()


@pytest.mark.parametrize("fmt, ref", [("matrixmarket", _ref_parse_matrixmarket),
                                      ("csv", _ref_parse_csv)])
def test_crlf_line_ends_stay_on_the_strict_path(tmp_path, fmt, ref):
    A = rand(4).normal(size=(30, 4))
    A[0, :3] = [-0.0, 5e-324, 0.0]
    p = tmp_path / "s.dat"
    save_matrix(p, A, format=fmt)
    p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))

    def python_path(*args):
        raise AssertionError("Python float conversion ran on a CRLF file")

    want = _outcome(ref, p.read_text(), p)
    for chunk in _CHUNKS:
        with mock.patch.multiple(mmio, _reals=python_path, _array_by_line=python_path,
                                 _csv_by_line=python_path, _CHUNK=chunk):
            assert _outcome(load_matrix, p, fmt) == want
    assert want[-1] == A.tobytes()


def test_a_non_ascii_comment_loads_as_the_reference(tmp_path):
    p = tmp_path / "a.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n% caf\u00e9 \u00bd\n"
                 "2 2\n-0\n5e-324\n0.1\n-1e-400\n")
    got = _outcome(load_matrix, p)
    assert got == _outcome(_ref_parse_matrixmarket, p.read_text(), p)
    assert got[-1] == np.array([[-0.0, 0.1], [5e-324, -0.0]]).tobytes()


@pytest.mark.parametrize("name, text, where", [
    ("a.mtx", "%%MatrixMarket matrix array real general\n2 1\n1\n1e400\n", 4),
    ("m.csv", "1,2\n3,-1e400\n", 2),
])
def test_an_overflow_in_the_strict_grammar_names_its_line(tmp_path, name, text, where):
    p = tmp_path / name
    p.write_text(text)
    tok = text.split()[-1].split(",")[-1]
    with pytest.raises(DataFormatError) as exc:
        load_matrix(p)
    assert str(exc.value) == f"{p}:{where}: non-finite value: {tok!r}"


def test_a_scipy_error_takes_the_float_path(tmp_path):
    p = tmp_path / "a.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n1 2\n-0\n2.5\n")
    import scipy.io

    with mock.patch.object(scipy.io, "mmread", side_effect=ValueError("bad")):
        B = load_matrix(p)
    assert B.tobytes() == np.array([[-0.0, 2.5]]).tobytes()
