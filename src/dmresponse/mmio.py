"""Matrix Market file exchange.

Two pinned formats: "matrix array real general" (dense, column-major body,
symmetrized on load with an asymmetry check) and "matrix coordinate real
symmetric" (1-based indices, lower triangle stored, each entry at most
once, mirrored on load into sparse storage built straight from the entry
list). Both reject non-finite values on the line that holds them. Values
are written with 17 significant digits so a write/read round trip
reproduces doubles bit for bit.

Files are ASCII, with LF, CRLF or lone CR line ends. Each file is read
in one bulk pass: its bytes are decoded once, and the banner, leading
comments and size line are parsed line by line. The body's lines are used
as they stand (stripped) when it holds no `%` and no blank line; otherwise
comment and blank lines are filtered out once. One numpy call per column of
numbers converts every value: numpy parses a Python str with the grammar of
`float()` (of `int()` for indices). The finiteness, range, triangle and
duplicate checks are vectorized. Only when a bulk conversion or check fails
does a per-line scan run, and its one job is to name the first bad line in
file order.

Writing is `scipy.io.mmwrite`'s: 17 significant digits in exponent form,
under a banner and one empty comment line that the reader skips.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .linalg import symmetric_matrix
from .sparse import SparseMatrix, threshold

BANNER = "%%MatrixMarket"


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content, with the offending line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def _parse_banner(path, line):
    fields = line.strip().split()
    if not fields or fields[0] != BANNER:
        raise MatrixMarketError(path, 1, f"missing {BANNER} banner")
    if len(fields) != 5:
        raise MatrixMarketError(path, 1, f"banner needs 5 fields, got {len(fields)}")
    obj, fmt, field, sym = (f.lower() for f in fields[1:])
    if obj != "matrix":
        raise MatrixMarketError(path, 1, f"unsupported object {obj!r}")
    if field != "real":
        raise MatrixMarketError(path, 1, f"unsupported field {field!r}")
    if (fmt, sym) == ("array", "general"):
        return "array"
    if (fmt, sym) == ("coordinate", "symmetric"):
        return "coordinate"
    raise MatrixMarketError(
        path, 1, f"unsupported format/symmetry combination {fmt!r}/{sym!r}"
    )


def _universal_newlines(text: str) -> str:
    # "\r\n" and a lone "\r" end a line as "\n" does
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_lines(path) -> tuple[str, list[str]]:
    """The file's text with "\\n" line ends, and its lines without them."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = _universal_newlines(raw[: exc.start].decode("ascii")).count("\n") + 1
        raise MatrixMarketError(
            path, line_no, f"non-ASCII byte 0x{raw[exc.start]:02x}"
        ) from None
    text = _universal_newlines(text)
    lines = text.split("\n")
    if lines[-1] == "":  # the final line end closes the last line
        lines.pop()
    return text, lines


def _size_fields(path, no, line, kind, count):
    parts = line.split()
    if len(parts) != count:
        raise MatrixMarketError(path, no, f"{kind} size line needs {count} fields: {line!r}")
    try:
        sizes = [int(p) for p in parts]
    except ValueError:
        raise MatrixMarketError(path, no, f"bad size line {line!r}") from None
    if sizes[0] != sizes[1]:
        raise MatrixMarketError(path, no, f"matrix must be square, got {sizes[0]}x{sizes[1]}")
    if min(sizes) < 0:
        raise MatrixMarketError(path, no, f"negative size field in {line!r}")
    return sizes


def _entries(text, lines, start):
    """The entry lines, stripped, that follow the size line lines[start - 1],
    and the line number of each; comment and blank lines are dropped."""
    body = list(map(str.strip, lines[start:]))
    offset = sum(map(len, lines[:start])) + start
    if text.find("%", offset) < 0 and all(body):
        return body, range(start + 1, start + 1 + len(body))
    kept = [(k, s) for k, s in enumerate(body, start + 1) if s and s[0] != "%"]
    nos, entries = zip(*kept) if kept else ((), ())
    return list(entries), nos


def _scan_values(path, entries, nos):
    """Raise for the first entry that float() rejects."""
    for s, no in zip(entries, nos):
        try:
            float(s)
        except ValueError:
            raise MatrixMarketError(path, no, f"bad value {s!r}") from None


def _scan_coordinates(path, entries, nos, n):
    """Raise for the first entry line that is not a finite lower-triangle
    'i j value' within n x n."""
    for s, no in zip(entries, nos):
        parts = s.split()
        if len(parts) != 3:
            raise MatrixMarketError(path, no, f"entry needs 'i j value': {s!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise MatrixMarketError(path, no, f"bad entry {s!r}") from None
        if not math.isfinite(v):
            raise MatrixMarketError(path, no, f"non-finite value in entry {s!r}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise MatrixMarketError(path, no, f"index ({i}, {j}) outside {n}x{n}")
        if j > i:
            raise MatrixMarketError(
                path, no, f"upper-triangle entry ({i}, {j}) in a symmetric file"
            )


def _read_array(path, entries, nos, size_no, size_line):
    rows, cols = _size_fields(path, size_no, size_line, "array", 2)
    if len(entries) != rows * cols:
        raise MatrixMarketError(
            path, size_no, f"expected {rows * cols} values, found {len(entries)}"
        )
    try:
        vals = np.array(entries, dtype=np.float64)
    except ValueError:
        _scan_values(path, entries, nos)
        raise
    try:
        return symmetric_matrix(vals.reshape((rows, cols), order="F"))
    except ValueError as exc:
        # symmetric_matrix has rejected the values; only then look for the
        # line of the first non-finite one, so valid files pay no second scan
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            k = bad[0]
            raise MatrixMarketError(path, nos[k], f"non-finite value {entries[k]!r}") from None
        raise MatrixMarketError(path, size_no, str(exc)) from None


def _read_coordinate(path, entries, nos, size_no, size_line):
    n, _, nnz = _size_fields(path, size_no, size_line, "coordinate", 3)
    if len(entries) != nnz:
        raise MatrixMarketError(path, size_no, f"expected {nnz} entries, found {len(entries)}")
    try:
        # fields are counted without keeping a list per line: nnz small
        # lists cost more to build than the three conversions
        if not set(map(len, map(str.split, entries))) <= {3}:
            raise ValueError("an entry line without three fields")
        fields = " ".join(entries).split()
        # int64 overflows where int() does not; the scan then names the line
        ii = np.array(fields[0::3], dtype=np.int64)
        jj = np.array(fields[1::3], dtype=np.int64)
        vv = np.array(fields[2::3], dtype=np.float64)
        if not (np.isfinite(vv).all() and (jj >= 1).all() and (jj <= ii).all() and (ii <= n).all()):
            raise ValueError("an entry outside the finite lower triangle")
    except (ValueError, OverflowError):
        _scan_coordinates(path, entries, nos, n)
        raise
    ii -= 1
    jj -= 1
    # stable sort: within a run of equal keys the file order is kept, so the
    # second and later members of a run are the repeated lines
    key = ii * n + jj
    order = np.argsort(key, kind="stable")
    repeated = order[1:][np.diff(key[order]) == 0]
    if repeated.size:
        k = int(repeated.min())
        raise MatrixMarketError(path, nos[k], f"duplicate entry ({ii[k] + 1}, {jj[k] + 1})")
    off = ii != jj
    vals = np.concatenate([vv, vv[off]])
    coords = (np.concatenate([ii, jj[off]]), np.concatenate([jj, ii[off]]))
    return threshold(sp.coo_matrix((vals, coords), shape=(n, n)), 0.0)


def read_matrix_market(path) -> np.ndarray | SparseMatrix:
    """Load a square symmetric matrix.

    Dense array files return a float64 ndarray; coordinate files return a
    SparseMatrix (tau = 0). Errors carry the line number.
    """
    text, lines = _read_lines(path)
    if not lines:
        raise MatrixMarketError(path, 1, "empty file")
    kind = _parse_banner(path, lines[0])
    for size_at in range(1, len(lines)):
        size_line = lines[size_at].strip()
        if size_line and size_line[0] != "%":
            break
    else:
        raise MatrixMarketError(path, len(lines), "missing size line")
    entries, nos = _entries(text, lines, size_at + 1)
    read = _read_array if kind == "array" else _read_coordinate
    return read(path, entries, nos, size_at + 1, size_line)


def write_matrix_market(path, m) -> None:
    """Write a dense ndarray (array format) or SparseMatrix (coordinate
    format, lower triangle) to exactly `path`."""
    import scipy.io  # only writes pay for loading the writer

    if isinstance(m, SparseMatrix):
        m, symmetry = sp.tril(m.csr), "symmetric"
    else:
        m, symmetry = np.asarray(m, dtype=np.float64), "general"
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # given a name rather than a file, mmwrite would append ".mtx" to it
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, m, field="real", precision=17, symmetry=symmetry)
