"""Matrix Market file exchange.

Two pinned formats: "matrix array real general" (dense, column-major body,
symmetrized on load with an asymmetry check) and "matrix coordinate real
symmetric" (1-based indices, lower triangle stored, each entry at most
once, mirrored on load into sparse storage built straight from the entry
list). Both reject non-finite values on the line that holds them. Values
are written with 17 significant digits so a write/read round trip
reproduces doubles bit for bit.
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


def read_matrix_market(path) -> np.ndarray | SparseMatrix:
    """Load a square symmetric matrix.

    Dense array files return a float64 ndarray; coordinate files return a
    SparseMatrix (tau = 0). Errors carry the line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError(path, 1, "empty file")
    kind = _parse_banner(path, lines[0])

    body = [
        (no, ln.strip())
        for no, ln in enumerate(lines[1:], start=2)
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not body:
        raise MatrixMarketError(path, len(lines), "missing size line")
    size_no, size_line = body[0]
    entries = body[1:]

    if kind == "array":
        parts = size_line.split()
        if len(parts) != 2:
            raise MatrixMarketError(path, size_no, f"array size line needs 2 fields: {size_line!r}")
        try:
            rows, cols = int(parts[0]), int(parts[1])
        except ValueError:
            raise MatrixMarketError(path, size_no, f"bad size line {size_line!r}") from None
        if rows != cols:
            raise MatrixMarketError(path, size_no, f"matrix must be square, got {rows}x{cols}")
        if len(entries) != rows * cols:
            raise MatrixMarketError(
                path,
                size_no,
                f"expected {rows * cols} values, found {len(entries)}",
            )
        vals = np.empty(rows * cols)
        for k, (no, ln) in enumerate(entries):
            try:
                vals[k] = float(ln)
            except ValueError:
                raise MatrixMarketError(path, no, f"bad value {ln!r}") from None
        dense = vals.reshape((rows, cols), order="F")
        try:
            return symmetric_matrix(dense)
        except ValueError as exc:
            # symmetric_matrix has rejected the values; only then look for the
            # line of the first non-finite one, so valid files pay no second scan
            bad = np.flatnonzero(~np.isfinite(vals))
            if bad.size:
                no, ln = entries[bad[0]]
                raise MatrixMarketError(path, no, f"non-finite value {ln!r}") from None
            raise MatrixMarketError(path, size_no, str(exc)) from None

    parts = size_line.split()
    if len(parts) != 3:
        raise MatrixMarketError(
            path, size_no, f"coordinate size line needs 3 fields: {size_line!r}"
        )
    try:
        rows, cols, nnz = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise MatrixMarketError(path, size_no, f"bad size line {size_line!r}") from None
    if rows != cols:
        raise MatrixMarketError(path, size_no, f"matrix must be square, got {rows}x{cols}")
    if len(entries) != nnz:
        raise MatrixMarketError(
            path, size_no, f"expected {nnz} entries, found {len(entries)}"
        )
    ii = np.empty(nnz, dtype=np.int64)
    jj = np.empty(nnz, dtype=np.int64)
    vv = np.empty(nnz)
    for k, (no, ln) in enumerate(entries):
        parts = ln.split()
        if len(parts) != 3:
            raise MatrixMarketError(path, no, f"entry needs 'i j value': {ln!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise MatrixMarketError(path, no, f"bad entry {ln!r}") from None
        if not math.isfinite(v):
            raise MatrixMarketError(path, no, f"non-finite value in entry {ln!r}")
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixMarketError(path, no, f"index ({i}, {j}) outside {rows}x{cols}")
        if j > i:
            raise MatrixMarketError(
                path, no, f"upper-triangle entry ({i}, {j}) in a symmetric file"
            )
        ii[k], jj[k], vv[k] = i - 1, j - 1, v
    # stable sort: within a run of equal keys the file order is kept, so the
    # second and later members of a run are the repeated lines
    key = ii * rows + jj
    order = np.argsort(key, kind="stable")
    repeated = order[1:][np.diff(key[order]) == 0]
    if repeated.size:
        k = int(repeated.min())
        raise MatrixMarketError(
            path, entries[k][0], f"duplicate entry ({ii[k] + 1}, {jj[k] + 1})"
        )
    off = ii != jj
    vals = np.concatenate([vv, vv[off]])
    coords = (np.concatenate([ii, jj[off]]), np.concatenate([jj, ii[off]]))
    return threshold(sp.coo_matrix((vals, coords), shape=(rows, cols)), 0.0)


def write_matrix_market(path, m) -> None:
    """Write a dense ndarray (array format) or SparseMatrix (coordinate
    format, lower triangle)."""
    if isinstance(m, SparseMatrix):
        coo = m.csr.tocoo()
        keep = coo.row >= coo.col
        order = np.lexsort((coo.row[keep], coo.col[keep]))
        rows = coo.row[keep][order]
        cols = coo.col[keep][order]
        vals = coo.data[keep][order]
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{BANNER} matrix coordinate real symmetric\n")
            fh.write(f"{m.dim} {m.dim} {len(vals)}\n")
            for i, j, v in zip(rows, cols, vals):
                fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
        return
    x = np.asarray(m, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    n = x.shape[0]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{BANNER} matrix array real general\n")
        fh.write(f"{n} {n}\n")
        for v in x.flatten(order="F"):
            fh.write(f"{v:.17g}\n")
