"""Numerically thresholded symmetric sparse matrix algebra.

Row-compressed storage with a drop tolerance tau. Every product and
combination in the SP2 recursion is exactly symmetric: scipy's CSR product
sums each entry in a fixed order, and with sorted column indices entries
(i, j) and (j, i) of X@X, 2X - X^2 and P + P^T are the same sums in the same
order. So `threshold` applies a plain elementwise drop (|x_ij| < tau) after
each multiply-add, and that drop keeps the pattern symmetric. The sparse SP2
kernel checks once that each sparse operand is finite and exactly symmetric
(`sp2._SparseOps.check`), and `SparseMatrix` accepts only a finite,
non-negative tau. `threshold` is the one drop rule: `sparsify` applies it to
dense input that passes `linalg.symmetric_matrix`, the one rule for a
caller's dense matrix (square, non-empty, finite and exactly symmetric,
never averaged), before anything is dropped. The sparse SP2 kernel bounds
the spectrum by `linalg.gershgorin_bounds`, which takes the CSR array
directly and needs no eigensolve.

The arithmetic kernel is scipy's CSR matrix product, which is deterministic
(fixed row order, fixed reduction order) so repeated runs are bit-identical.
It runs on one core and releases the GIL, so the SP2 engine runs the two
products of each derivative step, X@X and Y@X, on two threads (see `sp2`).
`threshold` keeps what both lanes hold small: it builds no float
temporaries of nnz entries and returns arrays sized to the kept entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import symmetric_matrix


@dataclass(frozen=True)
class SparseMatrix:
    """Symmetric sparse matrix with drop tolerance tau.

    `csr` is canonical scipy CSR (sorted, deduplicated column indices per
    row). Treated as immutable; operations return new instances. A tau that
    is negative, infinite or NaN raises ValueError.
    """

    csr: sp.csr_matrix
    tau: float

    def __post_init__(self):
        if not 0.0 <= self.tau < math.inf:
            raise ValueError(f"drop tolerance tau must be finite and non-negative, got {self.tau}")

    @property
    def dim(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.csr.todense(), dtype=np.float64)

    def trace(self) -> float:
        return float(self.csr.diagonal().sum())

    def max_nnz_per_row(self) -> int:
        return int(np.max(np.diff(self.csr.indptr))) if self.dim else 0


def _canonical(m) -> sp.csr_matrix:
    c = sp.csr_matrix(m, dtype=np.float64)
    c.sum_duplicates()
    c.sort_indices()
    return c


def threshold(raw, tau: float) -> SparseMatrix:
    """Canonicalize an exactly symmetric raw result and drop |x_ij| < tau.

    Explicit zeros are removed; NaN entries are kept. The arrays of a CSR
    `raw` may be reused and modified in place, so pass a fresh result or a
    copy. The result's arrays hold exactly its nnz entries.
    """
    m = _canonical(raw)
    if tau > 0.0:
        d = m.data
        # |d| < tau as two sign tests: boolean temporaries only
        drop = d < tau
        drop &= d > -tau
        d[drop] = 0.0
    m.eliminate_zeros()
    # eliminate_zeros compacts in place and may leave views on raw buffers
    # up to twice the size; copy so that a kept iterate holds only its nnz.
    m.data = m.data.copy()
    m.indices = m.indices.copy()
    return SparseMatrix(m, tau)


def sparsify(x: np.ndarray, tau: float) -> SparseMatrix:
    """Threshold a dense matrix that `linalg.symmetric_matrix` accepts
    (square, non-empty, finite, exactly symmetric) into sparse storage;
    ValueError otherwise."""
    return threshold(symmetric_matrix(x), tau)


def from_diagonals(diagonals, offsets, tau: float) -> SparseMatrix:
    """Threshold a symmetric banded matrix, given by its diagonals (those at
    offsets k and -k equal), into sparse storage without forming it densely."""
    return threshold(sp.diags(diagonals, offsets, format="csr"), tau)


def sp_trace_product(a: SparseMatrix, b: SparseMatrix) -> float:
    """Tr[A B] for symmetric sparse matrices (elementwise contraction)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(a.csr.multiply(b.csr).sum())
