"""Numerically thresholded symmetric sparse matrix algebra.

Row-compressed storage with a drop tolerance tau. Every product and
combination in the SP2 recursion is exactly symmetric: scipy's CSR product
sums each entry in a fixed order, and with sorted column indices entries
(i, j) and (j, i) of X@X, 2X - X^2 and P + P^T are the same sums in the same
order. So `threshold` applies a plain elementwise drop (|x_ij| < tau) after
each multiply-add, and that drop keeps the pattern symmetric. The SP2 entry
point checks once that its sparse inputs are exactly symmetric.

`sparsify` takes arbitrary dense input and keeps the symmetric pairwise
rule: (i, j) and (j, i) are dropped together, only when both magnitudes
fall below tau, and survivors store the symmetrized value.

The arithmetic kernel is scipy's CSR matrix product, which is deterministic
(fixed row order, fixed reduction order) so repeated runs are bit-identical.
It runs on one core and releases the GIL, so the SP2 engine runs the two
products of each derivative step, X@X and Y@X, on two threads (see `sp2`).
`threshold` keeps what both lanes hold small: it builds no float
temporaries of nnz entries and returns arrays sized to the kept entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class SparseMatrix:
    """Symmetric sparse matrix with drop tolerance tau.

    `csr` is canonical scipy CSR (sorted, deduplicated column indices per
    row). Treated as immutable; operations return new instances.
    """

    csr: sp.csr_matrix
    tau: float

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

    On a symmetric matrix this equals the pairwise rule of `sparsify`.
    Explicit zeros are removed; NaN entries are kept. The arrays of a CSR
    `raw` may be reused and modified in place, so pass a fresh result or a
    copy. The result's arrays hold exactly its nnz entries.
    """
    if tau < 0:
        raise ValueError("drop tolerance tau must be non-negative")
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


def check_symmetric(m: SparseMatrix, name: str) -> None:
    """Raise ValueError unless the stored matrix equals its transpose exactly."""
    if (m.csr != m.csr.T).nnz:
        raise ValueError(f"sparse {name} is not exactly symmetric")


def sparsify(x: np.ndarray, tau: float) -> SparseMatrix:
    """Threshold a dense symmetric matrix into sparse storage."""
    if tau < 0:
        raise ValueError("drop tolerance tau must be non-negative")
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    keep = np.maximum(np.abs(x), np.abs(x.T)) >= tau
    vals = np.where(keep, 0.5 * (x + x.T), 0.0)
    return SparseMatrix(_canonical(vals), tau)


def from_diagonals(diagonals, offsets, tau: float) -> SparseMatrix:
    """Threshold a symmetric banded matrix, given by its diagonals (those at
    offsets k and -k equal), into sparse storage without forming it densely.
    Equals `sparsify` of the dense matrix."""
    return threshold(sp.diags(diagonals, offsets, format="csr"), tau)


def sp_trace_product(a: SparseMatrix, b: SparseMatrix) -> float:
    """Tr[A B] for symmetric sparse matrices (elementwise contraction)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(a.csr.multiply(b.csr).sum())


def sp_gershgorin(x: SparseMatrix):
    """Gershgorin disc bounds on sparse storage."""
    from .linalg import SpectralBounds

    d = x.csr.diagonal()
    r = np.asarray(abs(x.csr).sum(axis=1)).ravel() - np.abs(d)
    return SpectralBounds(float(np.min(d - r)), float(np.max(d + r)))
