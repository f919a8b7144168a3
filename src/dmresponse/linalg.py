"""Dense symmetric matrix algebra.

Storage is plain float64 ``numpy`` arrays kept logically symmetric.
`check_symmetric` is the one rule for a dense matrix that a caller hands
in (square, non-empty, finite and exactly symmetric, checked in place);
`symmetric_matrix` applies it to a fresh copy, and the SP2 kernels to the
operand as given. `symmetrize` repairs round-off only on results whose
exact value is symmetric. The one eigensolver is LAPACK's symmetric
``eigh``: deterministic for a given input, and its eigenvectors are
orthonormal to near machine precision (||V^T V - I||_F about 3e-14 at
n = 200), which every eigenbasis-based check in the test suite leans on.
`gershgorin_bounds` also takes CSR storage: it is the sparse SP2 kernel's
spectral bound, and the interval the dense kernels narrow with the
values-only form of the same solver (``eigvalsh``, see
`sp2._DenseOps.bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Positive definiteness: smallest eigenvalue must exceed this fraction of the
# largest one.
SPD_RTOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending and orthonormal eigenvectors as columns; within a
    degenerate eigenvalue the basis is any orthonormal one."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SpectralBounds:
    """Interval guaranteed to enclose the spectrum of a symmetric matrix."""

    eps_min: float
    eps_max: float

    @property
    def width(self) -> float:
        return self.eps_max - self.eps_min


def check_symmetric(x: np.ndarray, name: str = "matrix") -> np.ndarray:
    """The one rule for a dense matrix that a caller hands in, applied in
    place: return x once it is square, non-empty, finite and exactly
    symmetric (X == X^T entry by entry); raise ValueError naming the operand
    otherwise.

    Nothing is copied and nothing is averaged: an asymmetry of one ulp
    points at input that the response duality does not hold for, not at
    noise to repair. The SP2 kernels apply it to every dense operand as
    given (see `sp2._DenseOps.check`).
    """
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square {name}, got shape {x.shape}")
    if x.shape[0] < 1:
        raise ValueError(f"{name} dimension must be at least 1")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite entries")
    if not np.array_equal(x, x.T):
        raise ValueError(f"{name} is not exactly symmetric")
    return x


def symmetric_matrix(data, name: str = "matrix") -> np.ndarray:
    """A fresh C-ordered float64 copy of `data`, every bit kept, once it
    passes `check_symmetric`; the ValueError names the operand `name`. C
    order keeps BLAS sums over the result the same whatever layout `data`
    had.
    """
    return check_symmetric(np.array(data, dtype=np.float64, order="C"), name)


def symmetrize(x: np.ndarray) -> np.ndarray:
    """(X + X^T)/2 without validation, for repairing round-off on results
    whose exact value is symmetric."""
    return 0.5 * (x + x.T)


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Tr[A B] for general square matrices."""
    return float(np.einsum("ij,ji->", a, b))


def sym_eigendecompose(x: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Parameters
    ----------
    x : symmetric float64 array; only its lower triangle is read.

    Returns
    -------
    EigenDecomposition with eigenvalues ascending and V columns orthonormal,
    satisfying ``V diag(w) V^T == x`` to round-off. Deterministic: identical
    input yields bit-identical output.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    values, vectors = np.linalg.eigh(a)
    return EigenDecomposition(values=values, vectors=vectors)


def inverse_sqrt_factor(s: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root Z of an SPD matrix, with Z^T S Z = I.

    Raises ValueError reporting the offending eigenvalue when S is not
    positive definite to within SPD_RTOL of its largest eigenvalue.
    """
    eig = sym_eigendecompose(s)
    lmin = float(eig.values[0])
    lmax = float(eig.values[-1])
    if lmin <= SPD_RTOL * max(lmax, 0.0):
        raise ValueError(
            f"matrix is not positive definite: smallest eigenvalue {lmin:.6e} "
            f"(largest {lmax:.6e})"
        )
    z = (eig.vectors / np.sqrt(eig.values)) @ eig.vectors.T
    return symmetrize(z)


_CONGRUENCE_DIRECTIONS = ("to_orthogonal", "density_from_orthogonal")


def congruence_transform(x: np.ndarray, z: np.ndarray | None, direction: str) -> np.ndarray:
    """Map operators and densities between overlapping and orthonormal bases.

    direction:
      * ``to_orthogonal``           -> Z^T X Z    (operators H, A)
      * ``density_from_orthogonal`` -> Z X Z^T    (densities, susceptibilities)

    z None means X is already in the orthonormal basis: no product is made
    and X is only symmetrized, the round-off repair that ends either map.
    """
    if z is not None and (x.shape != z.shape or x.shape[0] != x.shape[1]):
        raise ValueError(f"dimension mismatch: X {x.shape} vs Z {z.shape}")
    if direction == "to_orthogonal":
        y = x if z is None else z.T @ x @ z
    elif direction == "density_from_orthogonal":
        y = x if z is None else z @ x @ z.T
    else:
        raise ValueError(
            f"unknown direction {direction!r}; expected one of {_CONGRUENCE_DIRECTIONS}"
        )
    return symmetrize(y)


def gershgorin_bounds(x) -> SpectralBounds:
    """Disc bounds enclosing the spectrum: eps_min = min_i (x_ii - r_i),
    eps_max = max_i (x_ii + r_i) with r_i the off-diagonal row radius.
    x is a dense array or a scipy sparse matrix."""
    d = x.diagonal()
    # a bound beyond the float64 range is inf, which the SP2 set-up reports
    # by name, not as a warning
    with np.errstate(over="ignore"):
        r = np.asarray(abs(x).sum(axis=1)).ravel() - np.abs(d)
        return SpectralBounds(float(np.min(d - r)), float(np.max(d + r)))
