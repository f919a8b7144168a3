"""Dense symmetric matrix algebra.

Storage is plain float64 ``numpy`` arrays kept logically symmetric. The one
eigensolver is LAPACK's symmetric ``eigh``: deterministic for a given input,
and its eigenvectors are orthonormal to near machine precision
(||V^T V - I||_F about 3e-14 at n = 200), which every eigenbasis-based check
in the test suite leans on. `gershgorin_bounds` also takes CSR storage, so
the dense and sparse SP2 kernels share one spectral bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Constructors repair asymmetry below this (relative to ||X||_F) silently;
# anything larger is treated as corrupt input, not rounding noise.
ASYMMETRY_RTOL = 1e-8

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


def symmetric_matrix(data) -> np.ndarray:
    """Validate and symmetrize user-supplied matrix data.

    Returns X/2 + X^T/2 (halved first, so it cannot overflow) as a fresh
    float64 array. Asymmetry above ``ASYMMETRY_RTOL * ||X||_F``, measured on
    X / max|X_ij| for the same reason, is rejected rather than repaired,
    since that points at corrupt input instead of file-format rounding noise.
    """
    x = np.array(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix contains non-finite entries")
    peak = float(np.max(np.abs(x)))
    unit = x / peak if peak > 0.0 else x
    norm = float(np.linalg.norm(unit))
    asym = float(np.linalg.norm(unit - unit.T))
    if asym > ASYMMETRY_RTOL * norm:
        raise ValueError(
            f"matrix is not symmetric: ||X - X^T||_F / ||X||_F = {asym / norm:.3e} "
            f"exceeds {ASYMMETRY_RTOL:g}"
        )
    half = 0.5 * x
    return half + half.T


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


def congruence_transform(x: np.ndarray, z: np.ndarray, direction: str) -> np.ndarray:
    """Map operators and densities between overlapping and orthonormal bases.

    direction:
      * ``to_orthogonal``           -> Z^T X Z    (operators H, A)
      * ``density_from_orthogonal`` -> Z X Z^T    (densities, susceptibilities)
    """
    if x.shape != z.shape or x.shape[0] != x.shape[1]:
        raise ValueError(f"dimension mismatch: X {x.shape} vs Z {z.shape}")
    if direction == "to_orthogonal":
        y = z.T @ x @ z
    elif direction == "density_from_orthogonal":
        y = z @ x @ z.T
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
    r = np.asarray(abs(x).sum(axis=1)).ravel() - np.abs(d)
    return SpectralBounds(float(np.min(d - r)), float(np.max(d + r)))
