"""Finite-temperature density matrices and canonical susceptibilities.

Fractional occupations are handled by evaluating the Fermi function, and its
exact directional derivatives, in a diagonal eigenbasis. The derivative of a
matrix function along a direction is the eigenbasis Hadamard product with the
divided-difference (Loewner) matrix; the chemical-potential response mu1 is
solved in closed form so that every susceptibility is exactly trace neutral.

The chemical potential mu0 is the root of the occupation error, found by
`scipy.optimize.brentq` to float64's resolution. The Fermi function's divided
differences take the closed form
(f(a) - f(b)) / (a - b) = -beta_t f(a) (1 - f(b)) exprel(beta_t (a - b)),
a <= b, with `scipy.special.exprel`; no pair of eigenvalues is too close for
it, and its diagonal is f'. The hole occupation 1 - f is its own logistic,
expit(+beta_t (eps - mu)), never 1 minus f: for an occupied state that
subtraction leaves only f's rounding error.

One diagonalization serves every response about a density: the frozen
`FermiGroundState` holds D0, the eigenbasis, mu0 and beta_t, and
differentiates D0 along any seed. It is also the inner ground state of the
finite-temperature self-consistent route (see `scf`).

This route requires a diagonalization, so it does not scale to large sparse
problems; at desk scale it doubles as the oracle for the recursive zero-T
expansions.

Every matrix a caller hands in, h and the direction of a `canonical_*`
response, must pass `linalg.symmetric_matrix` (square, finite and exactly
symmetric; kept as given, never averaged); ValueError otherwise, naming
the operand: h, h1 or a.
`FermiGroundState.derivative` takes its seed as given: the self-consistent
route builds each one exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit, exprel

from .linalg import EigenDecomposition, sym_eigendecompose, symmetric_matrix, symmetrize

# Relative eigenvalue-spacing below which `loewner_matrix` switches to the
# midpoint derivative (avoids catastrophic cancellation).
DEGENERACY_DELTA = 1e-8


def fermi_function(eps, beta_t: float, mu: float):
    """Occupation 1 / (exp(beta_t (eps - mu)) + 1), overflow-safe."""
    return expit(-beta_t * (np.asarray(eps, dtype=np.float64) - mu))


def _solve_mu(values: np.ndarray, beta_t: float, n_occ: float) -> float:
    """The chemical potential at which the total occupation is n_occ, by
    brentq on a bracket 10 / beta_t outside the spectrum, resolved to
    float64's eps."""
    from scipy.optimize import brentq  # only the Fermi route pays for loading the root finder

    lo = float(values[0]) - 10.0 / beta_t
    hi = float(values[-1]) + 10.0 / beta_t

    def occupation(mu):
        return float(np.sum(fermi_function(values, beta_t, mu))) - n_occ

    if occupation(lo) > 0.0 or occupation(hi) < 0.0:
        raise ValueError(
            f"no chemical potential bracketed in [{lo:.6g}, {hi:.6g}] for "
            f"occupation target {n_occ}"
        )
    eps = float(np.finfo(np.float64).eps)
    return brentq(occupation, lo, hi, xtol=eps * max(abs(lo), abs(hi)), rtol=4.0 * eps)


def fermi_matrix_and_mu(h: np.ndarray, beta_t: float, n_occ: float):
    """Fermi-smeared density matrix with the chemical potential solved so
    that Tr[D] = n_occ.

    Returns (d, mu0); d is symmetric with eigenvalues in (0, 1).
    """
    ground = _fermi_eigenbasis(h, beta_t, n_occ)
    return ground.d0, ground.mu0


@dataclass(frozen=True)
class FermiGroundState:
    """Fermi-smeared density matrix D0 of h at fixed occupation, frozen with
    the eigenbasis of h, the chemical potential mu0 and the inverse
    temperature beta_t that every response about D0 is differentiated
    from."""

    d0: np.ndarray
    eig: EigenDecomposition
    mu0: float
    beta_t: float

    def derivative(self, seed: np.ndarray):
        """Trace-neutral derivative of D0 along a Hamiltonian perturbation
        or an observable, with its chemical-potential response: (d1, mu1)
        (see :func:`trace_neutral_derivative`)."""
        return trace_neutral_derivative(self.eig, seed, self.beta_t, self.mu0)

    def forward(self, seed: np.ndarray) -> np.ndarray:
        """The derivative alone, without mu1."""
        return self.derivative(seed)[0]


def _fermi_eigenbasis(h: np.ndarray, beta_t: float, n_occ: float) -> FermiGroundState:
    """Check h with `linalg.symmetric_matrix`, eigendecompose it, solve mu0
    so that Tr[D] = n_occ, and build the Fermi-smeared D in that eigenbasis,
    frozen as a FermiGroundState."""
    if not 0.0 < beta_t < math.inf:
        raise ValueError(f"inverse temperature beta_t must be finite and positive, got {beta_t}")
    h = symmetric_matrix(h, "h")
    n = h.shape[0]
    if not 0.0 < n_occ < n:
        raise ValueError(f"n_occ must lie in (0, {n}), got {n_occ}")
    eig = sym_eigendecompose(h)
    mu0 = _solve_mu(eig.values, beta_t, n_occ)
    occ = fermi_function(eig.values, beta_t, mu0)
    d = (eig.vectors * occ) @ eig.vectors.T
    return FermiGroundState(symmetrize(d), eig, mu0, beta_t)


def loewner_matrix(values: np.ndarray, f: Callable, fprime: Callable) -> np.ndarray:
    """Divided-difference matrix of f over an eigenvalue list.

    L_ij = (f(li) - f(lj)) / (li - lj) wherever the spacing exceeds
    DEGENERACY_DELTA * max(1, |li|, |lj|); nearly degenerate pairs (and the
    diagonal) use f' at the midpoint. f and fprime must accept arrays.
    """
    lam = np.asarray(values, dtype=np.float64)
    li = lam[:, None]
    lj = lam[None, :]
    diff = li - lj
    scale = np.maximum(1.0, np.maximum(np.abs(li), np.abs(lj)))
    near = np.abs(diff) <= DEGENERACY_DELTA * scale
    fv = np.asarray(f(lam), dtype=np.float64)
    num = fv[:, None] - fv[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = num / np.where(near, 1.0, diff)
    mid = np.asarray(fprime(0.5 * (li + lj)), dtype=np.float64)
    return np.where(near, mid, quotient)


def trace_neutral_derivative(
    eig: EigenDecomposition, direction: np.ndarray, beta_t: float, mu0: float
):
    """Fermi-function derivative along (direction - mu1 * I), with mu1 solved
    in closed form so the result is traceless.

    The divided differences over the ascending eigenvalues are
    (f(a) - f(b)) / (a - b) = -beta_t f(a) (1 - f(b)) exprel(beta_t (a - b))
    for a <= b: exprel's argument is never positive, so nothing overflows,
    and equal or nearly equal eigenvalues need no switch. 1 - f is
    expit(+beta_t (eps - mu0)), not 1 minus f, which would keep only f's
    rounding error for an occupied state. The diagonal is f', and it serves
    both mu1 and the identity response.

    By linearity of the derivative in its direction,
    mu1 = Tr[deriv(direction)] / Tr[deriv(I)]; the denominator is the sum of
    f' over the spectrum. Raises when that sum underflows to zero, which
    signals an ill-posed chemical-potential response.

    Returns (deriv, mu1).
    """
    lam = eig.values
    # f(a) (1 - f(b)) with a the lower eigenvalue of each pair
    pairs = np.triu(np.outer(fermi_function(lam, beta_t, mu0), expit(beta_t * (lam - mu0))))
    spacing = np.abs(np.subtract.outer(lam, lam))
    ell = -beta_t * (pairs + np.triu(pairs, 1).T) * exprel(-beta_t * spacing)
    fp = np.diagonal(ell)
    w = eig.vectors.T @ direction @ eig.vectors
    r_dir = eig.vectors @ (ell * w) @ eig.vectors.T
    tr_dir = float(np.sum(fp * np.diagonal(w)))
    tr_ident = float(np.sum(fp))
    if tr_ident == 0.0:
        raise ValueError(
            "Tr[d f / d mu] vanished: the chemical-potential response is "
            "ill-posed at this temperature"
        )
    mu1 = tr_dir / tr_ident
    r_ident = (eig.vectors * fp) @ eig.vectors.T
    return symmetrize(r_dir - mu1 * r_ident), mu1


def canonical_susceptibility(h: np.ndarray, a: np.ndarray, beta_t: float, n_occ: float):
    """Finite-temperature susceptibility of an observable at fixed occupation.

    The chemical-potential response makes the result exactly trace neutral:
    contracting with any Hamiltonian perturbation gives the canonical-ensemble
    response of <A>.

    Returns (chi, mu1).
    """
    return _fermi_eigenbasis(h, beta_t, n_occ).derivative(symmetric_matrix(a, "a"))


def canonical_dm_response(h: np.ndarray, h1: np.ndarray, beta_t: float, n_occ: float):
    """Finite-temperature density response to a Hamiltonian perturbation at
    fixed occupation (the dual of :func:`canonical_susceptibility`).

    Returns (d1, mu1).
    """
    return _fermi_eigenbasis(h, beta_t, n_occ).derivative(symmetric_matrix(h1, "h1"))
