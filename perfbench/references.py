"""Independent references for the benchmark's correctness checks.

Everything here is computed with numpy and scipy directly: LAPACK `eigh`
(plain or generalized), first-order perturbation theory in the eigenbasis,
and `eigvalsh_tridiagonal` for the chain. Nothing calls into dmresponse, so
a defect in the program cannot hide in its own reference.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import brentq
from scipy.special import expit


def _step_response(values, vectors, a, h1, n_occ):
    """(a0, a1) for the zero-temperature projector onto the n_occ lowest
    states of an orthonormal (vectors^T vectors = I) or S-orthonormal
    eigenbasis: a0 = Tr[A D0], a1 = Tr[A D1] with
    D1 = sum_{i occ, v virt} (|i><v| + |v><i|) <i|H1|v> / (e_i - e_v)."""
    v_o, v_v = vectors[:, :n_occ], vectors[:, n_occ:]
    a0 = float(np.sum(v_o * (a @ v_o)))
    a_ov = v_o.T @ a @ v_v
    h_ov = v_o.T @ h1 @ v_v
    denom = values[:n_occ, None] - values[None, n_occ:]
    return a0, float(2.0 * np.sum(a_ov * h_ov / denom))


def zero_temperature(h0, a, h1, n_occ):
    """(a0, a1) of the ground-state projector of h0, from LAPACK eigh."""
    values, vectors = np.linalg.eigh(h0)
    return _step_response(values, vectors, a, h1, n_occ)


def generalized(h, s, a, h1, n_occ):
    """(a0, a1) in a non-orthogonal basis, from the generalized eigh(H, S).

    Equals the values the program computes after orthogonalizing with any
    inverse factor Z: Tr[Z^T A Z dP] = Tr[A Z dP Z^T]."""
    values, vectors = scipy.linalg.eigh(h, s)
    return _step_response(values, vectors, a, h1, n_occ)


def canonical(h, a, h1, beta_t, n_occ):
    """(a0, a1) of the Fermi-smeared density at fixed occupation n_occ,
    including the chemical-potential response that keeps Tr[D1] = 0."""
    values, vectors = np.linalg.eigh(h)
    pad = 40.0 / beta_t
    mu = brentq(
        lambda m: float(np.sum(expit(-beta_t * (values - m)))) - n_occ,
        values[0] - pad,
        values[-1] + pad,
        xtol=1e-15,
    )
    f = expit(-beta_t * (values - mu))
    fp = -beta_t * f * (1.0 - f)
    gap = values[:, None] - values[None, :]
    np.fill_diagonal(gap, 1.0)
    loewner = (f[:, None] - f[None, :]) / gap
    np.fill_diagonal(loewner, fp)
    a_e = vectors.T @ a @ vectors
    h_e = vectors.T @ h1 @ vectors
    mu1 = float(np.sum(fp * np.diagonal(h_e)) / np.sum(fp))
    a1 = float(np.sum(loewner * a_e * h_e)) - mu1 * float(np.sum(fp * np.diagonal(a_e)))
    return float(np.sum(f * np.diagonal(a_e))), a1


def band_energy(onsite, hopping, n_occ):
    """Sum of the n_occ lowest eigenvalues of a symmetric tridiagonal matrix."""
    values = scipy.linalg.eigvalsh_tridiagonal(onsite, hopping, lapack_driver="sterf")
    return float(np.sum(np.sort(values)[:n_occ]))
