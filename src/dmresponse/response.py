"""Linear response of the density matrix and observable susceptibilities.

The ground-state recursion of :mod:`dmresponse.sp2` is differentiated along a
chosen symmetric direction. Three equivalent routes are provided, each one
run of the expansion engine `sp2._expand`, which checks the operands and
gates every fresh run:

* forward density-matrix perturbation: seed with the Hamiltonian perturbation,
  evolve the derivative alongside the ground-state iterate (no stored
  sequence);
* forward susceptibility: the same recursion seeded with the observable,
  yielding the matrix that contracts with any Hamiltonian perturbation;
* backward susceptibility: reverse-mode differentiation of the expectation
  value, which requires the stored iterate sequence.

The backward route returns its stored run as an `sp2.Sp2Expansion`. Passed
to either forward route as `trace`, it serves that route's seed by pair
updates over the stored iterates, with no square and no second ground-state
run: one stored expansion serves every seed, at the backward route's
m_steps * N^2 floats for as long as the caller keeps it.

Also here: the position-derivative assembly for non-orthogonal (overlap)
representations, including the inverse-factor derivative and the
transformed-Hamiltonian derivative it feeds.
"""

from __future__ import annotations

import numpy as np

from .linalg import symmetrize, trace_product
from .sp2 import Sp2Expansion, Sp2Trace, _expand, _ops_for


def dm_perturbation_forward(h0, h1, n_occ, trace: Sp2Trace | None = None):
    """First-order density-matrix response to a Hamiltonian perturbation.

    Runs the merged recursion: the ground-state iterate is generated on the
    fly (never stored as a sequence) while its directional derivative along
    h1 evolves next to it, sharing every branch choice. A plain `trace`
    (Sp2Trace), the record of an earlier run, lends its spectral bounds, so
    none are computed; the branches and the stop step are derived as in a
    fresh run. A run that reproduces the record bit for bit (the same h0
    and n_occ) is not gated again; any other run is gated like a fresh one.
    An Sp2Expansion (see :func:`susceptibility_backward`) is not run again:
    its stored iterates give d1 by pair updates alone, once h0 and n_occ
    are checked against it (ValueError for an expansion of another
    problem).

    Returns (d0, d1, trace).
    """
    if isinstance(trace, Sp2Expansion):
        trace.check_source(h0, n_occ)
        return trace.d0, trace.forward(h1), trace
    return _expand(h0, n_occ, y_seed=h1, record=trace)


def susceptibility_forward(h0, a, n_occ, trace: Sp2Trace | None = None):
    """Susceptibility of an observable by the forward expansion.

    Identical recursion to :func:`dm_perturbation_forward` with the
    observable in the seed position; the result contracts with any
    Hamiltonian perturbation to give the response of <A>.

    Returns (d0, chi, trace).
    """
    return dm_perturbation_forward(h0, a, n_occ, trace=trace)


def susceptibility_backward(h0, a, n_occ):
    """Susceptibility by reverse-mode differentiation of Tr[A D0].

    Mathematically equal to the forward route, but requires the full stored
    iterate sequence (m_steps matrices; for an N x N dense run the peak
    storage is m_steps * N^2 floats, recoverable from the returned trace).
    The derivative-scale factor is applied to the result rather than the
    seed. A is checked by the run's kernel before the expansion runs.

    Returns (d0, chi, expansion): the returned Sp2Expansion holds the stored
    iterates, and passed as `trace` to either forward route it serves that
    route's seed without a second ground-state run.
    """
    ops = _ops_for(h0)
    ops.check(a, "a")
    _, _, expansion = _expand(h0, n_occ, store=True, ops=ops)
    return expansion.d0, expansion.backward(a), expansion


def z_position_derivative(s_inv: np.ndarray, s_tau: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Derivative of the inverse overlap factor: -(1/2) S^-1 S_tau Z.

    Exact in the factorization gauge where Z(R) is propagated by this very
    relation; for the symmetric (Loewdin) factor it agrees with the true
    derivative only up to a commutator term, which vanishes as S approaches
    the identity. The result is generally non-symmetric and is returned as
    is.
    """
    if not (s_inv.shape == s_tau.shape == z.shape):
        raise ValueError(
            f"dimension mismatch: {s_inv.shape} vs {s_tau.shape} vs {z.shape}"
        )
    return -0.5 * s_inv @ s_tau @ z


def orthogonal_hamiltonian_derivative(
    h: np.ndarray, h_tau: np.ndarray, z: np.ndarray, z_tau: np.ndarray
) -> np.ndarray:
    """Position derivative of the orthonormal-basis Hamiltonian Z^T H Z.

    Chain rule over the congruence: Z_tau^T H Z + Z^T H_tau Z + Z^T H Z_tau,
    symmetrized (the exact result is symmetric).
    """
    if not (h.shape == h_tau.shape == z.shape == z_tau.shape):
        raise ValueError("dimension mismatch between H, H_tau, Z, Z_tau")
    out = z_tau.T @ h @ z + z.T @ h_tau @ z + z.T @ h @ z_tau
    return symmetrize(out)


def observable_position_derivative(
    a: np.ndarray,
    a_tau: np.ndarray,
    d: np.ndarray,
    s_inv: np.ndarray,
    s_tau: np.ndarray,
    chi_perp: np.ndarray,
    h_tau_perp: np.ndarray,
) -> float:
    """Position derivative of <A> in a non-orthogonal representation.

    Four contributions: the observable's own position dependence Tr[A_tau D],
    the density response term Tr[A_perp D_perp_tau], and two overlap (Pulay
    style) terms -(1/2) Tr[A S^-1 S_tau D] - (1/2) Tr[A D S_tau S^-1].

    The density response term is contracted as Tr[chi_perp h_tau_perp],
    so one converged chi_perp serves every atomic displacement.
    """
    shapes = {a.shape, a_tau.shape, d.shape, s_inv.shape, s_tau.shape}
    if len(shapes) != 1:
        raise ValueError("dimension mismatch among A, A_tau, D, S_inv, S_tau")
    pulay = -0.5 * trace_product(a @ s_inv @ s_tau, d) - 0.5 * trace_product(
        a @ d @ s_tau, s_inv
    )
    return trace_product(a_tau, d) + trace_product(chi_perp, h_tau_perp) + pulay
