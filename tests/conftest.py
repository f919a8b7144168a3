import numpy as np
import pytest

from dmresponse.linalg import inverse_sqrt_factor, sym_eigendecompose, symmetrize, trace_product


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_symmetric(rng, n, scale=1.0):
    return symmetrize(rng.standard_normal((n, n)) * scale)


def one_ulp_asymmetric(x):
    """A copy of x whose (0, 1) entry is one ulp above its (1, 0) mirror."""
    y = np.array(x, dtype=np.float64)
    y[0, 1] = np.nextafter(y[0, 1], np.inf)
    return y


def projector_builder(n_occ):
    """Zero-T density matrix via the eigensolver, at fixed occupation count."""

    def build(h):
        eig = sym_eigendecompose(symmetrize(h))
        occ = np.zeros(h.shape[0])
        occ[:n_occ] = 1.0
        return (eig.vectors * occ) @ eig.vectors.T

    return build


def three_atom_chain(r):
    """Parametrized 3-atom model: overlap, Hamiltonian, and a position-weighted
    observable, all smooth in the atomic coordinates."""
    r = np.asarray(r, dtype=np.float64)
    n = 3
    s = np.eye(n)
    h = np.diag([-1.0, 0.0, 1.0])
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d = r[i] - r[j]
            if i != j:
                s[i, j] = 0.25 * np.exp(-(d * d))
                h[i, j] = -np.exp(-abs(d))
            a[i, j] = 0.5 * (r[i] + r[j]) * s[i, j]
    return s, h, a


def three_atom_chain_tau(r, k):
    """Analytic partial derivatives of the model w.r.t. coordinate k."""
    r = np.asarray(r, dtype=np.float64)
    n = 3
    s_tau = np.zeros((n, n))
    h_tau = np.zeros((n, n))
    a_tau = np.zeros((n, n))
    s, _, _ = three_atom_chain(r)
    for i in range(n):
        for j in range(n):
            d = r[i] - r[j]
            dd = (1.0 if i == k else 0.0) - (1.0 if j == k else 0.0)
            if i != j:
                s_tau[i, j] = 0.25 * np.exp(-(d * d)) * (-2.0 * d) * dd
                h_tau[i, j] = -np.exp(-abs(d)) * (-np.sign(d)) * dd
            drsum = 0.5 * ((1.0 if i == k else 0.0) + (1.0 if j == k else 0.0))
            a_tau[i, j] = drsum * s[i, j] + 0.5 * (r[i] + r[j]) * (s_tau[i, j] if i != j else 0.0)
    return s_tau, h_tau, a_tau


def chain_observable_value(r, n_occ):
    """a0(R) = Tr[A(R) D(R)] for the 3-atom model, fully recomputed."""
    s, h, a = three_atom_chain(r)
    z = inverse_sqrt_factor(s)
    d_perp = projector_builder(n_occ)(z.T @ h @ z)
    return trace_product(a, z @ d_perp @ z.T)
