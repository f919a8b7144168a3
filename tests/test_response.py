import warnings

import numpy as np
import pytest

from dmresponse import sp2
from dmresponse.linalg import (
    inverse_sqrt_factor,
    sym_eigendecompose,
    symmetrize,
    trace_product,
)
from dmresponse.models import chain_hamiltonian, gapped_random_hamiltonian
from dmresponse.oracles import finite_difference_response, projector_derivative_exact
from dmresponse.response import (
    dm_perturbation_forward,
    observable_position_derivative,
    orthogonal_hamiltonian_derivative,
    susceptibility_backward,
    susceptibility_forward,
    z_position_derivative,
)
from dmresponse.sp2 import Sp2Expansion, Sp2Trace
from dmresponse.sparse import SparseMatrix, sparsify

from conftest import (
    chain_observable_value,
    projector_builder,
    random_symmetric,
    three_atom_chain,
    three_atom_chain_tau,
)


class TestDmPerturbationForward:
    def test_commuting_perturbation_gives_zero(self):
        h0 = np.diag([0.0, 2.0])
        h1 = np.diag([0.3, 0.7])
        _, d1, _ = dm_perturbation_forward(h0, h1, 1)
        np.testing.assert_allclose(d1, np.zeros((2, 2)), atol=1e-12)

    def test_2x2_worked_case(self):
        h0 = np.diag([0.0, 2.0])
        h1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        _, d1, _ = dm_perturbation_forward(h0, h1, 1)
        np.testing.assert_allclose(d1, np.array([[0.0, -0.5], [-0.5, 0.0]]), atol=1e-10)

    def test_matches_finite_difference(self, rng):
        n, n_occ = 40, 20
        h0 = gapped_random_hamiltonian(n, 0.8, n_occ, seed=21)
        h1 = random_symmetric(rng, n)
        _, d1, _ = dm_perturbation_forward(h0, h1, n_occ)
        fd = finite_difference_response(projector_builder(n_occ), h0, h1, h=1e-5)
        assert np.linalg.norm(d1 - fd) <= 1e-5

    def test_linearity_in_direction(self, rng):
        n, n_occ = 20, 10
        h0 = gapped_random_hamiltonian(n, 1.0, n_occ, seed=22)
        u = random_symmetric(rng, n)
        v = random_symmetric(rng, n)
        _, du, tr = dm_perturbation_forward(h0, u, n_occ)
        _, dv, _ = dm_perturbation_forward(h0, v, n_occ, trace=tr)
        _, dw, _ = dm_perturbation_forward(h0, 2.0 * u - 3.0 * v, n_occ, trace=tr)
        combo = 2.0 * du - 3.0 * dv
        assert np.linalg.norm(dw - combo) <= 1e-10 * max(1.0, np.linalg.norm(dw))

    def test_a_plain_trace_gives_the_fresh_ground_state(self):
        n, n_occ = 24, 12
        h0 = gapped_random_hamiltonian(n, 0.9, n_occ, seed=23)
        d_ref, tr = sp2.sp2_ground_state(h0, n_occ)
        d0, _, tr2 = dm_perturbation_forward(h0, np.eye(n), n_occ, trace=tr)
        assert tr2.sigmas == tr.sigmas
        assert np.array_equal(d0, d_ref)

    def test_a_record_of_another_h0_is_not_read(self, rng):
        # two h0 with the same eigenvectors and spectra +/-[0.5, 1] and
        # +/-[0.5, 5]: the narrow one's bounds would map the wide spectrum
        # far outside [0, 1], where the recursion overflows
        n = 40
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))

        def spanning(top):
            band = np.linspace(0.5, top, n // 2)
            return symmetrize((q * np.concatenate([-band[::-1], band])) @ q.T)

        narrow, wide = spanning(1.0), spanning(5.0)
        h1 = random_symmetric(rng, n)
        _, _, record = dm_perturbation_forward(narrow, h1, n // 2)
        for route in (dm_perturbation_forward, susceptibility_forward):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                d0, d1, trace = route(wide, h1, n // 2, trace=record)
            fresh_d0, fresh_d1, fresh_trace = route(wide, h1, n // 2)
            assert trace == fresh_trace and trace.bounds != record.bounds
            assert d0.tobytes() == fresh_d0.tobytes() and d1.tobytes() == fresh_d1.tobytes()


class TestSusceptibilityForward:
    def test_commuting_observable_gives_zero(self):
        h0 = gapped_random_hamiltonian(12, 1.0, 6, seed=31)
        _, chi, _ = susceptibility_forward(h0, np.eye(12), 6)
        assert np.linalg.norm(chi) <= 1e-9 * 12
        # any polynomial of h0 commutes with it, so its susceptibility vanishes
        _, chi_p, _ = susceptibility_forward(h0, symmetrize(h0 @ h0 - 0.5 * h0), 6)
        assert np.linalg.norm(chi_p) <= 1e-8

    def test_2x2_worked_case(self):
        h0 = np.diag([0.0, 2.0])
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        _, chi, _ = susceptibility_forward(h0, a, 1)
        np.testing.assert_allclose(chi, np.array([[0.0, -0.5], [-0.5, 0.0]]), atol=1e-10)

    def test_duality_against_direct_route(self, rng):
        n, n_occ = 30, 15
        h0 = gapped_random_hamiltonian(n, 0.7, n_occ, seed=32)
        a = random_symmetric(rng, n)
        _, chi, tr = susceptibility_forward(h0, a, n_occ)
        for _ in range(5):
            h1 = random_symmetric(rng, n)
            _, d1, _ = dm_perturbation_forward(h0, h1, n_occ, trace=tr)
            direct = trace_product(a, d1)
            dual = trace_product(chi, h1)
            assert abs(direct - dual) <= 1e-10 * max(abs(direct), 1e-12)


class TestSusceptibilityBackward:
    def test_identity_observable_gives_zero(self):
        h0 = gapped_random_hamiltonian(14, 1.0, 7, seed=41)
        _, chi, _ = susceptibility_backward(h0, np.eye(14), 7)
        assert np.linalg.norm(chi) <= 1e-9 * 14

    def test_2x2_worked_case(self):
        h0 = np.diag([0.0, 2.0])
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        _, chi, _ = susceptibility_backward(h0, a, 1)
        np.testing.assert_allclose(chi, np.array([[0.0, -0.5], [-0.5, 0.0]]), atol=1e-10)

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_observable_checked_before_any_square(self, rng, monkeypatch, storage):
        h0, a, _, n_occ = _problem(storage, rng)
        squares = []
        for ops in (sp2._DenseOps, sp2._SparseOps):

            def square(self, x, _real=ops.square):
                squares.append(x)
                return _real(self, x)

            monkeypatch.setattr(ops, "square", square)
        if storage == "sparse":
            bad = SparseMatrix(a.csr.copy(), a.tau)
            bad.csr.data[0] = np.nan
        else:
            bad = a.copy()
            bad[3, 3] = np.nan
        with pytest.raises(ValueError, match="^a contains non-finite entries$"):
            susceptibility_backward(h0, bad, n_occ)
        assert squares == []
        # the spy counts the squares of a run that goes ahead: one per step
        # and the gate's
        _, _, expansion = susceptibility_backward(h0, a, n_occ)
        assert len(squares) == expansion.m_steps + 1

    def test_agrees_with_forward(self, rng):
        n, n_occ = 30, 14
        h0 = gapped_random_hamiltonian(n, 0.8, n_occ, seed=42)
        a = random_symmetric(rng, n)
        _, chi_f, _ = susceptibility_forward(h0, a, n_occ)
        _, chi_b, _ = susceptibility_backward(h0, a, n_occ)
        assert np.linalg.norm(chi_f - chi_b) <= 1e-9 * max(1.0, np.linalg.norm(chi_f))


def _bits(m):
    if isinstance(m, SparseMatrix):
        return [m.csr.indptr.tobytes(), m.csr.indices.tobytes(), m.csr.data.tobytes()]
    return [m.dtype.str, m.tobytes()]


def _problem(storage, rng):
    """(h0, a, h1, n_occ): a dense gapped_random problem, or a dimerized
    chain thresholded at tau = 1e-6 with banded A and H1."""
    if storage == "dense":
        n = 40
        h0 = gapped_random_hamiltonian(n, 1.0, n // 2, seed=51)
        return h0, random_symmetric(rng, n), random_symmetric(rng, n), n // 2
    n, tau = 120, 1e-6
    i, j = np.indices((n, n))

    def banded():
        x = random_symmetric(rng, n)
        x[np.abs(i - j) > 2] = 0.0
        return sparsify(x, tau)

    return sparsify(chain_hamiltonian(n, 1.0), tau), banded(), banded(), n // 2


@pytest.mark.parametrize("storage", ["dense", "sparse"])
class TestStoredExpansion:
    def test_forward_matches_fresh_and_replayed_runs(self, rng, storage):
        h0, a, h1, n_occ = _problem(storage, rng)
        d0_b, _, expansion = susceptibility_backward(h0, a, n_occ)
        d0, d1, trace = dm_perturbation_forward(h0, h1, n_occ)
        # a plain trace is not read: the run is fresh
        _, d1_plain, _ = dm_perturbation_forward(h0, h1, n_occ, trace=trace)
        d0_e, d1_e, trace_e = dm_perturbation_forward(h0, h1, n_occ, trace=expansion)
        # a forward run stores nothing; the backward run keeps every iterate
        assert type(trace) is Sp2Trace
        assert isinstance(expansion, Sp2Expansion) and trace_e is expansion
        assert len(expansion.iterates) == expansion.m_steps == trace.m_steps
        assert (expansion.sigmas, expansion.idempotency_log, expansion.bounds) == (
            trace.sigmas,
            trace.idempotency_log,
            trace.bounds,
        )
        assert _bits(d1_e) == _bits(d1) == _bits(d1_plain)
        assert _bits(d0_e) == _bits(d0_b) == _bits(d0)
        _, chi, _ = susceptibility_forward(h0, a, n_occ)
        _, chi_e, _ = susceptibility_forward(h0, a, n_occ, trace=expansion)
        assert _bits(chi_e) == _bits(chi)

    def test_backward_matches_backward_route(self, rng, storage):
        h0, a, h1, n_occ = _problem(storage, rng)
        _, chi_b, _ = susceptibility_backward(h0, a, n_occ)
        # an expansion stored by a fresh run
        _, _, expansion = sp2._expand(h0, n_occ, store=True)
        assert _bits(expansion.backward(a)) == _bits(chi_b)
        # using the expansion leaves it unchanged
        _, d1, _ = dm_perturbation_forward(h0, h1, n_occ)
        assert _bits(expansion.forward(h1)) == _bits(d1)
        assert _bits(expansion.backward(a)) == _bits(chi_b)

    def test_rejects_another_problem(self, rng, storage):
        h0, a, h1, n_occ = _problem(storage, rng)
        _, _, expansion = susceptibility_backward(h0, a, n_occ)
        with pytest.raises(ValueError, match=f"targets n_occ = {n_occ}, got {n_occ - 2}"):
            dm_perturbation_forward(h0, h1, n_occ - 2, trace=expansion)
        dense = h0.to_dense() if storage == "sparse" else h0

        def stored(x):
            return sparsify(x, h0.tau) if storage == "sparse" else x

        # one entry pair moved by a relative 1e-12 is another h0
        nudged = dense.copy()
        nudged[0, 1] = nudged[1, 0] = dense[0, 1] * (1.0 + 1e-12)
        for other in (nudged, 2.0 * dense):
            with pytest.raises(ValueError, match="built from another h0"):
                susceptibility_forward(stored(other), a, n_occ, trace=expansion)
        other_kind = dense if storage == "sparse" else sparsify(dense, 0.0)
        with pytest.raises(ValueError, match="same storage kind"):
            dm_perturbation_forward(other_kind, h1, n_occ, trace=expansion)
        with pytest.raises(ValueError, match="dimension mismatch"):
            dm_perturbation_forward(stored(dense[:-1, :-1]), h1, n_occ, trace=expansion)

    def test_rejects_seed_of_wrong_kind_or_dimension(self, rng, storage):
        h0, a, h1, n_occ = _problem(storage, rng)
        _, _, expansion = susceptibility_backward(h0, a, n_occ)
        if storage == "sparse":
            dense = h1.to_dense()
            other_kind, smaller = dense, sparsify(dense[:-1, :-1], h1.tau)
        else:
            other_kind, smaller = sparsify(h1, 0.0), h1[:-1, :-1]
        for route in (dm_perturbation_forward, susceptibility_forward):
            with pytest.raises(ValueError, match="^seed must be the same storage kind as h0"):
                route(h0, other_kind, n_occ, trace=expansion)
            with pytest.raises(ValueError, match="^dimension mismatch: h0 is .*, seed has shape"):
                route(h0, smaller, n_occ, trace=expansion)
        with pytest.raises(ValueError, match="^a must be the same storage kind as h0"):
            expansion.backward(other_kind)


class TestZPositionDerivative:
    def test_zero_motion(self):
        z = np.eye(3)
        out = z_position_derivative(np.eye(3), np.zeros((3, 3)), z)
        np.testing.assert_allclose(out, np.zeros((3, 3)), atol=0)

    def test_identity_overlap(self, rng):
        t = random_symmetric(rng, 5)
        out = z_position_derivative(np.eye(5), t, np.eye(5))
        np.testing.assert_allclose(out, -0.5 * t, atol=1e-14)

    def test_near_identity_overlap_matches_loewdin_fd(self, rng):
        # The closed form is gauge-exact only as S -> I; for the symmetric
        # factor it acquires a commutator-sized discrepancy, so the overlap
        # is kept close to the identity and the tolerance loose.
        n = 10
        eps = 1e-5
        e = random_symmetric(rng, n)
        s = np.eye(n) + eps * e
        s_tau = random_symmetric(rng, n)
        z = inverse_sqrt_factor(s)
        out = z_position_derivative(np.linalg.inv(s), s_tau, z)
        h = 1e-6
        fd = (inverse_sqrt_factor(s + h * s_tau) - inverse_sqrt_factor(s - h * s_tau)) / (2 * h)
        assert np.max(np.abs(out - fd)) <= 1e-4

    def test_dimension_mismatch_rejected(self):
        mismatch = r"^dimension mismatch: \(3, 3\) vs \(3, 3\) vs \(2, 2\)$"
        with pytest.raises(ValueError, match=mismatch):
            z_position_derivative(np.eye(3), np.zeros((3, 3)), np.eye(2))


class TestOrthogonalHamiltonianDerivative:
    def test_identity_frame(self, rng):
        h = random_symmetric(rng, 6)
        h_tau = random_symmetric(rng, 6)
        out = orthogonal_hamiltonian_derivative(h, h_tau, np.eye(6), np.zeros((6, 6)))
        np.testing.assert_allclose(out, h_tau, atol=1e-14)

    def test_pure_frame_motion(self, rng):
        h = random_symmetric(rng, 6)
        t = random_symmetric(rng, 6)
        out = orthogonal_hamiltonian_derivative(h, np.zeros((6, 6)), np.eye(6), -0.5 * t)
        np.testing.assert_allclose(out, -0.5 * (t @ h + h @ t), atol=1e-13)

    def test_matches_finite_difference_chain(self, rng):
        n = 8
        h0 = random_symmetric(rng, n)
        h_tau = random_symmetric(rng, n)
        z0 = np.eye(n) + 0.05 * random_symmetric(rng, n)
        z_tau = rng.standard_normal((n, n)) * 0.3
        out = orthogonal_hamiltonian_derivative(h0, h_tau, z0, z_tau)
        h = 1e-6
        def transformed(t):
            z = z0 + t * z_tau
            return z.T @ (h0 + t * h_tau) @ z
        fd = (transformed(h) - transformed(-h)) / (2 * h)
        assert np.max(np.abs(out - fd)) <= 1e-4

    def test_dimension_mismatch_rejected(self):
        eye, small = np.eye(4), np.eye(3)
        with pytest.raises(ValueError, match="^dimension mismatch between H, H_tau, Z, Z_tau$"):
            orthogonal_hamiltonian_derivative(eye, eye, eye, small)


class TestObservablePositionDerivative:
    def test_orthonormal_limit(self, rng):
        n = 5
        a = random_symmetric(rng, n)
        d = random_symmetric(rng, n)
        chi_perp = np.zeros((n, n))
        chi_perp[0, 1] = chi_perp[1, 0] = 1.0
        chi_perp[2, 2] = 2.0
        h_tau_perp = np.zeros((n, n))
        h_tau_perp[0, 1] = h_tau_perp[1, 0] = 0.25
        h_tau_perp[2, 2] = -0.125
        # Tr[chi h] = 2 * (1.0 * 0.25) + 2.0 * (-0.125) = 0.25
        out = observable_position_derivative(
            a, np.zeros((n, n)), d, np.eye(n), np.zeros((n, n)), chi_perp, h_tau_perp
        )
        assert np.isclose(out, 0.25)

    def test_all_derivatives_zero(self, rng):
        n = 4
        a = random_symmetric(rng, n)
        d = random_symmetric(rng, n)
        zero = np.zeros((n, n))
        out = observable_position_derivative(a, zero, d, np.eye(n), zero, zero, zero)
        assert out == 0.0

    def test_dimension_mismatch_rejected(self):
        eye, zero = np.eye(4), np.zeros((4, 4))
        mismatch = "^dimension mismatch among A, A_tau, D, S_inv, S_tau$"
        with pytest.raises(ValueError, match=mismatch):
            observable_position_derivative(eye, zero, np.eye(3), eye, zero, zero, zero)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_end_to_end_finite_difference(self, k):
        r0 = np.array([0.0, 1.1, 2.3])
        n_occ = 1
        s, h0, a = three_atom_chain(r0)
        s_tau, h_tau, a_tau = three_atom_chain_tau(r0, k)

        # analytic model derivatives cross-checked against the model itself
        hh = 1e-6
        for mat, tau in ((0, s_tau), (1, h_tau), (2, a_tau)):
            fd = (
                np.array(three_atom_chain(r0 + hh * np.eye(3)[k])[mat])
                - np.array(three_atom_chain(r0 - hh * np.eye(3)[k])[mat])
            ) / (2 * hh)
            assert np.max(np.abs(fd - tau)) < 1e-8

        z = inverse_sqrt_factor(s)
        s_inv = np.linalg.inv(s)
        h_perp = z.T @ h0 @ z
        a_perp = z.T @ a @ z
        d_perp = projector_builder(n_occ)(h_perp)
        d = z @ d_perp @ z.T

        _, chi_perp, _ = susceptibility_forward(symmetrize(h_perp), symmetrize(a_perp), n_occ)
        z_tau = z_position_derivative(s_inv, s_tau, z)
        h_tau_perp = orthogonal_hamiltonian_derivative(h0, h_tau, z, z_tau)
        total = observable_position_derivative(
            a, a_tau, d, s_inv, s_tau, chi_perp=chi_perp, h_tau_perp=h_tau_perp
        )

        h = 1e-5
        ek = np.eye(3)[k]
        fd_total = (
            chain_observable_value(r0 + h * ek, n_occ) - chain_observable_value(r0 - h * ek, n_occ)
        ) / (2 * h)
        assert abs(total - fd_total) <= 1e-6


def test_exact_projector_derivative_cross_checks(rng):
    n, n_occ = 40, 20
    h0 = gapped_random_hamiltonian(n, 0.9, n_occ, seed=61)
    direction = random_symmetric(rng, n)
    eig = sym_eigendecompose(h0)
    mu = 0.5 * (eig.values[n_occ - 1] + eig.values[n_occ])
    exact = projector_derivative_exact(eig, direction, mu)
    _, d1, _ = dm_perturbation_forward(h0, direction, n_occ)
    fd = finite_difference_response(projector_builder(n_occ), h0, direction, h=1e-5)
    assert np.linalg.norm(exact - fd) <= 1e-6
    assert np.linalg.norm(d1 - exact) <= 1e-7
