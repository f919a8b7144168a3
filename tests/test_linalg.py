import numpy as np
import pytest

from dmresponse.linalg import (
    congruence_transform,
    gershgorin_bounds,
    inverse_sqrt_factor,
    sym_eigendecompose,
    symmetric_matrix,
    symmetrize,
    trace_product,
)

from conftest import random_symmetric


class TestSymmetricMatrix:
    def test_rejects_small_noise(self):
        # any asymmetry is rejected, however small; nothing is averaged
        x = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
        with pytest.raises(ValueError, match="not exactly symmetric"):
            symmetric_matrix(x)
        x[1, 0] = np.nextafter(2.0, 3.0)
        with pytest.raises(ValueError, match="not exactly symmetric"):
            symmetric_matrix(x)

    def test_rejects_large_asymmetry(self):
        x = np.array([[1.0, 2.0], [0.0, 3.0]])
        with pytest.raises(ValueError, match="not exactly symmetric"):
            symmetric_matrix(x)

    def test_entries_near_the_float64_limit_stay_finite(self):
        x = np.array([[1.0, 1.5e308], [1.5e308, 1.0]])
        assert np.array_equal(symmetric_matrix(x), x)
        # the asymmetry test itself must not overflow into a pass
        with pytest.raises(ValueError, match="not exactly symmetric"):
            symmetric_matrix(np.array([[0.0, 1.5e308], [-1.5e308, 0.0]]))

    def test_symmetric_input_kept_bit_for_bit(self):
        # halving would send an odd multiple of the smallest subnormal to 0
        x = np.array([[-0.0, 5e-324], [5e-324, 0.1]])
        y = symmetric_matrix(x)
        assert y.tobytes() == x.tobytes()
        assert y is not x and not np.shares_memory(y, x)

    def test_returns_c_order_for_fortran_input(self, rng):
        x = np.asfortranarray(random_symmetric(rng, 6))
        y = symmetric_matrix(x)
        assert y.flags.c_contiguous
        assert np.array_equal(y, x)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            symmetric_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            symmetric_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestEigendecompose:
    def test_diagonal_input(self):
        eig = sym_eigendecompose(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(eig.values, [1.0, 2.0, 3.0], atol=1e-14)
        # Eigenvectors of a diagonal matrix are identity columns, permuted.
        np.testing.assert_allclose(np.abs(eig.vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_2x2_closed_form(self):
        eig = sym_eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(eig.values, [-1.0, 1.0], atol=1e-15)
        r = 1.0 / np.sqrt(2.0)
        for col, ref in [(0, np.array([r, -r])), (1, np.array([r, r]))]:
            v = eig.vectors[:, col]
            assert min(np.abs(v - ref).max(), np.abs(v + ref).max()) < 1e-14

    @pytest.mark.parametrize("n", [50, 200])
    def test_random_reconstruction(self, rng, n):
        x = random_symmetric(rng, n)
        eig = sym_eigendecompose(x)
        rec = (eig.vectors * eig.values) @ eig.vectors.T
        assert np.linalg.norm(rec - x) <= 1e-9 * np.linalg.norm(x)
        assert np.linalg.norm(eig.vectors.T @ eig.vectors - np.eye(n)) <= 1e-10 * n
        assert np.all(np.diff(eig.values) >= 0)

    def test_deterministic(self, rng):
        x = random_symmetric(rng, 20)
        e1 = sym_eigendecompose(x)
        e2 = sym_eigendecompose(x)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError, match="square"):
            sym_eigendecompose(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            sym_eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestInverseSqrtFactor:
    def test_identity(self):
        np.testing.assert_allclose(inverse_sqrt_factor(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        z = inverse_sqrt_factor(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(z, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_random_spd_congruence(self, rng):
        n = 30
        s = np.eye(n) + 0.3 * random_symmetric(rng, n, scale=1.0 / np.sqrt(n))
        z = inverse_sqrt_factor(s)
        assert np.linalg.norm(z.T @ s @ z - np.eye(n)) <= 1e-9 * n
        assert np.array_equal(z, z.T)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive definite"):
            inverse_sqrt_factor(np.diag([1.0, -0.5]))

    def test_high_condition_number(self, rng):
        # condition number 1e6: the congruence identity must still hold
        n = 20
        q = sym_eigendecompose(random_symmetric(rng, n)).vectors
        lam = np.logspace(-6, 0, n)
        s = (q * lam) @ q.T
        z = inverse_sqrt_factor(symmetrize(s))
        assert np.linalg.norm(z.T @ s @ z - np.eye(n)) <= 1e-9 * n


class TestCongruenceTransform:
    def test_identity_z_all_directions(self, rng):
        x = random_symmetric(rng, 6)
        z = np.eye(6)
        for d in ("to_orthogonal", "density_from_orthogonal"):
            np.testing.assert_allclose(congruence_transform(x, z, d), x, atol=1e-12)

    def test_diagonal_example(self):
        z = np.diag([0.5, 1.0 / 3.0])
        y = congruence_transform(np.eye(2), z, "to_orthogonal")
        np.testing.assert_allclose(y, np.diag([0.25, 1.0 / 9.0]), atol=1e-15)

    def test_expectation_invariance(self, rng):
        n = 20
        a = random_symmetric(rng, n)
        d_perp = random_symmetric(rng, n)
        s = np.eye(n) + 0.2 * random_symmetric(rng, n, scale=1.0 / np.sqrt(n))
        z = inverse_sqrt_factor(s)
        d = congruence_transform(d_perp, z, "density_from_orthogonal")
        a_perp = congruence_transform(a, z, "to_orthogonal")
        lhs = trace_product(a, d)
        rhs = trace_product(a_perp, d_perp)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            congruence_transform(np.eye(3), np.eye(2), "to_orthogonal")

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="unknown direction"):
            congruence_transform(np.eye(2), np.eye(2), "sideways")


class TestGershgorinBounds:
    def test_diagonal(self):
        b = gershgorin_bounds(np.diag([4.0, -1.0, 2.0]))
        assert b.eps_min == -1.0 and b.eps_max == 4.0

    def test_2x2_offdiagonal(self):
        b = gershgorin_bounds(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert b.eps_min == -1.0 and b.eps_max == 1.0

    def test_encloses_spectrum(self, rng):
        x = random_symmetric(rng, 50)
        b = gershgorin_bounds(x)
        eig = sym_eigendecompose(x)
        assert b.eps_min <= eig.values[0] and eig.values[-1] <= b.eps_max


def test_symmetrize_helper(rng):
    x = rng.standard_normal((5, 5))
    y = symmetrize(x)
    assert np.array_equal(y, y.T)
