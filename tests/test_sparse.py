import numpy as np
import pytest

from dmresponse.linalg import gershgorin_bounds
from dmresponse.models import chain_diagonals, chain_hamiltonian
from dmresponse.sparse import (
    SparseMatrix,
    check_symmetric,
    from_diagonals,
    sparsify,
    threshold,
)

from conftest import random_symmetric


def banded_symmetric(rng, n, band=3, scale=1.0):
    x = random_symmetric(rng, n, scale)
    i, j = np.indices((n, n))
    x[np.abs(i - j) > band] = 0.0
    return 0.5 * (x + x.T)


class TestSparsify:
    def test_lossless_round_trip_tau_zero(self, rng):
        x = random_symmetric(rng, 25)
        sm = sparsify(x, 0.0)
        assert np.array_equal(sm.to_dense(), x)

    def test_identity_survives_large_tau(self):
        sm = sparsify(np.eye(5), 0.5)
        assert np.array_equal(sm.to_dense(), np.eye(5))
        assert sm.nnz == 5

    def test_tridiagonal_chain_count(self):
        h = chain_hamiltonian(1000, 1.0)
        sm = sparsify(h, 1e-6)
        assert sm.nnz == 2998

    @pytest.mark.parametrize("tau", [0.0, 1e-6, 0.5])
    def test_from_diagonals_equals_sparsify(self, tau):
        # tau = 0.5 drops the chain's +-0.4 on-site energies, keeps the hopping
        onsite, hopping = chain_diagonals(30, 0.8)
        sm = from_diagonals([hopping, onsite, hopping], [-1, 0, 1], tau)
        ref = sparsify(chain_hamiltonian(30, 0.8), tau).csr
        assert sm.tau == tau
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sm.csr, attr), getattr(ref, attr))

    def test_drops_small_entries(self):
        x = np.array([[1.0, 1e-9], [1e-9, 2.0]])
        sm = sparsify(x, 1e-6)
        assert sm.nnz == 2
        np.testing.assert_allclose(sm.to_dense(), np.diag([1.0, 2.0]))

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            sparsify(np.eye(2), -1.0)

    def test_entries_near_the_float64_limit_stay_finite(self):
        x = np.array([[1.0, 1.5e308], [1.5e308, 1.0]])
        sm = sparsify(x, 1e-6)
        assert np.all(np.isfinite(sm.csr.data))
        assert np.array_equal(sm.to_dense(), x)

    def test_rejects_asymmetric_input(self):
        x = np.array([[1.0, 0.5], [0.25, 1.0]])
        with pytest.raises(ValueError, match="not exactly symmetric"):
            sparsify(x, 1e-6)

    def test_rejects_asymmetry_that_threshold_would_drop(self):
        # checked before the drop: 1e-9 against tau = 1e-6 is still rejected
        x = np.array([[1.0, 1e-9], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not exactly symmetric"):
            sparsify(x, 1e-6)

    def test_rejects_empty_and_nonsquare_input(self):
        for x in (np.zeros((0, 0)), np.zeros((2, 3))):
            with pytest.raises(ValueError):
                sparsify(x, 0.0)

    def test_rejects_non_finite_symmetric_input(self):
        # NaN != NaN, so the symmetry check alone would call it asymmetric
        x = np.eye(3)
        x[0, 2] = x[2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sparsify(x, 1e-6)

    def test_storage_invariants(self, rng):
        sm = sparsify(banded_symmetric(rng, 40), 1e-3)
        # no stored entry below tau
        assert np.all(np.abs(sm.csr.data) >= sm.tau)
        # strictly increasing column indices per row
        for i in range(sm.dim):
            cols = sm.csr.indices[sm.csr.indptr[i] : sm.csr.indptr[i + 1]]
            assert np.all(np.diff(cols) > 0)
        # logical symmetry of the stored pattern and values
        d = sm.to_dense()
        assert np.array_equal(d, d.T)


class TestThreshold:
    def test_pure_rethreshold(self, rng):
        z = sparsify(banded_symmetric(rng, 20), 0.0)
        # NaN is never dropped; -0.0 and +-tau/2 are; +-tau is kept
        z.csr.data[:6] = [np.nan, -0.0, 0.05, -0.05, 0.1, -0.1]
        out = threshold(z.csr.copy(), 1e-1)
        dense = z.to_dense()
        expect = np.where(np.abs(dense) >= 1e-1, dense, 0.0)
        expect[np.isnan(dense)] = np.nan
        assert np.array_equal(out.to_dense(), expect, equal_nan=True)
        assert out.nnz == np.count_nonzero(expect)

    def test_arrays_hold_only_kept_entries(self, rng):
        # scipy's compaction leaves views on the raw buffers; kept iterates
        # must not carry that spare capacity
        x = sparsify(banded_symmetric(rng, 200, band=8), 0.0)
        raw = x.csr @ x.csr
        n_raw = raw.nnz
        # keep about 70%: more than half, where scipy would keep the view
        out = threshold(raw, float(np.quantile(np.abs(raw.data), 0.3)))
        assert n_raw // 2 < out.nnz < n_raw
        for a in (out.csr.data, out.csr.indices):
            assert a.size == out.nnz
            assert a.base is None or a.base.nbytes == a.nbytes

    def test_stored_values_at_least_tau(self, rng):
        x = sparsify(banded_symmetric(rng, 50), 0.0)
        out = threshold(x.csr @ x.csr - x.csr * 0.5, 1e-1)
        d = out.to_dense()
        assert np.array_equal(d, d.T)
        assert out.nnz < (x.csr @ x.csr).nnz
        assert np.all(np.abs(out.csr.data) >= 1e-1)

    def test_matches_pairwise_rule_on_symmetric_input(self, rng):
        x = banded_symmetric(rng, 40)
        ref = np.where(np.abs(x) >= 0.3, x, 0.0)
        assert np.array_equal(sparsify(x, 0.3).to_dense(), ref)

    def test_removes_explicit_zeros(self):
        import scipy.sparse as sp

        data, cols, ptr = np.array([1.0, 0.0, -0.0]), np.array([0, 1, 2]), np.array([0, 3, 3, 3])
        raw = sp.csr_matrix((data, cols, ptr), shape=(3, 3))
        assert threshold(raw, 0.0).nnz == 1

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            threshold(sparsify(np.eye(2), 0.0).csr, -1.0)


def test_check_symmetric(rng):
    x = sparsify(banded_symmetric(rng, 30), 0.0)
    check_symmetric(x, "x")
    bumped = x.csr.copy()
    bumped[0, 1] = bumped[0, 1] + 1e-15
    with pytest.raises(ValueError, match="not exactly symmetric"):
        check_symmetric(SparseMatrix(bumped, 0.0), "x")


def test_sp_gershgorin_matches_dense(rng):
    x = banded_symmetric(rng, 60)
    sm = sparsify(x, 0.0)
    bd = gershgorin_bounds(x)
    bs = gershgorin_bounds(sm.csr)
    # the CSR row sums skip the zeros, so their rounding may differ by an ulp
    assert np.isclose(bs.eps_min, bd.eps_min) and np.isclose(bs.eps_max, bd.eps_max)


@pytest.mark.parametrize(
    "build",
    [
        lambda tau: SparseMatrix(sparsify(np.eye(2), 0.0).csr, tau),
        lambda tau: threshold(sparsify(np.eye(2), 0.0).csr, tau),
        lambda tau: sparsify(np.eye(2), tau),
    ],
    ids=["SparseMatrix", "threshold", "sparsify"],
)
def test_tau_must_be_finite_and_non_negative(build):
    for tau in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="drop tolerance tau"):
            build(tau)


def test_sparse_matrix_helpers(rng):
    x = banded_symmetric(rng, 10)
    sm = sparsify(x, 0.0)
    assert sm.dim == 10
    assert np.isclose(sm.trace(), np.trace(x))
    assert sm.max_nnz_per_row() <= 10
