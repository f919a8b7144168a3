import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmresponse import mixedprec, sp2
from dmresponse.exceptions import ConvergenceError
from dmresponse.linalg import sym_eigendecompose, trace_product
from dmresponse.mixedprec import mixed_response_pipeline, single_precision_pipeline
from dmresponse.models import chain_hamiltonian, gapped_random_hamiltonian
from dmresponse.response import (
    dm_perturbation_forward,
    susceptibility_backward,
    susceptibility_forward,
)
from dmresponse.sp2 import sp2_ground_state
from dmresponse.sparse import SparseMatrix, sparsify, threshold

from conftest import random_symmetric


def banded_random(n, band, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    x = random_symmetric(rng, n, scale)
    i, j = np.indices((n, n))
    x[np.abs(i - j) > band] = 0.0
    return x


def gapped_banded(n, seed):
    # alternating on-site energies +/-1.5 open a gap under weak banded disorder
    return np.diag(np.where(np.arange(n) % 2 == 0, 1.5, -1.5)) + banded_random(n, 3, seed, 0.3)


class TestGroundState:
    def test_two_level_diagonal(self):
        d0, tr = sp2_ground_state(np.diag([0.0, 1.0]), 1)
        np.testing.assert_allclose(d0, np.diag([1.0, 0.0]), atol=1e-12)
        assert tr.n_occ == 1
        assert tr.m_steps == len(tr.sigmas)

    def test_two_level_offdiagonal(self):
        d0, _ = sp2_ground_state(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
        np.testing.assert_allclose(d0, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-12)

    def test_matches_step_function_oracle(self):
        n, n_occ = 50, 25
        h0 = gapped_random_hamiltonian(n, 1.0, n_occ, seed=11)
        d0, _ = sp2_ground_state(h0, n_occ)
        eig = sym_eigendecompose(h0)
        mu = 0.5 * (eig.values[n_occ - 1] + eig.values[n_occ])
        occ = (eig.values < mu).astype(float)
        theta = (eig.vectors * occ) @ eig.vectors.T
        assert np.linalg.norm(d0 - theta) <= 1e-7

    def test_idempotency_occupation_commutation(self):
        n, n_occ = 40, 17
        h0 = gapped_random_hamiltonian(n, 0.8, n_occ, seed=5)
        d0, tr = sp2_ground_state(h0, n_occ)
        assert np.linalg.norm(d0 @ d0 - d0) <= 1e-7
        assert abs(np.trace(d0) - n_occ) <= 1e-8
        comm = d0 @ h0 - h0 @ d0
        assert np.linalg.norm(comm) <= 1e-6 * np.linalg.norm(h0)
        assert tr.idempotency_log[-1] <= 1e-13 * n

    def test_eigenvalues_are_binary(self):
        h0 = gapped_random_hamiltonian(20, 1.0, 9, seed=2)
        d0, _ = sp2_ground_state(h0, 9)
        vals = sym_eigendecompose(d0).values
        dist = np.minimum(np.abs(vals), np.abs(vals - 1.0))
        assert np.max(dist) <= 1e-7

    def test_trace_record_invariants(self):
        h0 = gapped_random_hamiltonian(30, 0.7, 15, seed=8)
        _, tr = sp2_ground_state(h0, 15)
        assert tr.beta_spec < 0
        width = tr.bounds.eps_max - tr.bounds.eps_min
        assert np.isclose(tr.alpha, tr.bounds.eps_max / width)
        assert np.isclose(tr.beta_spec, -1.0 / width)
        assert set(tr.sigmas) <= {-1, 1}
        assert len(tr.idempotency_log) == tr.m_steps

    def test_replay_determinism(self):
        h0 = gapped_random_hamiltonian(25, 0.9, 12, seed=3)
        d_a, tr_a = sp2_ground_state(h0, 12)
        d_b, tr_b = sp2_ground_state(h0, 12)
        assert tr_a.sigmas == tr_b.sigmas
        assert np.array_equal(d_a, d_b)

    def test_rejects_bad_occupation(self):
        h0 = np.diag([0.0, 1.0])
        with pytest.raises(ValueError, match="n_occ"):
            sp2_ground_state(h0, 0)
        with pytest.raises(ValueError, match="n_occ"):
            sp2_ground_state(h0, 2)

    def test_gapless_input_fails_with_log(self, rng):
        # degenerate spectrum at the occupation boundary: no projector exists
        h0 = random_symmetric(rng, 12, scale=0.0)  # zero matrix
        with pytest.raises((ConvergenceError, ValueError)) as exc:
            sp2_ground_state(h0, 6)
        if isinstance(exc.value, ConvergenceError):
            assert len(exc.value.history) > 0

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_bounds_rejected_before_any_product(self, monkeypatch, storage, n):
        # finite entries whose Gershgorin width (n = 2) or disc radius (n = 3)
        # overflows float64; the dense kernel must not run its eigensolve,
        # and the overflow is reported by name, not as a numpy warning
        h0 = np.full((n, n), 1e308)
        np.fill_diagonal(h0, 1.0)
        if storage == "sparse":
            h0 = threshold(h0, 0.0)

        def square(self, x):
            raise AssertionError("a product was formed")

        def eigvalsh(x):
            raise AssertionError("an eigensolve ran")

        monkeypatch.setattr(sp2._DenseOps, "square", square)
        monkeypatch.setattr(sp2._SparseOps, "square", square)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        with pytest.raises(ValueError, match=r"^spectral bounds \[.*\] have width (inf|nan)"):
            sp2_ground_state(h0, 1)

    def test_dense_bound_hugs_the_spectrum(self):
        # Gershgorin's interval, [-16.4, 16.3] against the spectrum's
        # [-2.0, 2.0], took 28 steps here
        _, tr = sp2_ground_state(gapped_random_hamiltonian(200, 1.0, 100, seed=0), 100)
        assert tr.bounds.eps_min >= -2.1 and tr.bounds.eps_max <= 2.1
        assert tr.m_steps <= 20

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    @given(st.data(), st.integers(min_value=2, max_value=40), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_converges_at_any_occupation_of_a_gap(self, storage, data, n, seed):
        # the stall rule must not stop a run whose error still rises while the
        # spectrum is sorted into its bands: with bounds far wider than the
        # spectrum [-2, 2] and the gap away from half filling, the error
        # rises three steps in a row long before the noise floor. The sparse
        # kernel's Gershgorin bounds are that wide; the dense kernel's hug
        # the spectrum, which the same rule must not stop early either.
        n_occ = data.draw(st.integers(min_value=1, max_value=n - 1))
        gap = data.draw(st.floats(min_value=4e-3, max_value=3.9))  # >= 1e-3 of the width
        h = gapped_random_hamiltonian(n, gap, n_occ, seed)
        d0, _ = sp2_ground_state(h if storage == "dense" else sparsify(h, 0.0), n_occ)
        if storage == "sparse":
            d0 = d0.to_dense()
        assert abs(np.trace(d0) - n_occ) <= 1e-8
        assert np.linalg.norm(d0 @ d0 - d0) <= 1e-7

    def test_asymmetric_inputs_rejected(self):
        # the pair update takes XY as (YX)^T, so an operand one ulp away from
        # symmetric would silently give the response of another seed
        n = 40
        h = chain_hamiltonian(n, 1.0)
        asym = h.copy()
        asym[0, 1] = asym[0, 1] * (1.0 + 1e-15)
        with pytest.raises(ValueError, match="^h0 is not exactly symmetric"):
            sp2_ground_state(asym, n // 2)
        with pytest.raises(ValueError, match="^seed is not exactly symmetric"):
            dm_perturbation_forward(h, asym, n // 2)
        with pytest.raises(ValueError, match="^a is not exactly symmetric"):
            susceptibility_backward(h, asym, n // 2)
        _, _, expansion = susceptibility_backward(h, h, n // 2)
        with pytest.raises(ValueError, match="^seed is not exactly symmetric"):
            susceptibility_forward(h, asym, n // 2, trace=expansion)
        # the low-precision kernels share the dense kernel's checks
        with pytest.raises(ValueError, match="^seed is not exactly symmetric"):
            single_precision_pipeline(h, asym, n // 2)
        # NaN != NaN, yet a symmetric h0 holding a NaN is refused as
        # non-finite, not as asymmetric
        nan = h.copy()
        nan[0, 0] = np.nan
        with pytest.raises(ValueError, match="^h0 contains non-finite entries$"):
            sp2_ground_state(nan, n // 2)


@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_routes_name_a_non_finite_operand(storage):
    # the public routes reach the same check on each path
    n, n_occ = 20, 10
    h = gapped_random_hamiltonian(n, 1.6, n_occ, seed=1)
    m = random_symmetric(np.random.default_rng(2), n)
    m[3, 3] = np.nan
    if storage == "sparse":
        h, m = sparsify(h, 0.0), threshold(m, 0.0)
    _, _, trace = dm_perturbation_forward(h, h, n_occ)
    _, _, expansion = susceptibility_backward(h, h, n_occ)
    for call, name in (
        (lambda: dm_perturbation_forward(h, m, n_occ), "seed"),
        (lambda: dm_perturbation_forward(h, m, n_occ, trace=trace), "seed"),
        (lambda: susceptibility_forward(h, m, n_occ, trace=expansion), "seed"),
        (lambda: susceptibility_backward(h, m, n_occ), "a"),
    ):
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            call()
    if storage == "dense":
        for pipeline in (single_precision_pipeline, mixed_response_pipeline):
            with pytest.raises(ValueError, match="^seed contains non-finite entries$"):
                pipeline(h, m, n_occ)
        # an h0 that is neither an ndarray nor a SparseMatrix is named where
        # every kernel is built, before any shape is read
        nested = h.tolist()
        named = "^h0 must be an ndarray or a SparseMatrix, got list$"
        for call in (
            lambda: sp2_ground_state(nested, n_occ),
            lambda: dm_perturbation_forward(nested, h, n_occ),
            lambda: single_precision_pipeline(nested, h, n_occ),
            lambda: mixed_response_pipeline(nested, h, n_occ),
        ):
            with pytest.raises(ValueError, match=named):
                call()
        # and a seed that is not an ndarray is not of h0's storage kind
        with pytest.raises(ValueError, match="^seed must be the same storage kind as h0$"):
            dm_perturbation_forward(h, nested, n_occ)
        # a 0-d h0 is named before its shape is read
        scalar = np.array(1.0)
        for call in (
            lambda: sp2_ground_state(scalar, 1),
            lambda: dm_perturbation_forward(scalar, scalar, 1),
            lambda: single_precision_pipeline(scalar, None, 1),
        ):
            with pytest.raises(ValueError, match=r"^expected a square h0, got shape \(\)$"):
                call()
        # the low-precision kernels take dense storage only
        stored = sparsify(np.diag([1.0, 2.0]), 0.0)
        dense_only = "^h0 must be an ndarray: the f32 and split16 kernels take dense storage only$"
        for pipeline in (single_precision_pipeline, mixed_response_pipeline):
            with pytest.raises(ValueError, match=dense_only):
                pipeline(stored, None, 1)


class TestSparseGroundState:
    def test_chain_agrees_with_dense_observable(self, rng):
        n, n_occ, tau = 400, 200, 1e-6
        h = chain_hamiltonian(n, 1.0)
        a = np.zeros((n, n))
        idx = np.arange(n)
        a[idx, idx] = rng.uniform(-1.0, 1.0, n)  # unit-bounded local observable
        d_dense, _ = sp2_ground_state(h, n_occ)
        d_sparse, tr = sp2_ground_state(sparsify(h, tau), n_occ)
        val_dense = trace_product(a, d_dense)
        val_sparse = trace_product(a, d_sparse.to_dense())
        assert abs(val_dense - val_sparse) <= 1e-4
        assert abs(d_sparse.trace() - n_occ) <= 10 * tau * n

    def test_fill_in_stays_bounded(self):
        tau = 1e-6
        per_row = []
        for n in (500, 1000, 2000, 4000):
            d, _ = sp2_ground_state(sparsify(chain_hamiltonian(n, 1.0), tau), n // 2)
            per_row.append(d.max_nnz_per_row())
        # decay length is set by the gap, not the chain length
        assert max(per_row) - min(per_row) <= 2
        assert max(per_row) < 120

    def test_coarse_tau_wrong_occupation_rejected(self):
        # tau = 5e-2 on a gap-0.5 chain misses the occupation by ~19 electrons
        with pytest.raises(ConvergenceError, match="occupation error"):
            sp2_ground_state(sparsify(chain_hamiltonian(400, 0.5), 5e-2), 200)

    def test_infinite_tau_rejected_at_construction(self):
        # tau = inf would make the gate's tolerances infinite and let an
        # empty D0 through
        h = sparsify(chain_hamiltonian(8, 1.0), 0.0)
        with pytest.raises(ValueError, match="drop tolerance tau"):
            sp2_ground_state(SparseMatrix(h.csr, np.inf), 4)

    @pytest.mark.parametrize("model", ["chain", "banded"])
    def test_iterates_exactly_symmetric(self, monkeypatch, model):
        # the plain drop rule relies on every product being bitwise symmetric
        n, tau = 200, 1e-6
        h = chain_hamiltonian(n, 1.0) if model == "chain" else gapped_banded(n, 11)
        seen = []
        for name in ("seed", "square", "combine", "pair_update"):
            method = getattr(sp2._SparseOps, name)

            def record(*args, _method=method):
                out = _method(*args)
                seen.append(out)
                return out

            monkeypatch.setattr(sp2._SparseOps, name, record)
        hs = sparsify(h, tau)
        h1 = sparsify(banded_random(n, 2, 12), tau)
        _, d1, trace = dm_perturbation_forward(hs, h1, n // 2)
        _, chi, _ = susceptibility_backward(hs, h1, n // 2)
        assert trace.m_steps > 10
        assert len(seen) > 5 * trace.m_steps
        for x in seen + [d1, chi]:
            assert (x.csr != x.csr.T).nnz == 0

    def test_asymmetric_inputs_rejected(self):
        n = 40
        h = sparsify(chain_hamiltonian(n, 1.0), 1e-6)
        bumped = h.csr.copy()
        bumped[0, 1] = bumped[0, 1] * (1.0 + 1e-15)
        asym = SparseMatrix(bumped, h.tau)
        with pytest.raises(ValueError, match="h0 is not exactly symmetric"):
            sp2_ground_state(asym, n // 2)
        with pytest.raises(ValueError, match="seed is not exactly symmetric"):
            dm_perturbation_forward(h, asym, n // 2)
        with pytest.raises(ValueError, match="a is not exactly symmetric"):
            susceptibility_backward(h, asym, n // 2)


class _InlineSparseOps(sp2._SparseOps):
    """The sparse kernel with both products of a step on the calling thread."""

    overlap_pair_update = False


def _sparse_problem(model, n=200, tau=1e-6):
    h = chain_hamiltonian(n, 1.0) if model == "chain" else gapped_banded(n, 11)
    return sparsify(h, tau), sparsify(banded_random(n, 2, 12), tau)


def _same_bits(a: SparseMatrix, b: SparseMatrix) -> bool:
    return all(
        np.array_equal(getattr(a.csr, k), getattr(b.csr, k)) for k in ("indptr", "indices")
    ) and a.csr.data.tobytes() == b.csr.data.tobytes()


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    started = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class TestDerivativeLane:
    @pytest.mark.parametrize("model", ["chain", "banded"])
    def test_overlapped_equals_inline(self, model):
        # frequent thread switches shuffle how the two lanes interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self._check_overlapped_equals_inline(model)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _check_overlapped_equals_inline(model):
        hs, h1 = _sparse_problem(model)
        n_occ = hs.dim // 2
        x, y, trace = sp2._expand(hs, n_occ, y_seed=h1)
        xi, yi, trace_i = sp2._expand(hs, n_occ, y_seed=h1, ops=_InlineSparseOps(hs))
        assert trace == trace_i
        assert _same_bits(x, xi) and _same_bits(y, yi)
        # a second overlapped run interleaves its lanes differently
        xo, yo, trace_o = sp2._expand(hs, n_occ, y_seed=h1)
        assert trace_o == trace
        assert _same_bits(xo, x) and _same_bits(yo, y)

    def test_one_worker_one_update_in_flight(self, monkeypatch, thread_starts):
        hs, h1 = _sparse_problem("chain")
        lock = threading.Lock()
        active, peak, threads = [0], [0], set()
        real_pair_update = sp2._SparseOps.pair_update

        def pair_update(self, sigma, y, x):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            threads.add(threading.get_ident())
            try:
                return real_pair_update(self, sigma, y, x)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(sp2._SparseOps, "pair_update", pair_update)
        dm_perturbation_forward(hs, h1, hs.dim // 2)
        assert len(thread_starts) == 1
        assert peak[0] == 1
        # every update ran on the one worker, none on the calling thread
        assert len(threads) == 1 and threading.get_ident() not in threads

    def test_worker_exception_reaches_caller(self):
        hs, h1 = _sparse_problem("chain")
        boom = RuntimeError("pair update failed")

        class FailingOps(sp2._SparseOps):
            calls = 0

            def pair_update(self, sigma, y, x):
                self.calls += 1
                if self.calls == 3:
                    raise boom
                return super().pair_update(sigma, y, x)

        before = threading.active_count()
        with pytest.raises(RuntimeError) as exc:
            sp2._expand(hs, hs.dim // 2, y_seed=h1, ops=FailingOps(hs))
        assert exc.value is boom
        assert threading.active_count() == before

    def test_no_thread_left_behind(self, monkeypatch):
        hs, h1 = _sparse_problem("chain")
        before = threading.active_count()
        dm_perturbation_forward(hs, h1, hs.dim // 2)
        assert threading.active_count() == before
        monkeypatch.setattr(sp2, "MAX_ITERATIONS", 2)
        with pytest.raises(ConvergenceError):
            dm_perturbation_forward(hs, h1, hs.dim // 2)
        assert threading.active_count() == before

    def test_only_sparse_derivative_runs_start_a_thread(self, thread_starts):
        h = gapped_random_hamiltonian(32, 1.6, 16, seed=95)
        a = gapped_random_hamiltonian(32, 1.0, 16, seed=96)
        dm_perturbation_forward(h, a, 16)
        single_precision_pipeline(h, a, 16)
        mixed_response_pipeline(h, a, 16)
        hs, _ = _sparse_problem("chain")
        sp2_ground_state(hs, hs.dim // 2)
        susceptibility_backward(hs, hs, hs.dim // 2)
        assert thread_starts == []


# kernel name -> (kernel class, dense or sparse problem)
KERNELS = {
    "dense": (sp2._DenseOps, "dense"),
    "sparse": (sp2._SparseOps, "sparse"),
    "f32": (mixedprec._F32Ops, "dense"),
    "split16": (mixedprec._Split16Ops, "dense"),
}


def _kernel_problem(kernel):
    """(h0, a symmetric seed, kernel class, dimension) for one `_expand`
    kernel."""
    ops, storage = KERNELS[kernel]
    if storage == "sparse":
        hs, h1 = _sparse_problem("chain")
        return hs, h1, ops, hs.dim
    h = gapped_random_hamiltonian(32, 1.6, 16, seed=95)
    return h, gapped_random_hamiltonian(32, 1.0, 16, seed=96), ops, 32


def _bits(m):
    if isinstance(m, SparseMatrix):
        return [m.csr.indptr.tobytes(), m.csr.indices.tobytes(), m.csr.data.tobytes()]
    return [m.dtype.str, m.tobytes()]


class TestEngineBoundary:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "role, name", [("y_seed", "seed"), ("forward", "seed"), ("backward", "a")]
    )
    def test_operand_of_wrong_kind_or_dimension_rejected(self, kernel, role, name):
        # y_seed: a fresh run's seed; forward, backward: a stored expansion's
        h, m, ops, n = _kernel_problem(kernel)
        if isinstance(m, SparseMatrix):
            other_kind = m.to_dense()
            smaller = sparsify(other_kind[:-1, :-1], m.tau)
        else:
            other_kind = sparsify(m, 0.0)
            smaller = m[:-1, :-1]

        def run(operand):
            if role == "y_seed":
                sp2._expand(h, n // 2, y_seed=operand, ops=ops(h))
            else:
                _, _, expansion = sp2._expand(h, n // 2, store=True, ops=ops(h))
                getattr(expansion, role)(operand)

        with pytest.raises(ValueError, match=f"^{name} must be the same storage kind as h0"):
            run(other_kind)
        with pytest.raises(ValueError, match=f"dimension mismatch: h0 is {n}, {name} has shape"):
            run(smaller)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stored_expansion_runs_pair_updates_only(self, kernel):
        h, seed, ops, n = _kernel_problem(kernel)
        n_occ = n // 2
        x, y, trace = sp2._expand(h, n_occ, y_seed=seed, ops=ops(h))
        store_ops = ops(h)
        xs, _, expansion = sp2._expand(h, n_occ, store=True, ops=store_ops)
        assert isinstance(expansion, sp2.Sp2Expansion) and expansion.ops is store_ops
        assert (expansion.sigmas, expansion.idempotency_log) == (trace.sigmas, trace.idempotency_log)
        assert _bits(xs) == _bits(x) == _bits(expansion.d0)
        products = getattr(store_ops, "mult_count", 0)
        assert _bits(expansion.forward(seed)) == _bits(y)
        if kernel in ("f32", "split16"):
            # one symmetrized pair product per step and no square: 1 float32
            # product, or 3 split ones
            per_pair = 1 if kernel == "f32" else 3
            assert store_ops.mult_count - products == per_pair * trace.m_steps

    def test_gate_runs_once_per_expand_run_never_on_a_stored_expansion(self, monkeypatch):
        gated = []

        def spy(real):
            def gate(self, x, trace):
                gated.append(type(self).__name__)
                real(self, x, trace)

            return gate

        # the sparse and split16 kernels inherit these two gates
        for owner in (sp2._DenseOps, mixedprec._F32Ops):
            monkeypatch.setattr(owner, "gate", spy(owner.gate))
        for kernel, (ops, _) in KERNELS.items():
            h, m, _, n = _kernel_problem(kernel)
            n_occ = n // 2
            sp2._expand(h, n_occ, ops=ops(h))
            sp2._expand(h, n_occ, y_seed=m, ops=ops(h))
            _, _, expansion = sp2._expand(h, n_occ, store=True, ops=ops(h))
            assert gated == [ops.__name__] * 3
            gated.clear()
            expansion.forward(m)
            expansion.backward(m)
            assert gated == []
            if ops in (sp2._DenseOps, sp2._SparseOps):
                # a plain trace is not read: each forward route runs fresh
                _, trace = sp2_ground_state(h, n_occ)
                dm_perturbation_forward(h, m, n_occ, trace=trace)
                susceptibility_forward(h, m, n_occ, trace=trace)
                assert gated == [ops.__name__] * 3
                gated.clear()
                dm_perturbation_forward(h, m, n_occ, trace=expansion)
                susceptibility_forward(h, m, n_occ, trace=expansion)
                assert gated == []

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_gate_rejects_a_residual_above_the_idempotency_limit(self, monkeypatch, storage):
        # the occupation half of the gate passes; a limit no residual meets
        # leaves the idempotency half to reject the run
        n = 40
        h = gapped_random_hamiltonian(n, 1.0, n // 2, seed=1)
        if storage == "sparse":
            h = sparsify(h, 0.0)
        ops = sp2._ops_for(h)
        monkeypatch.setattr(ops, "idempotency_tol", 1e-20)
        with pytest.raises(
            ConvergenceError,
            match=r"^SP2 idempotency residual \|\|D\^2 - D\|\|_F = .* exceeds 1\.000e-20",
        ):
            sp2._expand(h, n // 2, ops=ops)


def _one_line_pair_update(sigma, y, x):
    """The dense pair update as whole-matrix formulas, the tiled kernel's
    bit-for-bit reference."""
    p = y @ x
    s = p + p.T
    return sp2._DenseOps._flush(s if sigma == 1 else 2.0 * y - s)


def _one_line_combine(sigma, x, x2):
    return sp2._DenseOps._flush(x2.copy() if sigma == 1 else 2.0 * x - x2)


class TestDenseTiles:
    """The dense kernel's in-place tiled pair update and combination against
    their whole-matrix formulas, bit for bit."""

    SIZES = [1, 2, sp2._TILE - 1, sp2._TILE, sp2._TILE + 1, 2 * sp2._TILE + 3]

    @pytest.mark.parametrize("sigma", [1, -1])
    @pytest.mark.parametrize("n", SIZES)
    def test_pair_update_and_combine_match_formulas(self, rng, n, sigma):
        x, y = random_symmetric(rng, n), random_symmetric(rng, n)
        x_in, y_in = x.copy(), y.copy()
        ops = sp2._DenseOps(x)
        got = ops.pair_update(sigma, y, x)
        assert _bits(got) == _bits(_one_line_pair_update(sigma, y, x))
        assert np.array_equal(got, got.T)
        x2 = x @ x
        want = _one_line_combine(sigma, x, x2)
        assert _bits(ops.combine(sigma, x, x2)) == _bits(want)
        assert _bits(x) == _bits(x_in) and _bits(y) == _bits(y_in)

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_flush_in_an_off_diagonal_tile(self, rng, sigma):
        # with a diagonal X, entry (i, j) of YX + XY is y_ij (x_i + x_j); a
        # planted y_ij of 1e-151 leaves it, and 2 y_ij minus it, below the
        # flush threshold but not zero
        n = 2 * sp2._TILE + 3
        i, j = 1, sp2._TILE + 5
        x = np.diag(rng.uniform(0.5, 0.9, n))
        y = random_symmetric(rng, n)
        y[i, j] = y[j, i] = 1e-151
        raw = y[i, j] * (x[i, i] + x[j, j])
        if sigma == -1:
            raw = 2.0 * y[i, j] - raw
        assert 0.0 < abs(raw) < sp2.DENORMAL_FLUSH
        got = sp2._DenseOps(x).pair_update(sigma, y, x)
        assert _bits(got) == _bits(_one_line_pair_update(sigma, y, x))
        assert got[i, j] == got[j, i] == 0.0
        x2 = random_symmetric(rng, n)
        x2[i, j] = x2[j, i] = 3e-151
        x = random_symmetric(rng, n)
        x[i, j] = x[j, i] = 1e-151
        want = _one_line_combine(sigma, x, x2)
        got = sp2._DenseOps(x).combine(sigma, x, x2)
        assert _bits(got) == _bits(want)
        assert got[i, j] == got[j, i] == 0.0

    def test_seeds_leave_a_stored_expansion_unchanged(self, rng):
        # the kernel works in place on its own product and on nothing else
        n = 2 * sp2._TILE + 3
        h = gapped_random_hamiltonian(n, 1.0, n // 2, seed=7)
        seed, a = random_symmetric(rng, n), random_symmetric(rng, n)
        _, _, expansion = sp2._expand(h, n // 2, store=True)
        stored = [_bits(m) for m in (*expansion.iterates, expansion.d0)]
        operands = [_bits(m) for m in (seed, a)]
        expansion.forward(seed)
        expansion.backward(a)
        assert [_bits(m) for m in (*expansion.iterates, expansion.d0)] == stored
        assert [_bits(m) for m in (seed, a)] == operands


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kernel", KERNELS)
class TestNonFiniteOperands:
    """A NaN or inf operand is refused by name on every path of every
    kernel: never returned as a non-finite response, never reported as an
    asymmetry or as a binary16 rounding failure."""

    n, n_occ = 20, 10

    def operands(self, kernel, bad):
        h = gapped_random_hamiltonian(self.n, 1.6, self.n_occ, seed=1)
        m = random_symmetric(np.random.default_rng(2), self.n)
        bad_h, bad_m = h.copy(), m.copy()
        bad_h[3, 3] = bad_m[3, 3] = bad
        if KERNELS[kernel][1] == "sparse":
            # threshold keeps non-finite entries; sparsify would refuse them
            h, bad_h, bad_m = (threshold(x, 0.0) for x in (h, bad_h, bad_m))
        return h, bad_h, bad_m

    def expand(self, kernel, h0, **kw):
        return sp2._expand(h0, self.n_occ, ops=KERNELS[kernel][0](h0), **kw)

    def test_h0(self, kernel, bad):
        _, bad_h, _ = self.operands(kernel, bad)
        with pytest.raises(ValueError, match="^h0 contains non-finite entries$"):
            self.expand(kernel, bad_h)

    def test_fresh_and_replayed_seed(self, kernel, bad):
        # a fresh run's seed, and a seed run over a stored expansion
        h, _, bad_m = self.operands(kernel, bad)
        with pytest.raises(ValueError, match="^seed contains non-finite entries$"):
            self.expand(kernel, h, y_seed=bad_m)
        _, _, expansion = self.expand(kernel, h, store=True)
        with pytest.raises(ValueError, match="^seed contains non-finite entries$"):
            expansion.forward(bad_m)

    def test_stored_forward_and_backward(self, kernel, bad):
        h, bad_h, bad_m = self.operands(kernel, bad)
        _, _, expansion = self.expand(kernel, h, store=True)
        with pytest.raises(ValueError, match="^seed contains non-finite entries$"):
            expansion.forward(bad_m)
        with pytest.raises(ValueError, match="^a contains non-finite entries$"):
            expansion.backward(bad_m)
        with pytest.raises(ValueError, match="^the given h0 contains non-finite entries$"):
            expansion.check_source(bad_h, self.n_occ)


@pytest.mark.parametrize("kernel", ["dense", "f32", "split16"])
def test_dense_operand_check_copies_nothing(kernel):
    # the check reads the operand in place: its peak allocation is a few
    # boolean temporaries, below half a float64 copy
    n = 300
    h = gapped_random_hamiltonian(n, 1.0, n // 2, seed=1)
    ops = KERNELS[kernel][0](h)
    tracemalloc.start()
    try:
        ops.check(h, "h0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < h.nbytes // 2
