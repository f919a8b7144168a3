import numpy as np
import pytest

from dmresponse import scf, thermal
from dmresponse.exceptions import ConvergenceError
from dmresponse.linalg import congruence_transform, trace_product
from dmresponse.models import gapped_random_hamiltonian, overlap_chain_matrices
from dmresponse.response import dm_perturbation_forward, susceptibility_forward
from dmresponse.scf import (
    BilinearKernel,
    DiagonalHubbardKernel,
    ScfConfig,
    ScfState,
    ZeroKernel,
    apply_kernel,
    scf_dm_response,
    scf_ground_state,
    scf_response,
    scf_susceptibility,
)
from dmresponse.sp2 import Sp2Expansion, sp2_ground_state
from dmresponse.thermal import FermiGroundState

from conftest import one_ulp_asymmetric, random_symmetric


def hubbard(u=0.1):
    return DiagonalHubbardKernel(u)


def bilinear(rng, n, scale=0.08):
    b = random_symmetric(rng, n, scale=scale / np.sqrt(n))
    c = random_symmetric(rng, n, scale=scale / np.sqrt(n))
    return BilinearKernel(b, c)


class TestKernels:
    def test_zero_kernel(self, rng):
        x = random_symmetric(rng, 6)
        assert np.array_equal(apply_kernel(ZeroKernel(), x), np.zeros((6, 6)))

    def test_hubbard_on_identity(self):
        out = apply_kernel(hubbard(0.3), np.eye(4))
        np.testing.assert_allclose(out, 0.3 * np.eye(4), atol=0)

    @pytest.mark.parametrize("maker", ["zero", "hubbard", "bilinear"])
    def test_linearity_and_symmetry(self, rng, maker):
        n = 10
        kernel = {
            "zero": lambda: ZeroKernel(),
            "hubbard": lambda: hubbard(0.2),
            "bilinear": lambda: bilinear(rng, n),
        }[maker]()
        x = random_symmetric(rng, n)
        y = random_symmetric(rng, n)
        lhs = apply_kernel(kernel, 2.0 * x - y)
        rhs = 2.0 * apply_kernel(kernel, x) - apply_kernel(kernel, y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))
        gx = apply_kernel(kernel, x)
        assert np.linalg.norm(gx - gx.T) <= 1e-13 * max(1.0, np.linalg.norm(gx))

    @pytest.mark.parametrize("maker", ["hubbard", "bilinear"])
    def test_exchange_symmetry_condition(self, rng, maker):
        # Tr[P G(Q)] == Tr[Q G(P)]: the condition the response duality needs
        n = 12
        kernel = hubbard(0.17) if maker == "hubbard" else bilinear(rng, n)
        p = random_symmetric(rng, n)
        q = random_symmetric(rng, n)
        lhs = trace_product(p, apply_kernel(kernel, q))
        rhs = trace_product(q, apply_kernel(kernel, p))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_bilinear_rejects_asymmetric_or_mismatched_factors(self, rng):
        b = random_symmetric(rng, 5)
        skew = b.copy()
        skew[0, 1] += 1e-12
        with pytest.raises(ValueError, match="^B is not exactly symmetric$"):
            BilinearKernel(skew, b)
        with pytest.raises(ValueError, match="^C is not exactly symmetric$"):
            BilinearKernel(b, skew)
        with pytest.raises(ValueError, match="differ in shape"):
            BilinearKernel(b, random_symmetric(rng, 4))


    def test_apply_kernel_checks_shapes(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            apply_kernel(ZeroKernel(), np.zeros((2, 3)))

        class Truncating:
            name = "truncating"

            def apply(self, x):
                return x[:-1, :-1]

        with pytest.raises(
            ValueError, match=r"^kernel 'truncating' returned shape \(3, 3\) for input \(4, 4\)$"
        ):
            apply_kernel(Truncating(), np.eye(4))


class TestScfGroundState:
    def test_zero_kernel_single_pass(self):
        n, n_occ = 12, 6
        h = gapped_random_hamiltonian(n, 1.0, n_occ, seed=81)
        state = scf_ground_state(h, None, ZeroKernel(), n_occ)
        # D = 0, then 0.3 D*, then the Anderson step lands on D*
        assert len(state.residuals) == 3
        d_ref, _ = sp2_ground_state(h, n_occ)
        np.testing.assert_allclose(state.d0, d_ref, atol=1e-12)
        np.testing.assert_allclose(state.h_eff, h, atol=0)

    def test_hubbard_fixed_point(self, monkeypatch):
        n, n_occ = 10, 5
        h = gapped_random_hamiltonian(n, 1.0, n_occ, seed=82)
        monkeypatch.setattr(scf, "EPS_SCF", 1e-10)
        monkeypatch.setattr(scf, "MAX_ITERS", 200)
        state = scf_ground_state(h, np.eye(n), hubbard(0.1), n_occ)
        assert state.residuals[-1] <= 1e-10
        # re-substitution: one more solve at the converged density moves nothing
        h_eff = h + apply_kernel(hubbard(0.1), state.d0)
        d_again, _ = sp2_ground_state(h_eff, n_occ)
        assert np.linalg.norm(d_again - state.d0) <= 1e-8

    def test_permutation_symmetry_inherited(self):
        n, n_occ = 8, 4
        # chain reversal symmetry: H invariant under index reversal
        h = np.zeros((n, n))
        idx = np.arange(n - 1)
        h[idx, idx + 1] = -1.0
        h[idx + 1, idx] = -1.0
        np.fill_diagonal(h, [0.5, -0.5, 0.5, -0.5, -0.5, 0.5, -0.5, 0.5])
        perm = np.arange(n)[::-1]
        assert np.array_equal(h[np.ix_(perm, perm)], h)
        state = scf_ground_state(h, None, hubbard(0.1), n_occ)
        d_perm = state.d0[np.ix_(perm, perm)]
        assert np.linalg.norm(d_perm - state.d0) <= 1e-9

    def test_finite_temperature_path(self):
        n, n_occ = 10, 5
        h = gapped_random_hamiltonian(n, 1.0, n_occ, seed=83)
        cfg = ScfConfig(beta_t=25.0)
        state = scf_ground_state(h, np.eye(n), hubbard(0.1), n_occ, cfg)
        assert abs(np.trace(state.d0 @ np.eye(n)) - n_occ) <= 1e-9
        assert isinstance(state.inner, FermiGroundState) and state.inner.beta_t == 25.0

    def test_nonconvergence_carries_history(self, monkeypatch):
        n, n_occ = 6, 3
        h = gapped_random_hamiltonian(n, 1.0, n_occ, seed=84)
        monkeypatch.setattr(scf, "C_MIX", 1.0)
        monkeypatch.setattr(scf, "EPS_SCF", 1e-15)
        monkeypatch.setattr(scf, "MAX_ITERS", 3)
        with pytest.raises(ConvergenceError) as exc:
            scf_ground_state(h, None, hubbard(0.5), n_occ)
        assert len(exc.value.history) == 3


class TestScfResponse:
    def test_zero_kernel_matches_bare_response(self, rng):
        n, n_occ = 14, 7
        h = gapped_random_hamiltonian(n, 1.0, n_occ, seed=85)
        h1 = random_symmetric(rng, n)
        state = scf_ground_state(h, None, ZeroKernel(), n_occ)
        res = scf_response(state, h1)
        # L(seed), then its image L(seed + G(y)) = L(seed), unchanged
        assert res.applications == 2 and res.residuals == (0.0,)
        d1_scf = res.response
        _, d1_bare, _ = dm_perturbation_forward(h, h1, n_occ)
        assert np.linalg.norm(d1_scf - d1_bare) <= 1e-12 * max(1.0, np.linalg.norm(d1_bare))

    def test_seed_of_another_dimension_rejected(self, rng):
        n, n_occ = 8, 4
        h = gapped_random_hamiltonian(n, 1.0, n_occ, seed=86)
        state = scf_ground_state(h, None, hubbard(0.1), n_occ)
        with pytest.raises(ValueError, match=r"^dimension mismatch: \(7, 7\) vs \(8, 8\)$"):
            scf_response(state, random_symmetric(rng, n - 1))

    def test_zero_perturbation(self, rng):
        n, n_occ = 8, 4
        h = gapped_random_hamiltonian(n, 1.0, n_occ, seed=86)
        state = scf_ground_state(h, None, hubbard(0.1), n_occ)
        d1 = scf_dm_response(state, np.zeros((n, n)))
        assert np.linalg.norm(d1) == 0.0

    def test_zero_kernel_susceptibility(self, rng):
        n, n_occ = 12, 6
        h = gapped_random_hamiltonian(n, 1.0, n_occ, seed=87)
        a = random_symmetric(rng, n)
        state = scf_ground_state(h, None, ZeroKernel(), n_occ)
        chi_scf = scf_susceptibility(state, a)
        _, chi_bare, _ = susceptibility_forward(h, a, n_occ)
        assert np.linalg.norm(chi_scf - chi_bare) <= 1e-12 * max(1.0, np.linalg.norm(chi_bare))

    def test_identity_observable_zero_temperature(self):
        n, n_occ = 10, 5
        h = gapped_random_hamiltonian(n, 1.0, n_occ, seed=88)
        state = scf_ground_state(h, None, hubbard(0.1), n_occ)
        chi = scf_susceptibility(state, np.eye(n))
        assert np.linalg.norm(chi) <= 1e-9 * n

    @pytest.mark.parametrize("kernel_kind", ["hubbard", "bilinear"])
    def test_self_consistent_duality(self, rng, kernel_kind):
        n, n_occ = 16, 8
        h = gapped_random_hamiltonian(n, 1.0, n_occ, seed=89)
        kernel = hubbard(0.1) if kernel_kind == "hubbard" else bilinear(rng, n)
        state = scf_ground_state(h, None, kernel, n_occ)
        a = random_symmetric(rng, n)
        h1 = random_symmetric(rng, n)
        d1 = scf_dm_response(state, h1)
        chi = scf_susceptibility(state, a)
        direct = trace_product(a, d1)
        dual = trace_product(chi, h1)
        assert abs(direct - dual) <= 1e-9 * max(abs(direct), 1e-12)

    def test_matches_full_scf_finite_difference(self, rng, monkeypatch):
        n, n_occ = 12, 6
        h = gapped_random_hamiltonian(n, 1.2, n_occ, seed=90)
        h1 = random_symmetric(rng, n)
        kernel = hubbard(0.1)
        monkeypatch.setattr(scf, "EPS_SCF", 1e-12)
        monkeypatch.setattr(scf, "MAX_ITERS", 800)
        state = scf_ground_state(h, None, kernel, n_occ)
        d1 = scf_dm_response(state, h1)
        step = 1e-4
        d_plus = scf_ground_state(h + step * h1, None, kernel, n_occ).d0
        d_minus = scf_ground_state(h - step * h1, None, kernel, n_occ).d0
        fd = (d_plus - d_minus) / (2 * step)
        assert np.linalg.norm(d1 - fd) <= 1e-5

    def test_overlap_basis_duality(self, rng):
        n, n_occ = 10, 5
        h, s = overlap_chain_matrices(n, 1.0, 0.2)
        kernel = hubbard(0.1)
        state = scf_ground_state(h, s, kernel, n_occ)
        a = random_symmetric(rng, n)
        h1 = random_symmetric(rng, n)
        d1 = scf_dm_response(state, h1)
        chi = scf_susceptibility(state, a)
        direct = trace_product(a, d1)
        dual = trace_product(chi, h1)
        assert abs(direct - dual) <= 1e-9 * max(abs(direct), 1e-12)

    def test_finite_temperature_duality_and_neutrality(self, rng):
        n, n_occ = 12, 6
        h = gapped_random_hamiltonian(n, 1.0, n_occ, seed=91)
        cfg = ScfConfig(beta_t=20.0)
        state = scf_ground_state(h, np.eye(n), hubbard(0.1), n_occ, cfg)
        a = random_symmetric(rng, n)
        h1 = random_symmetric(rng, n)
        d1 = scf_dm_response(state, h1)
        chi = scf_susceptibility(state, a)
        direct = trace_product(a, d1)
        dual = trace_product(chi, h1)
        assert abs(direct - dual) <= 1e-9 * max(abs(direct), 1e-12)
        # particle conservation: S = I here, so Tr[chi] is the number response
        assert abs(np.trace(chi)) <= 1e-9 * max(1.0, np.linalg.norm(chi))


def test_scf_config_validation():
    for beta_t in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            ScfConfig(beta_t=beta_t)


def gapped_case(rng, n, seed):
    return (
        gapped_random_hamiltonian(n, 1.0, n // 2, seed=seed),
        random_symmetric(rng, n),
        random_symmetric(rng, n),
    )


def relative_duality(state, a, h1):
    direct = trace_product(a, scf_dm_response(state, h1))
    dual = trace_product(scf_susceptibility(state, a), h1)
    return abs(direct - dual) / max(abs(direct), 1e-12)


class TestKrylovAndAnderson:
    @pytest.mark.parametrize("kernel_kind", ["hubbard", "bilinear"])
    def test_strong_coupling_duality(self, rng, kernel_kind):
        # Hubbard U = 3, and the bilinear kernel at five times the scale of
        # test_self_consistent_duality
        n = 16
        h, a, h1 = gapped_case(rng, n, 89)
        kernel = hubbard(3.0) if kernel_kind == "hubbard" else bilinear(rng, n, scale=0.4)
        state = scf_ground_state(h, None, kernel, n // 2)
        assert state.residuals[-1] <= scf.EPS_SCF
        assert relative_duality(state, a, h1) <= 1e-9

    def test_iteration_counts(self, rng):
        n = 40
        h, a, h1 = gapped_case(rng, n, 92)
        state = scf_ground_state(h, None, hubbard(0.1), n // 2)
        assert len(state.residuals) <= 25
        for seed in (h1, a):
            res = scf_response(state, seed)
            assert res.applications <= 20
            assert res.residuals[-1] <= scf.EPS_SCF

    def test_wrappers_return_the_shared_solve(self, rng):
        n = 12
        h, a, h1 = gapped_case(rng, n, 93)
        state = scf_ground_state(h, None, hubbard(0.5), n // 2)
        assert np.array_equal(scf_dm_response(state, h1), scf_response(state, h1).response)
        assert np.array_equal(scf_susceptibility(state, a), scf_response(state, a).response)

    def test_response_matches_dense_solve(self, rng):
        # the coupled-perturbed equation (I - L G) y = L(seed) assembled
        # column by column and solved directly; L is the response at zero
        # kernel, G the kernel itself
        n, u = 6, 1.0
        h, _, h1 = gapped_case(rng, n, 94)
        state = scf_ground_state(h, None, hubbard(u), n // 2)
        bare = ScfState(**{**vars(state), "kernel": ZeroKernel()})

        def l_map(x):
            return scf_response(bare, x).response

        columns = []
        for k in range(n * n):
            e = np.zeros(n * n)
            e[k] = 1.0
            columns.append(l_map(apply_kernel(hubbard(u), e.reshape(n, n))).ravel())
        system = np.eye(n * n) - np.stack(columns, axis=1)
        y = np.linalg.solve(system, l_map(h1).ravel()).reshape(n, n)
        d1 = scf_dm_response(state, h1)
        assert np.linalg.norm(d1 - y) <= 1e-9 * np.linalg.norm(y)

    def test_application_cap_carries_history(self, rng, monkeypatch):
        n = 12
        h, _, h1 = gapped_case(rng, n, 95)
        state = scf_ground_state(h, None, hubbard(1.0), n // 2)
        monkeypatch.setattr(scf, "MAX_ITERS", 2)
        with pytest.raises(ConvergenceError) as exc:
            scf_response(state, h1)
        # L(seed), then its fresh image: one residual, far from converged
        assert len(exc.value.history) == 1
        assert exc.value.history[0] > scf.EPS_SCF

    @pytest.mark.parametrize("beta_t", [None, 20.0])
    def test_applications_count_every_derivative_call(self, rng, monkeypatch, beta_t):
        # the derivative L is the stored expansion's forward pass at zero
        # temperature and the trace-neutral Fermi derivative otherwise
        n = 12
        h, _, h1 = gapped_case(rng, n, 97)
        state = scf_ground_state(h, None, hubbard(1.0), n // 2, ScfConfig(beta_t=beta_t))
        owner, name = (Sp2Expansion, "forward") if beta_t is None else (thermal, "trace_neutral_derivative")
        real = getattr(owner, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        res = scf_response(state, h1)
        assert len(calls) == res.applications
        # the start L(seed), then one fresh image per residual
        assert len(res.residuals) == res.applications - 1
        assert res.residuals[-1] <= scf.EPS_SCF

    def test_stored_expansion_reproduces_replayed_applications(self, rng, monkeypatch):
        # each zero-temperature application runs over one stored expansion;
        # replaying the ground state's record instead gives the same solve
        n = 12
        h, _, h1 = gapped_case(rng, n, 97)
        state = scf_ground_state(h, None, hubbard(1.0), n // 2)
        stored = scf_response(state, h1)

        def replayed(self, seed):
            trace = state.inner.trace
            return dm_perturbation_forward(state.inner.h, seed, trace.n_occ, trace=trace)[1]

        monkeypatch.setattr(Sp2Expansion, "forward", replayed)
        replay = scf_response(state, h1)
        assert stored.response.tobytes() == replay.response.tobytes()
        assert stored.residuals == replay.residuals
        assert stored.applications == replay.applications

    def test_one_stored_expansion_per_state(self, rng, monkeypatch):
        # the zero-temperature inner ground state stores its expansion on the
        # first derivative application, for every solve over the state, and
        # diagonalizes only when mu0 is read
        n = 12
        h, a, h1 = gapped_case(rng, n, 98)
        stored, eigs = [], []
        real_expand, real_eig = scf._expand, scf.sym_eigendecompose

        def expand_spy(*args, store=False, **kwargs):
            stored.append(store)
            return real_expand(*args, store=store, **kwargs)

        def eig_spy(x):
            eigs.append(x)
            return real_eig(x)

        monkeypatch.setattr(scf, "_expand", expand_spy)
        monkeypatch.setattr(scf, "sym_eigendecompose", eig_spy)
        state = scf_ground_state(h, None, hubbard(1.0), n // 2)
        assert eigs == []
        scf_dm_response(state, h1)
        scf_susceptibility(state, a)
        assert stored.count(True) == 1
        mu0 = state.inner.mu0
        assert state.inner.mu0 == mu0 and len(eigs) == 1
        values = np.linalg.eigvalsh(state.inner.h)
        assert values[n // 2 - 1] < mu0 < values[n // 2]

    @pytest.mark.parametrize("basis", ["finite_temperature", "overlap"])
    def test_duality_through_new_solvers(self, rng, basis):
        if basis == "finite_temperature":
            n = 12
            h, a, h1 = gapped_case(rng, n, 91)
            s, cfg = np.eye(n), ScfConfig(beta_t=20.0)
        else:
            n = 10
            h, s = overlap_chain_matrices(n, 1.0, 0.2)
            a, h1 = random_symmetric(rng, n), random_symmetric(rng, n)
            cfg = ScfConfig()
        state = scf_ground_state(h, s, hubbard(1.0), n // 2, cfg)
        assert len(state.residuals) <= 25
        assert relative_duality(state, a, h1) <= 1e-9
        for seed in (h1, a):
            assert scf_response(state, seed).applications <= 20

    def test_ground_state_matches_linear_mixing(self):
        # the Anderson fixed point is the plain linear-mixing fixed point
        n, n_occ = 12, 6
        h = gapped_random_hamiltonian(n, 1.0, n_occ, seed=96)
        kernel = hubbard(1.0)
        d = np.zeros((n, n))
        for _ in range(400):
            d_new, _ = sp2_ground_state(h + apply_kernel(kernel, d), n_occ)
            if np.linalg.norm(d_new - d) <= 1e-12:
                break
            d = d + 0.3 * (d_new - d)
        state = scf_ground_state(h, None, kernel, n_occ)
        assert np.linalg.norm(state.d0 - d_new) <= 1e-10


class TestOperandsAsGiven:
    @pytest.mark.parametrize("beta_t", [None, 20.0])
    @pytest.mark.parametrize("kernel_kind", ["hubbard", "bilinear"])
    def test_no_overlap_matches_identity_overlap_bit_for_bit(
        self, rng, monkeypatch, kernel_kind, beta_t
    ):
        # the factor of S = I is pinned to the exact identity, so the check
        # does not rest on which eigenvectors LAPACK returns for I
        monkeypatch.setattr(scf, "inverse_sqrt_factor", lambda s: np.eye(s.shape[0]))
        n = 16
        h, a, h1 = gapped_case(rng, n, 97)
        kernel = hubbard(1.0) if kernel_kind == "hubbard" else bilinear(rng, n, scale=0.3)
        runs = []
        for s in (None, np.eye(n)):
            state = scf_ground_state(h, s, kernel, n // 2, ScfConfig(beta_t=beta_t))
            d1, chi = scf_response(state, h1), scf_response(state, a)
            runs.append(
                [state.d0, d1.response, chi.response, state.residuals, d1.residuals, chi.residuals]
            )
        for got, want in zip(*runs):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("beta_t", [None, 20.0])
    def test_no_overlap_makes_no_loewdin_product(self, rng, monkeypatch, beta_t):
        factors = []

        def spy(x, z, direction):
            factors.append(z)
            return congruence_transform(x, z, direction)

        monkeypatch.setattr(scf, "congruence_transform", spy)
        n = 12
        h, a, h1 = gapped_case(rng, n, 98)
        state = scf_ground_state(h, None, bilinear(rng, n), n // 2, ScfConfig(beta_t=beta_t))
        scf_response(state, h1)
        scf_response(state, a)
        assert state.z is None
        assert factors and all(z is None for z in factors)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda h, s, h1: scf_ground_state(one_ulp_asymmetric(h), s, hubbard(), 5), "H_core"),
            (lambda h, s, h1: scf_ground_state(h, one_ulp_asymmetric(s), hubbard(), 5), "S"),
            (
                lambda h, s, h1: scf_response(
                    scf_ground_state(h, s, hubbard(), 5), one_ulp_asymmetric(h1)
                ),
                "seed",
            ),
        ],
        ids=["h_core", "s", "seed"],
    )
    def test_one_ulp_asymmetry_rejected(self, rng, call, name):
        # the message names the operand: H_core and S fail the same test
        h, s = overlap_chain_matrices(10, 1.0, 0.2)
        with pytest.raises(ValueError, match=f"^{name} is not exactly symmetric$"):
            call(h, s, random_symmetric(rng, 10))
