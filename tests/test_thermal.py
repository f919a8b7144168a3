import numpy as np
import pytest
from scipy.special import expit

from dmresponse import cli
from dmresponse.linalg import sym_eigendecompose, trace_product
from dmresponse.models import ModelSpec, gapped_random_hamiltonian, generate_model
from dmresponse.response import susceptibility_forward
from dmresponse.sp2 import sp2_ground_state
from dmresponse.thermal import (
    canonical_dm_response,
    canonical_susceptibility,
    fermi_function,
    fermi_matrix_and_mu,
    loewner_matrix,
)

from conftest import one_ulp_asymmetric, random_symmetric


class TestFermiMatrix:
    def test_single_level_half_filling(self):
        d, mu0 = fermi_matrix_and_mu(np.array([[0.7]]), 10.0, 0.5)
        assert abs(mu0 - 0.7) < 1e-9
        np.testing.assert_allclose(d, [[0.5]], atol=1e-12)

    def test_particle_hole_symmetric_two_level(self):
        for beta_t in (1.0, 10.0, 100.0):
            d, mu0 = fermi_matrix_and_mu(np.diag([0.0, 1.0]), beta_t, 1.0)
            assert abs(mu0 - 0.5) < 1e-9
            f = fermi_function(np.array([0.0, 1.0]), beta_t, mu0)
            np.testing.assert_allclose(np.diag(d), f, atol=1e-12)
            assert abs(np.trace(d) - 1.0) <= 1e-10

    def test_occupation_constraint_random(self, rng):
        h = random_symmetric(rng, 40)
        d, _ = fermi_matrix_and_mu(h, 20.0, 13.0)
        assert abs(np.trace(d) - 13.0) <= 1e-10
        # occupations lie in (0, 1); reconstruction round-off can graze the
        # endpoints by ~eps
        vals = sym_eigendecompose(d).values
        assert np.all(vals > -1e-12) and np.all(vals < 1.0 + 1e-12)

    def test_low_temperature_reaches_projector(self):
        n, n_occ = 30, 15
        h = gapped_random_hamiltonian(n, 2.0, n_occ, seed=70)
        d_cold, _ = fermi_matrix_and_mu(h, 200.0, float(n_occ))
        d0, _ = sp2_ground_state(h, n_occ)
        assert np.linalg.norm(d_cold - d0) <= 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fermi_matrix_and_mu(np.eye(3), -1.0, 1.0)
        with pytest.raises(ValueError):
            fermi_matrix_and_mu(np.eye(3), 1.0, 3.5)
        h = gapped_random_hamiltonian(8, 1.0, 4, seed=1)
        for beta_t in (np.nan, np.inf):
            with pytest.raises(ValueError, match="beta_t must be finite and positive"):
                fermi_matrix_and_mu(h, beta_t, 4.0)
            with pytest.raises(ValueError, match="beta_t must be finite and positive"):
                canonical_susceptibility(h, np.eye(8), beta_t, 4.0)
        # the bracket check names the failure before brentq is reached
        with pytest.raises(ValueError, match="no chemical potential bracketed"):
            fermi_matrix_and_mu(np.diag([0.0, 1.0]), 10.0, 1e-30)

    @pytest.mark.parametrize("n, beta_t", [(40, 20.0), (100, 50.0)])
    def test_occupation_met_to_roundoff(self, n, beta_t):
        # mu0 is resolved to float64's eps, so Tr[D] meets n_occ to the
        # rounding of the trace itself
        h, _ = generate_model(ModelSpec("gapped_random", n, 1.0, seed=0))
        d, _ = fermi_matrix_and_mu(h, beta_t, n / 2)
        assert abs(np.trace(d) - n / 2) <= 1e-13

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda h, m: fermi_matrix_and_mu(one_ulp_asymmetric(h), 20.0, 4.0), "h"),
            (lambda h, m: canonical_dm_response(one_ulp_asymmetric(h), m, 20.0, 4.0), "h"),
            (lambda h, m: canonical_susceptibility(h, one_ulp_asymmetric(m), 20.0, 4.0), "a"),
            (lambda h, m: canonical_dm_response(h, one_ulp_asymmetric(m), 20.0, 4.0), "h1"),
        ],
        ids=["h", "h_of_response", "a", "h1"],
    )
    def test_rejects_one_ulp_asymmetry(self, rng, call, name):
        # h is checked where it is eigendecomposed, so no triangle is read
        # alone; a direction is checked before it is differentiated along.
        # The message names the operand.
        h = gapped_random_hamiltonian(8, 1.0, 4, seed=2)
        with pytest.raises(ValueError, match=f"^{name} is not exactly symmetric$"):
            call(h, random_symmetric(rng, 8))


# (mu0, mu1) of `respond --kind gapped_random --size 100 --beta-t B --mode
# both` at seed 0, with the command line's seed-0 fill-ins (the observable
# drawn before H1), from a 120-digit mpmath evaluation of the same inputs
COLD_REFERENCES = {
    50.0: (0.010682239966027463, 0.023495900228787379),
    75.0: (0.0097803000761099701, 0.020573444249398083),
    200.0: (0.0089554615373932342, -0.0016784881429584798),
    400.0: (0.0089372481833319077, -0.0030483730870864983),
}


def _respond(beta_t):
    return cli.run(cli.RunConfig("respond", kind="gapped_random", size=100, beta_t=beta_t))


class TestLowTemperature:
    """mu0 and mu1 stay determined by the input when beta_t times the gap is
    large and each state next to the gap holds about exp(-beta_t / 2)."""

    @pytest.fixture(scope="class")
    def results(self):
        return {beta_t: _respond(beta_t)[1]["results"] for beta_t in COLD_REFERENCES}

    @pytest.mark.parametrize("beta_t", sorted(COLD_REFERENCES))
    def test_mu0_and_mu1_match_references(self, results, beta_t):
        mu0, mu1 = COLD_REFERENCES[beta_t]
        assert abs(results[beta_t]["mu0"] - mu0) <= 1e-9 * abs(mu0)
        assert abs(results[beta_t]["mu1"] - mu1) <= 1e-9 * abs(mu1)

    def test_mu0_approaches_midgap(self, results):
        h, _ = generate_model(ModelSpec("gapped_random", 100, 1.0, seed=0))
        values = np.linalg.eigvalsh(h)
        midgap = 0.5 * (values[49] + values[50])
        offsets = [abs(results[beta_t]["mu0"] - midgap) for beta_t in sorted(COLD_REFERENCES)]
        assert all(later < earlier for earlier, later in zip(offsets, offsets[1:])), offsets

    def test_vanishing_mu_response_still_exits_1(self):
        # at beta_t = 1500 f' underflows to zero on the whole spectrum
        code, report = _respond(1500.0)
        assert code == 1
        assert report["error"]["type"] == "ValueError"
        assert "ill-posed" in report["error"]["message"]


class TestLoewnerMatrix:
    def test_diagonal_is_derivative(self):
        lam = np.array([-1.0, 0.2, 3.0])
        f = lambda x: x**3
        fp = lambda x: 3.0 * x**2
        ell = loewner_matrix(lam, f, fp)
        np.testing.assert_allclose(np.diag(ell), fp(lam), atol=1e-12)
        assert np.array_equal(ell, ell.T)

    def test_fermi_entries_nonpositive(self, rng):
        lam = np.sort(rng.uniform(-2, 2, 20))
        beta_t, mu = 15.0, 0.1
        ell = loewner_matrix(
            lam,
            lambda x: fermi_function(x, beta_t, mu),
            lambda x: -beta_t * expit(-beta_t * (x - mu)) * expit(beta_t * (x - mu)),
        )
        assert np.all(ell <= 1e-15)

    def test_degenerate_pair_uses_midpoint_derivative(self):
        lam = np.array([1.0, 1.0 + 1e-12])
        f = lambda x: x**2
        fp = lambda x: 2.0 * x
        ell = loewner_matrix(lam, f, fp)
        assert abs(ell[0, 1] - 2.0 * (1.0 + 0.5e-12)) < 1e-9


class TestCanonicalSusceptibility:
    def test_identity_observable_absorbed_by_mu1(self, rng):
        h = random_symmetric(rng, 12)
        chi, mu1 = canonical_susceptibility(h, np.eye(12), 5.0, 6.0)
        assert abs(mu1 - 1.0) < 1e-12
        assert np.linalg.norm(chi) < 1e-12

    def test_uniform_shift_invariance(self, rng):
        h = random_symmetric(rng, 10)
        b = random_symmetric(rng, 10)
        chi_b, mu1_b = canonical_susceptibility(h, b, 7.0, 4.0)
        chi_shift, mu1_shift = canonical_susceptibility(h, b + 2.5 * np.eye(10), 7.0, 4.0)
        np.testing.assert_allclose(chi_shift, chi_b, atol=1e-11)
        assert abs((mu1_shift - mu1_b) - 2.5) < 1e-10

    def test_trace_neutrality(self, rng):
        h = random_symmetric(rng, 25)
        a = random_symmetric(rng, 25)
        chi, _ = canonical_susceptibility(h, a, 12.0, 11.0)
        assert abs(np.trace(chi)) <= 1e-10 * max(np.linalg.norm(chi), 1.0)

    def test_low_temperature_matches_zero_t_susceptibility(self):
        n, n_occ = 30, 15
        h = gapped_random_hamiltonian(n, 2.0, n_occ, seed=71)
        rng = np.random.default_rng(72)
        a = 0.5 * (lambda m: m + m.T)(rng.standard_normal((n, n)))
        chi_t, _ = canonical_susceptibility(h, a, 200.0, float(n_occ))
        _, chi_0, _ = susceptibility_forward(h, a, n_occ)
        assert np.linalg.norm(chi_t - chi_0) <= 1e-5

    def test_finite_t_duality(self, rng):
        n = 20
        h = random_symmetric(rng, n)
        a = random_symmetric(rng, n)
        h1 = random_symmetric(rng, n)
        beta_t, n_occ = 9.0, 8.0
        d1, _ = canonical_dm_response(h, h1, beta_t, n_occ)
        chi, _ = canonical_susceptibility(h, a, beta_t, n_occ)
        direct = trace_product(a, d1)
        dual = trace_product(chi, h1)
        assert abs(direct - dual) <= 1e-9 * max(abs(direct), 1e-12)

    def test_monotone_zero_t_limit(self):
        n, n_occ = 24, 12
        h = gapped_random_hamiltonian(n, 2.0, n_occ, seed=73)
        rng = np.random.default_rng(74)
        a = 0.5 * (lambda m: m + m.T)(rng.standard_normal((n, n)))
        _, chi_0, _ = susceptibility_forward(h, a, n_occ)
        d0, _ = sp2_ground_state(h, n_occ)
        errs_chi = []
        errs_d = []
        for beta_t in (20.0, 50.0, 100.0, 200.0):
            chi_t, _ = canonical_susceptibility(h, a, beta_t, float(n_occ))
            d_t, _ = fermi_matrix_and_mu(h, beta_t, float(n_occ))
            errs_chi.append(np.linalg.norm(chi_t - chi_0))
            errs_d.append(np.linalg.norm(d_t - d0))
        # strictly decreasing until the double-precision floor, where the
        # thermal correction (exp(-beta*gap/2)) underflows below round-off
        floor = 1e-11
        assert all(b < a or b <= floor for a, b in zip(errs_chi, errs_chi[1:]))
        assert all(b < a or b <= floor for a, b in zip(errs_d, errs_d[1:]))


def test_hadamard_trace_identity(rng):
    # Tr[(L o X) Y] == Tr[(L o Y) X] for symmetric X, Y and any Loewner L
    lam = np.sort(rng.uniform(-3, 3, 15))
    ell = loewner_matrix(lam, np.tanh, lambda x: 1.0 / np.cosh(x) ** 2)
    for _ in range(25):
        x = random_symmetric(rng, 15)
        y = random_symmetric(rng, 15)
        lhs = trace_product(ell * x, y)
        rhs = trace_product(ell * y, x)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
