"""Acceptance gate: one test per release criterion.

Each test measures at the pinned tolerance and prints a single
"ACCEPTANCE criterion-N: PASS/FAIL" line (visible with `pytest -s` or in the
captured output of a failure). The library is exercised through its public
API only; every expected value comes from an independent oracle, a closed
form, or a cross-check between routes that share no code path.
"""

import time

import numpy as np
import pytest

from dmresponse.linalg import (
    inverse_sqrt_factor,
    sym_eigendecompose,
    symmetrize,
    trace_product,
)
from dmresponse.mixedprec import _round16, mixed_response_pipeline
from dmresponse.models import chain_hamiltonian, gapped_random_hamiltonian
from dmresponse.oracles import (
    binary16_reference_bits,
    finite_difference_response,
    projector_derivative_exact,
)
from dmresponse.response import (
    dm_perturbation_forward,
    observable_position_derivative,
    orthogonal_hamiltonian_derivative,
    susceptibility_backward,
    susceptibility_forward,
    z_position_derivative,
)
from dmresponse.scf import (
    BilinearKernel,
    DiagonalHubbardKernel,
    ScfConfig,
    scf_dm_response,
    scf_ground_state,
    scf_susceptibility,
)
from dmresponse.sp2 import sp2_ground_state
from dmresponse.sparse import sp_trace_product, sparsify
from dmresponse.thermal import (
    canonical_susceptibility,
    fermi_matrix_and_mu,
    loewner_matrix,
)

from conftest import (
    chain_observable_value,
    projector_builder,
    random_symmetric,
    three_atom_chain,
    three_atom_chain_tau,
)


def _report(criterion: str, checks: list[tuple[str, bool, str]]):
    ok = all(good for _, good, _ in checks)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    for name, good, detail in checks:
        print(f"    {name}: {'ok' if good else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: " + "; ".join(name for name, good, _ in checks if not good)


def _twenty_systems():
    """The shared batch for criteria 1, 2, and 4: N = 50, gap >= 0.5."""
    rng = np.random.default_rng(515151)
    out = []
    for seed in range(20):
        h0 = gapped_random_hamiltonian(50, 0.5, 25, seed=9000 + seed)
        a = random_symmetric(rng, 50)
        h1 = random_symmetric(rng, 50)
        out.append((h0, a, h1))
    return out


def test_criterion_01_duality_identity():
    start = time.perf_counter()
    worst = 0.0
    for h0, a, h1 in _twenty_systems():
        _, d1, tr = dm_perturbation_forward(h0, h1, 25)
        _, chi, _ = susceptibility_forward(h0, a, 25, trace=tr)
        direct = trace_product(a, d1)
        dual = trace_product(chi, h1)
        worst = max(worst, abs(direct - dual) / max(abs(direct), 1e-12))
    elapsed = time.perf_counter() - start
    _report(
        "criterion-1 duality identity",
        [
            ("relative deviation <= 1e-10 on 20 systems", worst <= 1e-10, f"worst {worst:.3e}"),
            ("runtime < 10 s", elapsed < 10.0, f"{elapsed:.2f} s"),
        ],
    )


def test_criterion_02_forward_backward_equivalence():
    worst = 0.0
    for h0, a, _ in _twenty_systems():
        _, chi_f, _ = susceptibility_forward(h0, a, 25)
        _, chi_b, _ = susceptibility_backward(h0, a, 25)
        dev = np.linalg.norm(chi_f - chi_b) / max(1.0, np.linalg.norm(chi_f))
        worst = max(worst, dev)
    _report(
        "criterion-2 forward/backward equivalence",
        [("||chi_fwd - chi_bwd||_F <= 1e-9 rel", worst <= 1e-9, f"worst {worst:.3e}")],
    )


def test_criterion_03_oracle_agreement():
    worst_exact = 0.0
    worst_fd = 0.0
    for seed in range(5):
        n, n_occ = 40, 20
        h0 = gapped_random_hamiltonian(n, 0.8, n_occ, seed=9100 + seed)
        rng = np.random.default_rng(9200 + seed)
        direction = symmetrize(rng.standard_normal((n, n)))
        _, d1, _ = dm_perturbation_forward(h0, direction, n_occ)
        eig = sym_eigendecompose(h0)
        mu = 0.5 * (eig.values[n_occ - 1] + eig.values[n_occ])
        exact = projector_derivative_exact(eig, direction, mu)
        fd = finite_difference_response(projector_builder(n_occ), h0, direction, h=1e-5)
        worst_exact = max(worst_exact, np.linalg.norm(d1 - exact))
        worst_fd = max(worst_fd, np.linalg.norm(d1 - fd))

    # convergence order of the finite-difference oracle itself
    n, n_occ = 24, 12
    h0 = gapped_random_hamiltonian(n, 1.0, n_occ, seed=9300)
    rng = np.random.default_rng(9301)
    direction = symmetrize(rng.standard_normal((n, n)))
    eig = sym_eigendecompose(h0)
    mu = 0.5 * (eig.values[n_occ - 1] + eig.values[n_occ])
    exact = projector_derivative_exact(eig, direction, mu)
    errs = [
        np.linalg.norm(
            finite_difference_response(projector_builder(n_occ), h0, direction, h=h) - exact
        )
        for h in (1e-3, 1e-4, 1e-5)
    ]
    orders = [np.log10(errs[0] / errs[1]), np.log10(errs[1] / errs[2])]
    _report(
        "criterion-3 oracle agreement",
        [
            ("recursive D1 vs eigenbasis oracle <= 1e-7", worst_exact <= 1e-7, f"worst {worst_exact:.3e}"),
            ("recursive D1 vs finite differences <= 1e-5", worst_fd <= 1e-5, f"worst {worst_fd:.3e}"),
            (
                "FD convergence order in [1.8, 2.2]",
                all(1.8 <= o <= 2.2 for o in orders),
                f"orders {orders[0]:.2f}, {orders[1]:.2f}",
            ),
        ],
    )


def test_criterion_04_sp2_correctness():
    worst_idem = worst_trace = worst_theta = 0.0
    for h0, _, _ in _twenty_systems():
        d0, _ = sp2_ground_state(h0, 25)
        worst_idem = max(worst_idem, np.linalg.norm(d0 @ d0 - d0))
        worst_trace = max(worst_trace, abs(np.trace(d0) - 25))
        eig = sym_eigendecompose(h0)
        mu = 0.5 * (eig.values[24] + eig.values[25])
        occ = (eig.values < mu).astype(float)
        theta = (eig.vectors * occ) @ eig.vectors.T
        worst_theta = max(worst_theta, np.linalg.norm(d0 - theta))

    d_a, _ = sp2_ground_state(np.diag([0.0, 1.0]), 1)
    d_b, _ = sp2_ground_state(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    closed_a = np.max(np.abs(d_a - np.diag([1.0, 0.0])))
    closed_b = np.max(np.abs(d_b - np.array([[0.5, -0.5], [-0.5, 0.5]])))
    _report(
        "criterion-4 ground-state correctness",
        [
            ("||D0^2 - D0||_F <= 1e-7", worst_idem <= 1e-7, f"worst {worst_idem:.3e}"),
            ("|Tr[D0] - N_occ| <= 1e-8", worst_trace <= 1e-8, f"worst {worst_trace:.3e}"),
            ("||D0 - theta_oracle||_F <= 1e-7", worst_theta <= 1e-7, f"worst {worst_theta:.3e}"),
            (
                "2x2 closed forms exact to 1e-12",
                max(closed_a, closed_b) <= 1e-12,
                f"worst {max(closed_a, closed_b):.3e}",
            ),
        ],
    )


def test_criterion_05_self_consistent_duality():
    rng = np.random.default_rng(9400)
    n, n_occ = 14, 7
    h_core = gapped_random_hamiltonian(n, 1.2, n_occ, seed=9401)
    a = random_symmetric(rng, n)
    h1 = random_symmetric(rng, n)
    cfg = ScfConfig(c_mix=0.3, eps_scf=1e-11, max_iters=500)
    kernels = {
        "hubbard": DiagonalHubbardKernel(0.1),
        "bilinear": BilinearKernel(
            random_symmetric(rng, n, scale=0.08 / np.sqrt(n)),
            random_symmetric(rng, n, scale=0.08 / np.sqrt(n)),
        ),
    }
    checks = []
    for name, kernel in kernels.items():
        state = scf_ground_state(h_core, None, kernel, n_occ, cfg)
        d1 = scf_dm_response(state, h1)
        chi = scf_susceptibility(state, a)
        direct = trace_product(a, d1)
        dual = trace_product(chi, h1)
        dev = abs(direct - dual) / max(abs(direct), 1e-12)
        checks.append((f"{name} kernel duality <= 1e-9 rel", dev <= 1e-9, f"{dev:.3e}"))

    kernel = kernels["hubbard"]
    state = scf_ground_state(h_core, None, kernel, n_occ, cfg)
    d1 = scf_dm_response(state, h1)
    step = 1e-4
    d_plus = scf_ground_state(h_core + step * h1, None, kernel, n_occ, cfg).d0
    d_minus = scf_ground_state(h_core - step * h1, None, kernel, n_occ, cfg).d0
    fd_err = np.linalg.norm(d1 - (d_plus - d_minus) / (2 * step))
    checks.append(("full-SCF finite-difference oracle <= 1e-5", fd_err <= 1e-5, f"{fd_err:.3e}"))
    _report("criterion-5 self-consistent duality", checks)


def test_criterion_06_finite_temperature():
    rng = np.random.default_rng(9500)
    worst_neutrality = 0.0
    for _ in range(20):
        h = random_symmetric(rng, 20)
        a = random_symmetric(rng, 20)
        chi, _ = canonical_susceptibility(h, a, 10.0, 9.0)
        worst_neutrality = max(
            worst_neutrality, abs(np.trace(chi)) / max(np.linalg.norm(chi), 1e-300)
        )

    n, n_occ, gap = 24, 12, 2.0
    h = gapped_random_hamiltonian(n, gap, n_occ, seed=9501)
    a = random_symmetric(rng, n)
    _, chi_0, _ = susceptibility_forward(h, a, n_occ)
    d0, _ = sp2_ground_state(h, n_occ)
    errs_chi, errs_d = [], []
    for beta_t in (20.0, 50.0, 100.0, 200.0):  # beta * gap in {40, 100, 200, 400}
        chi_t, _ = canonical_susceptibility(h, a, beta_t, float(n_occ))
        d_t, _ = fermi_matrix_and_mu(h, beta_t, float(n_occ))
        errs_chi.append(np.linalg.norm(chi_t - chi_0))
        errs_d.append(np.linalg.norm(d_t - d0))
    floor = 1e-11  # below this the thermal correction is under round-off
    monotone = all(
        b < a or b <= floor for seq in (errs_chi, errs_d) for a, b in zip(seq, seq[1:])
    )

    worst_hadamard = 0.0
    lam = np.sort(rng.uniform(-3.0, 3.0, 18))
    ell = loewner_matrix(lam, np.tanh, lambda x: 1.0 / np.cosh(x) ** 2)
    for _ in range(100):
        x = random_symmetric(rng, 18)
        y = random_symmetric(rng, 18)
        lhs = trace_product(ell * x, y)
        rhs = trace_product(ell * y, x)
        worst_hadamard = max(worst_hadamard, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    _report(
        "criterion-6 finite temperature",
        [
            (
                "|Tr[chi]| <= 1e-10 * ||chi||_F",
                worst_neutrality <= 1e-10,
                f"worst {worst_neutrality:.3e}",
            ),
            (
                "zero-T limit monotone over beta*gap in {40,100,200,400}",
                monotone,
                f"chi errors {['%.2e' % e for e in errs_chi]}",
            ),
            (
                "Hadamard trace identity <= 1e-12 rel, 100 triples",
                worst_hadamard <= 1e-12,
                f"worst {worst_hadamard:.3e}",
            ),
        ],
    )


def test_criterion_07_mixed_precision():
    rng = np.random.default_rng(9600)
    n, n_occ = 64, 32
    worst_chi_route = 0.0
    direct_route_errs = []
    counts_ok = True
    for seed in range(10):
        # spectral width is 2 * bandwidth = 4; gap 1.6 = 0.4 * width
        h0 = gapped_random_hamiltonian(n, 1.6, n_occ, seed=9700 + seed)
        a = random_symmetric(rng, n, scale=0.5)
        h1 = random_symmetric(rng, n, scale=0.5)
        res = mixed_response_pipeline(h0, a, n_occ, mode="susceptibility")
        counts_ok = counts_ok and (res.mult_count == 5 * res.trace.m_steps)
        _, chi64, tr = susceptibility_forward(h0, a, n_occ)
        val16 = trace_product(res.response, h1)
        val64 = trace_product(chi64, h1)
        worst_chi_route = max(worst_chi_route, abs(val16 - val64) / abs(val64))
        # the direct route's accuracy is recorded as a measurement, not asserted
        res_d = mixed_response_pipeline(h0, h1, n_occ, mode="perturbation")
        _, d1_64, _ = dm_perturbation_forward(h0, h1, n_occ, trace=tr)
        ref = trace_product(a, d1_64)
        direct_route_errs.append(abs(trace_product(a, res_d.response) - ref) / abs(ref))

    samples = 1_000_000
    mags = 10.0 ** np.random.default_rng(9601).uniform(-9.0, np.log10(65504.0), samples)
    signs = np.random.default_rng(9602).choice([-1.0, 1.0], size=samples)
    xs = np.concatenate(
        [
            mags * signs,
            [0.0, -0.0, 65504.0, -65504.0, 2.0**-24, 2.0**-25, 2.0**-14, 1.0 + 2.0**-11],
        ]
    )
    ref_bits = binary16_reference_bits(xs)
    # the rounding split16 runs on; its float32 output is on the binary16
    # grid, so the cast to float16 is exact
    emu_bits = _round16(xs).astype(np.float16).view(np.uint16)
    bit_exact = bool(np.array_equal(ref_bits, emu_bits))
    print(
        "    measured direct-route relative errors (reported, not asserted):",
        ["%.2e" % e for e in direct_route_errs],
    )
    _report(
        "criterion-7 mixed precision",
        [
            (
                "split16 chi-route within 5% of f64, 10 seeds",
                worst_chi_route <= 0.05,
                f"worst {worst_chi_route:.3e}",
            ),
            ("multiplication count exactly 5 per step", counts_ok, "5*M verified"),
            (
                "binary16 emulation bit-exact vs independent encoder (1e6 + boundaries)",
                bit_exact,
                f"{samples} samples",
            ),
        ],
    )


def _first_order_reference(h, a, h1, n_occ):
    """a0 = Tr[A D0] and a1 = Tr[A D1] from one LAPACK eigendecomposition.

    First-order perturbation theory couples each occupied state i to each
    virtual state v with weight 1/(e_i - e_v), so
    a1 = 2 sum_{i,v} (V^T A V)_iv (V^T H1 V)_iv / (e_i - e_v).
    A and H1 are applied in CSR form; only the occupied-virtual blocks are
    formed.
    """
    e, v = np.linalg.eigh(h)
    vo, vv = v[:, :n_occ], v[:, n_occ:]
    a_csr, h1_csr = sparsify(a, 0.0).csr, sparsify(h1, 0.0).csr
    a0 = float(np.sum(vo * (a_csr @ vo)))
    a_ov = vo.T @ (a_csr @ vv)
    h1_ov = vo.T @ (h1_csr @ vv)
    a1 = 2.0 * float(np.sum(a_ov * h1_ov / (e[:n_occ, None] - e[None, n_occ:])))
    return a0, a1


def test_criterion_08_sparse_scaling():
    start = time.perf_counter()
    tau, gap = 1e-6, 2.0
    sizes = (500, 1000, 2000, 4000)
    walls = []
    worst_obs = 0.0
    for n in sizes:
        n_occ = n // 2
        h = chain_hamiltonian(n, gap)
        rng = np.random.default_rng(n)
        a = np.zeros((n, n))
        np.fill_diagonal(a, rng.uniform(-1.0, 1.0, n))
        h1 = np.zeros((n, n))
        idx = np.arange(n - 1)
        h1[idx, idx + 1] = rng.uniform(-1.0, 1.0, n - 1)
        h1 = symmetrize(h1 + h1.T)

        # the merged forward run yields D0 and chi in a single pass; each
        # size is timed as the fastest of three runs so that one run slowed
        # by other load on the host does not decide the doubling ratio
        hs, a_s, h1_s = sparsify(h, tau), sparsify(a, tau), sparsify(h1, tau)
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            d0_s, chi_s, _ = susceptibility_forward(hs, a_s, n_occ)
            runs.append(time.perf_counter() - t0)
        walls.append(min(runs))

        a0_ref, a1_ref = _first_order_reference(h, a, h1, n_occ)
        a0_err = abs(sp_trace_product(a_s, d0_s) - a0_ref)
        a1_err = abs(sp_trace_product(chi_s, h1_s) - a1_ref)
        worst_obs = max(worst_obs, a0_err, a1_err)
    ratios = [walls[i + 1] / walls[i] for i in range(len(sizes) - 1)]
    elapsed = time.perf_counter() - start
    _report(
        "criterion-8 thresholded-sparse scaling",
        [
            ("observable error vs dense <= 1e-4", worst_obs <= 1e-4, f"worst {worst_obs:.3e}"),
            (
                "wall-time doubling ratios < 3.0",
                all(r < 3.0 for r in ratios),
                f"ratios {['%.2f' % r for r in ratios]}",
            ),
            ("total runtime < 5 min", elapsed < 300.0, f"{elapsed:.1f} s"),
        ],
    )


def test_criterion_09_polynomial_identity():
    rng = np.random.default_rng(9800)
    n = 8
    worst = 0.0
    for _ in range(50):
        coeffs = rng.uniform(-1.0, 1.0, 7)  # degree <= 6
        x = random_symmetric(rng, n, scale=0.4)
        a = random_symmetric(rng, n)

        def poly(m):
            out = coeffs[0] * np.eye(n)
            p = np.eye(n)
            for c in coeffs[1:]:
                p = p @ m
                out = out + c * p
            return out

        def trace_value(m):
            return trace_product(a, poly(m))

        # gradient of the trace by entrywise Richardson finite differences
        grad = np.zeros((n, n))
        h = 1e-4
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n))
                e[i, j] = 1.0
                d_h = (trace_value(x + h * e) - trace_value(x - h * e)) / (2 * h)
                d_h2 = (trace_value(x + 0.5 * h * e) - trace_value(x - 0.5 * h * e)) / h
                grad[i, j] = (4.0 * d_h2 - d_h) / 3.0

        # directional derivative by expanding the non-commutative first order
        direction = np.zeros((n, n))
        powers = [np.eye(n)]
        for _ in range(6):
            powers.append(powers[-1] @ x)
        for deg, c in enumerate(coeffs):
            for k in range(deg):
                direction = direction + c * (powers[k] @ a.T @ powers[deg - 1 - k])

        dev = np.max(np.abs(grad - direction)) / max(1.0, np.max(np.abs(direction)))
        worst = max(worst, dev)
    _report(
        "criterion-9 polynomial trace-gradient identity",
        [("gradient vs directional derivative <= 1e-9 rel, 50 trials", worst <= 1e-9, f"worst {worst:.3e}")],
    )


def test_criterion_10_non_orthogonal_consistency():
    r0 = np.array([0.0, 1.1, 2.3])
    n_occ = 1
    worst_assembly = 0.0
    for k in range(3):
        s, h0, a = three_atom_chain(r0)
        s_tau, h_tau, a_tau = three_atom_chain_tau(r0, k)
        z = inverse_sqrt_factor(s)
        s_inv = np.linalg.inv(s)
        h_perp = symmetrize(z.T @ h0 @ z)
        a_perp = symmetrize(z.T @ a @ z)
        d_perp = projector_builder(n_occ)(h_perp)
        d = z @ d_perp @ z.T
        _, chi_perp, _ = susceptibility_forward(h_perp, a_perp, n_occ)
        z_tau = z_position_derivative(s_inv, s_tau, z)
        h_tau_perp = orthogonal_hamiltonian_derivative(h0, h_tau, z, z_tau)
        total = observable_position_derivative(
            a, a_tau, d, s_inv, s_tau, chi_perp=chi_perp, h_tau_perp=h_tau_perp
        )
        h = 1e-5
        ek = np.eye(3)[k]
        fd = (
            chain_observable_value(r0 + h * ek, n_occ) - chain_observable_value(r0 - h * ek, n_occ)
        ) / (2 * h)
        worst_assembly = max(worst_assembly, abs(total - fd))

    rng = np.random.default_rng(9900)
    worst_invariance = 0.0
    for _ in range(10):
        n = 20
        a_m = random_symmetric(rng, n)
        d_perp_m = random_symmetric(rng, n)
        s_m = np.eye(n) + 0.2 * random_symmetric(rng, n, scale=1.0 / np.sqrt(n))
        z_m = inverse_sqrt_factor(s_m)
        lhs = trace_product(a_m, z_m @ d_perp_m @ z_m.T)
        rhs = trace_product(z_m.T @ a_m @ z_m, d_perp_m)
        worst_invariance = max(worst_invariance, abs(lhs - rhs) / max(abs(lhs), 1e-12))
    _report(
        "criterion-10 non-orthogonal consistency",
        [
            (
                "position derivative vs end-to-end FD oracle <= 1e-6",
                worst_assembly <= 1e-6,
                f"worst {worst_assembly:.3e}",
            ),
            (
                "representation invariance <= 1e-10 rel",
                worst_invariance <= 1e-10,
                f"worst {worst_invariance:.3e}",
            ),
        ],
    )
