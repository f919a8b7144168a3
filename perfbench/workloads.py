"""The benchmark's four workloads.

A job is one complete response problem: inputs in, every requested
a1 = Tr[A D1] = Tr[chi H1] value out. Each workload builds a pool of
seeded job inputs at set-up, runs jobs through a tracer (the untraced run
passes NULL_TRACER, which calls straight through), checks each job against
an independent reference, and turns a traced job's spans into per-layer
metrics. See README.md for why each workload exists.

Tolerances are the acceptance suite's pinned ones (tests/test_acceptance.py).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import scipy.sparse as sp

from dmresponse import cli, linalg, mixedprec, mmio, models, response, scf, sparse, thermal

from . import references

# Pinned tolerances (criteria 1, 2, 3, 4, 5, 7 and 8 of the acceptance suite).
DUALITY_RTOL = 1e-10
FWD_BWD_RTOL = 1e-9
ORACLE_RTOL = 1e-7
TRACE_TOL = 1e-8
SCF_DUALITY_RTOL = 1e-9
SPLIT16_RTOL = 0.05
SPARSE_ATOL = 1e-4


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _random_symmetric(rng, n):
    x = rng.standard_normal((n, n))
    return 0.5 * (x + x.T)


def _gapped_random(rng, n, gap):
    """models.generate_model for a gapped_random H0; returns (h0, seconds)."""
    spec = models.ModelSpec(kind="gapped_random", n=n, gap=gap, seed=int(rng.integers(2**31)))
    t0 = time.perf_counter()
    h0, _ = models.generate_model(spec)
    return h0, time.perf_counter() - t0


def _rel(x, ref):
    return abs(x - ref) / max(abs(ref), 1e-12)


def _expect(problems, label, err, tol):
    if not err <= tol:  # also catches NaN
        problems.append(f"{label}: {err:.3e} exceeds {tol:g}")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def median_time(fn, reps=3):
    """Median wall time of fn() over `reps` calls after one warm call."""
    fn()
    return float(np.median([_timed(fn) for _ in range(reps)]))


# ---------------------------------------------------------------------------
# dense routes, shared by dense_respond and the overlap case


ROUTE_SPANS = {
    "perturb": "response.dm_perturbation_forward",
    "suscept_fwd": "response.susceptibility_forward",
    "suscept_bwd": "response.susceptibility_backward",
}


def respond_both(tr, h0, a, h1, n_occ):
    """The three routes `respond --mode both` runs on a dense orthonormal
    problem, in the CLI's order: a fresh forward run, the forward
    susceptibility replaying its branch record, and the backward run."""
    d0, d1, trace = tr.call(response.dm_perturbation_forward, h0, h1, n_occ)
    a1_direct = tr.call(linalg.trace_product, a, d1)
    _, chi, _ = tr.call(response.susceptibility_forward, h0, a, n_occ, trace=trace)
    a1_dual_forward = tr.call(linalg.trace_product, chi, h1)
    d0, chi_b, _ = tr.call(response.susceptibility_backward, h0, a, n_occ)
    a1_dual_backward = tr.call(linalg.trace_product, chi_b, h1)
    a0 = tr.call(linalg.trace_product, a, d0)
    return {
        "a0": a0,
        "a1_direct": a1_direct,
        "a1_dual_forward": a1_dual_forward,
        "a1_dual_backward": a1_dual_backward,
        "trace_d0": float(np.trace(d0)),
        "chi": chi,
        "chi_b": chi_b,
        "m_steps": trace.m_steps,
    }


def check_values(problems, label, out, ref):
    """a0 and every a1 route against an (a0, a1) reference, plus duality."""
    a0_ref, a1_ref = ref
    _expect(problems, f"{label} a0 vs reference", _rel(out["a0"], a0_ref), ORACLE_RTOL)
    for key in ("a1_direct", "a1_dual_forward", "a1_dual_backward"):
        if key in out:
            _expect(problems, f"{label} {key} vs reference", _rel(out[key], a1_ref), ORACLE_RTOL)
    _expect(
        problems,
        f"{label} duality",
        _rel(out["a1_dual_forward"], out["a1_direct"]),
        DUALITY_RTOL,
    )


def check_respond(problems, label, out, ref, n_occ):
    check_values(problems, label, out, ref)
    dev = np.linalg.norm(out["chi"] - out["chi_b"]) / max(np.linalg.norm(out["chi"]), 1e-300)
    _expect(problems, f"{label} chi forward vs backward", dev, FWD_BWD_RTOL)
    _expect(problems, f"{label} trace error", abs(out["trace_d0"] - n_occ), TRACE_TOL)


def dense_route_layers(n, self_s, steps, gemm_floor_s):
    """Route times, GEMM-equivalents per step against a raw x @ x at n, and
    computed flop rate (2 products of 2 n^3 flops per step and route)."""
    m = {"sp2.steps": steps, "sp2.gemm_floor_s": gemm_floor_s}
    total = 0.0
    for key, span in ROUTE_SPANS.items():
        t = self_s.get(span, 0.0)
        total += t
        m[f"response.{key}_s"] = t
        m[f"sp2.gemm_equiv_per_step.{key}"] = t / (steps * gemm_floor_s)
    m["sp2.gflops"] = len(ROUTE_SPANS) * 2 * steps * 2.0 * n**3 / total / 1e9
    m["response.bwd_stored_mb"] = steps * n * n * 8 / 1e6
    return m


# ---------------------------------------------------------------------------


class DenseRespond:
    """gapped_random H0 with fresh seeded H0, A and H1 per job; the three
    dense routes of `respond --mode both`."""

    name = "dense_respond"

    def __init__(self, n=1000, gap=1.0, pool_size=4):
        self.n, self.gap, self.pool_size = n, gap, pool_size
        self.n_occ = n // 2

    def toy(self):
        return DenseRespond(n=48, pool_size=1)

    def make_inputs(self, seed, index, workdir):
        rng = _rng(seed, index)
        h0, models_s = _gapped_random(rng, self.n, self.gap)
        inp = {"h0": h0, "a": _random_symmetric(rng, self.n), "h1": _random_symmetric(rng, self.n)}
        return inp, models_s

    def reference(self, inp):
        return references.zero_temperature(inp["h0"], inp["a"], inp["h1"], self.n_occ)

    def job(self, inp, tr):
        return respond_both(tr, inp["h0"], inp["a"], inp["h1"], self.n_occ)

    def check(self, out, ref):
        problems = []
        check_respond(problems, "dense", out, ref, self.n_occ)
        return problems

    def summary(self, inp, out):
        return {"steps": out["m_steps"]}

    def floors(self, inp, summary):
        h0 = inp["h0"]
        return {
            "gemm_f64_s": median_time(lambda: h0 @ h0, reps=5),
            "eigh_s": median_time(lambda: np.linalg.eigh(h0)),
        }

    def layers(self, self_s, dur_s, summary, floors):
        return dense_route_layers(self.n, self_s, summary["steps"], floors["gemm_f64_s"])


class SparseChain:
    """Dimerized chain in thresholded CSR: D0 and chi by a fresh forward
    susceptibility run, then D1 by replaying its branch record."""

    name = "sparse_chain"

    def __init__(self, n=16000, gap=2.0, tau=1e-6, pool_size=2):
        self.n, self.gap, self.tau, self.pool_size = n, gap, tau, pool_size
        self.n_occ = n // 2
        # The chain itself is the same for every job; A and H1 are seeded.
        self.onsite = np.where(np.arange(n) % 2 == 0, gap / 2.0, -gap / 2.0)
        self.hopping = np.full(n - 1, -1.0)
        self._band_energy = None

    def toy(self):
        return SparseChain(n=200, pool_size=1)

    def _sparse(self, diagonals, offsets):
        m = sp.diags(diagonals, offsets, shape=(self.n, self.n), format="csr")
        m.eliminate_zeros()
        m.sum_duplicates()
        m.sort_indices()
        return sparse.SparseMatrix(m, self.tau)

    def make_inputs(self, seed, index, workdir):
        rng = _rng(seed, index)
        bonds = rng.uniform(-1.0, 1.0, self.n - 1)
        inp = {
            "h0": self._sparse([self.hopping, self.onsite, self.hopping], [-1, 0, 1]),
            "a": self._sparse([rng.uniform(-1.0, 1.0, self.n)], [0]),
            "h1": self._sparse([bonds, bonds], [-1, 1]),
        }
        return inp, 0.0

    def reference(self, inp):
        if self._band_energy is None:
            self._band_energy = references.band_energy(self.onsite, self.hopping, self.n_occ)
        return self._band_energy

    def job(self, inp, tr):
        h0, a, h1 = inp["h0"], inp["a"], inp["h1"]
        d0, chi, trace = tr.call(response.susceptibility_forward, h0, a, self.n_occ)
        _, d1, _ = tr.call(response.dm_perturbation_forward, h0, h1, self.n_occ, trace=trace)
        return {
            "h0": h0,
            "d0": d0,
            "chi": chi,
            "a0": tr.call(sparse.sp_trace_product, a, d0),
            "a1_direct": tr.call(sparse.sp_trace_product, a, d1),
            "a1_dual": tr.call(sparse.sp_trace_product, chi, h1),
            "m_steps": trace.m_steps,
        }

    def check(self, out, ref):
        problems = []
        band = float(out["h0"].csr.multiply(out["d0"].csr).sum())
        _expect(problems, "sparse band energy vs eigvalsh_tridiagonal", abs(band - ref), SPARSE_ATOL)
        _expect(
            problems,
            "sparse routes",
            abs(out["a1_direct"] - out["a1_dual"]),
            SPARSE_ATOL,
        )
        return problems

    def summary(self, inp, out):
        return {
            "steps": out["m_steps"],
            "nnz_per_row_d0": out["d0"].nnz / self.n,
            "nnz_per_row_chi": out["chi"].nnz / self.n,
            "d0": out["d0"].csr,
        }

    def floors(self, inp, summary):
        d0 = summary["d0"]
        return {"spgemm_s": median_time(lambda: d0 @ d0)}

    def layers(self, self_s, dur_s, summary, floors):
        expand = self_s.get("response.susceptibility_forward", 0.0)
        replay = self_s.get("response.dm_perturbation_forward", 0.0)
        steps = summary["steps"]
        return {
            "sparse.expand_s": expand,
            "sparse.replay_s": replay,
            "sparse.steps": steps,
            "sparse.spgemm_floor_s": floors["spgemm_s"],
            "sparse.spgemm_equiv_per_step": (expand + replay) / (2 * steps * floors["spgemm_s"]),
            "sparse.nnz_per_row.d0": summary["nnz_per_row_d0"],
            "sparse.nnz_per_row.chi": summary["nnz_per_row_chi"],
        }


class SmallVariants:
    """One `respond --mode both` equivalent on each of four small cases:
    thermal, zero-T SCF, dense-orthogonalized overlap chain and split16."""

    name = "small_variants"

    def __init__(self, n=100, n16=256, beta_t=50.0, hubbard=0.1, gap16=1.6, pool_size=3):
        self.n, self.n16, self.beta_t, self.hubbard, self.gap16 = n, n16, beta_t, hubbard, gap16
        self.pool_size = pool_size

    def toy(self):
        return SmallVariants(n=12, n16=24, pool_size=1)

    def make_inputs(self, seed, index, workdir):
        rng = _rng(seed, index)
        n, n16 = self.n, self.n16
        h_thermal, s1 = _gapped_random(rng, n, 1.0)
        h_scf, s2 = _gapped_random(rng, n, 1.0)
        h16, s3 = _gapped_random(rng, n16, self.gap16)
        t0 = time.perf_counter()
        h_overlap, s_overlap = models.generate_model(models.ModelSpec(kind="overlap_chain", n=n))
        s4 = time.perf_counter() - t0
        inp = {
            "thermal": (h_thermal, _random_symmetric(rng, n), _random_symmetric(rng, n)),
            "scf": (h_scf, _random_symmetric(rng, n), _random_symmetric(rng, n)),
            "overlap": (h_overlap, s_overlap, _random_symmetric(rng, n), _random_symmetric(rng, n)),
            "split16": (h16, _random_symmetric(rng, n16), _random_symmetric(rng, n16)),
        }
        return inp, s1 + s2 + s3 + s4

    def reference(self, inp):
        n_occ, n16_occ = self.n // 2, self.n16 // 2
        h, a, h1 = inp["thermal"]
        ho, s, ao, h1o = inp["overlap"]
        h16, a16, h116 = inp["split16"]
        return {
            "thermal": references.canonical(h, a, h1, self.beta_t, float(n_occ)),
            "overlap": references.generalized(ho, s, ao, h1o, n_occ),
            "split16": references.zero_temperature(h16, a16, h116, n16_occ),
        }

    def job(self, inp, tr):
        n_occ = self.n // 2
        out = {}
        tp = linalg.trace_product

        with tr.span("bench.thermal"):
            h, a, h1 = inp["thermal"]
            nf = float(n_occ)
            d, _ = tr.call(thermal.fermi_matrix_and_mu, h, self.beta_t, nf)
            d1, _ = tr.call(thermal.canonical_dm_response, h, h1, self.beta_t, nf)
            chi, _ = tr.call(thermal.canonical_susceptibility, h, a, self.beta_t, nf)
            out["thermal"] = {
                "a0": tr.call(tp, a, d),
                "a1_direct": tr.call(tp, a, d1),
                "a1_dual_forward": tr.call(tp, chi, h1),
            }

        with tr.span("bench.scf"):
            h, a, h1 = inp["scf"]
            kernel = scf.DiagonalHubbardKernel(self.hubbard)
            state = tr.call(scf.scf_ground_state, h, None, kernel, n_occ, scf.ScfConfig())
            d1 = tr.call(scf.scf_dm_response, state, h1)
            chi = tr.call(scf.scf_susceptibility, state, a)
            out["scf"] = {
                "a1_direct": tr.call(tp, a, d1),
                "a1_dual_forward": tr.call(tp, chi, h1),
                "trace_d0": float(np.trace(state.d0)),
                "sweeps": len(state.residuals),
            }

        with tr.span("bench.overlap"):
            h, s, a, h1 = inp["overlap"]
            z = tr.call(linalg.inverse_sqrt_factor, s)
            work = [tr.call(linalg.congruence_transform, m, z, "to_orthogonal") for m in (h, a, h1)]
            out["overlap"] = respond_both(tr, *work, n_occ)

        with tr.span("bench.split16"):
            h, a, h1 = inp["split16"]
            n16_occ = self.n16 // 2
            res_p = tr.call(mixedprec.mixed_response_pipeline, h, h1, n16_occ, mode="perturbation")
            with tr.span("bench.f64_reference"):
                _, d1_64, _ = tr.call(response.dm_perturbation_forward, h, h1, n16_occ)
                direct_64 = tr.call(tp, a, d1_64)
            res_s = tr.call(mixedprec.mixed_response_pipeline, h, a, n16_occ, mode="susceptibility")
            with tr.span("bench.f64_reference"):
                _, chi_64, _ = tr.call(response.susceptibility_forward, h, a, n16_occ)
                dual_64 = tr.call(tp, chi_64, h1)
            out["split16"] = {
                "a1_direct": tr.call(tp, a, res_p.response),
                "a1_dual_forward": tr.call(tp, res_s.response, h1),
                "a1_direct_f64": direct_64,
                "a1_dual_forward_f64": dual_64,
                "counts": [(r.mult_count, r.trace.m_steps) for r in (res_p, res_s)],
            }
        return out

    def check(self, out, ref):
        problems = []
        n_occ = self.n // 2

        t = out["thermal"]
        check_values(problems, "thermal", t, ref["thermal"])

        s = out["scf"]
        _expect(problems, "scf duality", _rel(s["a1_dual_forward"], s["a1_direct"]), SCF_DUALITY_RTOL)
        _expect(problems, "scf trace error", abs(s["trace_d0"] - n_occ), TRACE_TOL)

        check_respond(problems, "overlap", out["overlap"], ref["overlap"], n_occ)

        m = out["split16"]
        _, a1_ref = ref["split16"]
        for key in ("a1_direct_f64", "a1_dual_forward_f64"):
            _expect(problems, f"split16 {key} vs reference", _rel(m[key], a1_ref), ORACLE_RTOL)
        # Criterion 7 pins the susceptibility route; the direct route's
        # accuracy is reported, not asserted.
        _expect(
            problems,
            "split16 susceptibility route vs f64",
            _rel(m["a1_dual_forward"], m["a1_dual_forward_f64"]),
            SPLIT16_RTOL,
        )
        for mult_count, m_steps in m["counts"]:
            if mult_count != 5 * m_steps:
                problems.append(f"split16 mult_count {mult_count} != 5 * {m_steps}")
        return problems

    def summary(self, inp, out):
        return {
            "scf_sweeps": out["scf"]["sweeps"],
            "mult_count": sum(c for c, _ in out["split16"]["counts"]),
            "split16_direct_rel_err": _rel(
                out["split16"]["a1_direct"], out["split16"]["a1_direct_f64"]
            ),
        }

    def floors(self, inp, summary):
        h_thermal = inp["thermal"][0]
        x32 = inp["split16"][0].astype(np.float32)
        return {
            "sgemm_f32_s": median_time(lambda: x32 @ x32, reps=9),
            "eigh_s": median_time(lambda: np.linalg.eigh(h_thermal), reps=9),
            # pure Python: one call needs no warm-up and costs about a second
            "sym_eig_s": _timed(lambda: linalg.sym_eigendecompose(h_thermal)),
        }

    def layers(self, self_s, dur_s, summary, floors):
        gs = self_s.get("scf.scf_ground_state", 0.0)
        sweeps = summary["scf_sweeps"]
        pipeline = self_s.get("mixedprec.mixed_response_pipeline", 0.0)
        return {
            "thermal.fermi_s": self_s.get("thermal.fermi_matrix_and_mu", 0.0),
            "thermal.dm_response_s": self_s.get("thermal.canonical_dm_response", 0.0),
            "thermal.suscept_s": self_s.get("thermal.canonical_susceptibility", 0.0),
            "linalg.inverse_sqrt_s": self_s.get("linalg.inverse_sqrt_factor", 0.0),
            "linalg.congruence_s": self_s.get("linalg.congruence_transform", 0.0),
            "linalg.sym_eig_s": floors["sym_eig_s"],
            "linalg.eigh_floor_s": floors["eigh_s"],
            "linalg.eig_over_floor": floors["sym_eig_s"] / floors["eigh_s"],
            "scf.ground_state_s": gs,
            "scf.ground_state_sweeps": sweeps,
            "scf.sweep_s": gs / sweeps,
            "scf.dm_response_s": self_s.get("scf.scf_dm_response", 0.0),
            "scf.suscept_s": self_s.get("scf.scf_susceptibility", 0.0),
            "mixedprec.pipeline_s": pipeline,
            "mixedprec.mult_count": summary["mult_count"],
            "mixedprec.sgemm_floor_s": floors["sgemm_f32_s"],
            "mixedprec.gemm_share": summary["mult_count"] * floors["sgemm_f32_s"] / pipeline,
            "mixedprec.f64_reference_s": dur_s.get("bench.f64_reference", 0.0),
        }


class CliFiles:
    """`dmresponse respond --mode both` run in-process on dense Matrix
    Market array files written at set-up."""

    name = "cli_files"

    def __init__(self, n=500, gap=1.0, pool_size=3):
        self.n, self.gap, self.pool_size = n, gap, pool_size
        self.n_occ = n // 2
        # cli reaches these by module attribute; the traced run wraps them there.
        self._targets = [(cli, "read_matrix_market", "mmio.read_matrix_market")] + [
            (response, span.split(".")[1], span) for span in ROUTE_SPANS.values()
        ]

    def toy(self):
        return CliFiles(n=16, pool_size=1)

    def make_inputs(self, seed, index, workdir):
        rng = _rng(seed, index)
        h0, models_s = _gapped_random(rng, self.n, self.gap)
        matrices = {"h0": h0, "obs": _random_symmetric(rng, self.n), "h1": _random_symmetric(rng, self.n)}
        inp = {"matrices": matrices, "out": os.path.join(workdir, f"report-{index}.json")}
        for key, m in matrices.items():
            inp[key] = os.path.join(workdir, f"{key}-{index}.mtx")
            mmio.write_matrix_market(inp[key], m)
        inp["bytes"] = sum(os.path.getsize(inp[k]) for k in matrices)
        return inp, models_s

    def reference(self, inp):
        m = inp["matrices"]
        return references.zero_temperature(m["h0"], m["obs"], m["h1"], self.n_occ)

    def job(self, inp, tr):
        argv = ["respond", "--h0", inp["h0"], "--h1", inp["h1"], "--obs", inp["obs"]]
        argv += ["--mode", "both", "--out", inp["out"]]
        with tr.wrapped(self._targets):
            code = tr.call(cli.main, argv)
        return {"code": code, "out": inp["out"]}

    @staticmethod
    def _report(out):
        with open(out["out"], encoding="ascii") as fh:
            return json.load(fh)

    def check(self, out, ref):
        if out["code"] != 0:
            return [f"cli exit code {out['code']}"]
        report = self._report(out)
        if report["error"] is not None:
            return [f"cli error {report['error']}"]
        results = report["results"]
        problems = []
        check_values(problems, "cli", {"a0": results["a0"], **results["values"]}, ref)
        return problems

    def summary(self, inp, out):
        return {"steps": self._report(out)["results"]["expansion"]["m_steps"], "bytes": inp["bytes"]}

    def floors(self, inp, summary):
        h0 = inp["matrices"]["h0"]
        return {
            "gemm_f64_s": median_time(lambda: h0 @ h0, reps=9),
            "eigh_s": median_time(lambda: np.linalg.eigh(h0)),
        }

    def layers(self, self_s, dur_s, summary, floors):
        m = dense_route_layers(self.n, self_s, summary["steps"], floors["gemm_f64_s"])
        read_s = self_s.get("mmio.read_matrix_market", 0.0)
        m["mmio.read_s"] = read_s
        m["mmio.read_mb_per_s"] = summary["bytes"] / 1e6 / read_s
        m["cli.self_s"] = self_s.get("cli.main", 0.0)
        return m


WORKLOADS = {w.name: w for w in (DenseRespond, SparseChain, SmallVariants, CliFiles)}
