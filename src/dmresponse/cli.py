"""Command-line front end.

Loads or generates model matrices, executes the requested pipeline
(ground state, response/susceptibility in any variant, duality audit,
benchmark sweep), and writes one JSON report per run. Reports are
deterministic for a fixed configuration and seed, up to the "timing"
section.

Exit codes: 0 success, 1 numerical failure (error serialized into the
report), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import linalg, mixedprec, models, oracles, response, scf, sp2, sparse, thermal
from .exceptions import ConvergenceError
from .mmio import MatrixMarketError, read_matrix_market
from .sparse import SparseMatrix
from .thermal import ThermalConfig

REPORT_SCHEMA = 1

PRECISIONS = ("f64", "f32", "split16")
MODES = ("perturb", "suscept-fwd", "suscept-bwd", "both")


@dataclass
class RunConfig:
    subcommand: str
    h0: str | None = None
    h1: str | None = None
    obs: str | None = None
    overlap: str | None = None
    kind: str | None = None
    size: int | None = None
    gap: float = 1.0
    model_overlap: float = 0.2
    n_occ: int | None = None
    tau: float | None = None
    beta_t: float | None = None
    kernel: str | None = None
    precision: str = "f64"
    mode: str = "both"
    seed: int = 0
    sizes: tuple[int, ...] = field(default_factory=tuple)
    out: str | None = None
    fd_step: float = 1e-5


# ---------------------------------------------------------------------------
# input assembly


def _load_or_generate(cfg: RunConfig):
    """Resolve (h0, s, a, h1) from files and/or the model generator.

    Generated runs fill any missing observable/perturbation with seeded
    random symmetric matrices so a bare model run is self-contained.
    Coordinate files for h0, the observable and the perturbation stay in
    sparse storage when --tau is given; otherwise they are densified.
    """
    rng = np.random.default_rng(cfg.seed)
    s = None

    def load(path):
        m = read_matrix_market(path)
        return m.to_dense() if isinstance(m, SparseMatrix) and cfg.tau is None else m

    if cfg.h0:
        h0 = load(cfg.h0)
    elif cfg.kind:
        if cfg.size is None:
            raise UsageError("--size is required when generating a model")
        spec = models.ModelSpec(
            kind=cfg.kind,
            n=cfg.size,
            gap=cfg.gap,
            seed=cfg.seed,
            overlap=cfg.model_overlap,
        )
        h0, s = models.generate_model(spec)
    else:
        raise UsageError("supply --h0 FILE or --kind MODEL")
    n = h0.dim if isinstance(h0, SparseMatrix) else h0.shape[0]

    if cfg.overlap:
        s_loaded = read_matrix_market(cfg.overlap)
        s = s_loaded.to_dense() if isinstance(s_loaded, SparseMatrix) else s_loaded

    def aux(path, tag):
        if path:
            m = load(path)
            dim = m.dim if isinstance(m, SparseMatrix) else m.shape[0]
            if dim != n:
                raise UsageError(f"--{tag} has dimension {dim}, h0 has {n}")
            return m
        return linalg.symmetrize(rng.standard_normal((n, n)))

    a = aux(cfg.obs, "obs")
    h1 = aux(cfg.h1, "h1")
    return h0, s, a, h1


def _resolve_n_occ(cfg: RunConfig, n: int) -> int:
    n_occ = cfg.n_occ if cfg.n_occ is not None else n // 2
    if not 1 <= n_occ <= n - 1:
        raise UsageError(f"--nocc must lie in [1, {n - 1}], got {n_occ}")
    return n_occ


def _parse_kernel(spec: str | None, n: int, seed: int):
    if spec is None:
        return None
    name, _, strength = spec.partition(":")
    name = name.lower()
    if name == "zero":
        return scf.ZeroKernel()
    try:
        value = float(strength) if strength else 0.1
    except ValueError:
        raise UsageError(f"bad kernel strength {strength!r}") from None
    if name == "hubbard":
        return scf.DiagonalHubbardKernel(value)
    if name == "bilinear":
        rng = np.random.default_rng(seed + 7919)
        b = linalg.symmetrize(rng.standard_normal((n, n))) * (value / math.sqrt(n))
        c = linalg.symmetrize(rng.standard_normal((n, n))) * (value / math.sqrt(n))
        return scf.BilinearKernel(b, c)
    raise UsageError(f"unknown kernel {name!r}; expected zero, hubbard, or bilinear")


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# helpers


def _trace_product(a, b) -> float:
    if isinstance(a, SparseMatrix) and isinstance(b, SparseMatrix):
        return sparse.sp_trace_product(a, b)
    ad = a.to_dense() if isinstance(a, SparseMatrix) else a
    bd = b.to_dense() if isinstance(b, SparseMatrix) else b
    return linalg.trace_product(ad, bd)


def _trace_summary(trace: sp2.Sp2Trace) -> dict:
    tail = trace.idempotency_log[-5:]
    return {
        "m_steps": trace.m_steps,
        "sigma_sum": int(sum(trace.sigmas)),
        "idempotency_log_tail": [float(v) for v in tail],
        "spectral_bounds": [trace.bounds.eps_min, trace.bounds.eps_max],
    }


def _pairwise_deviations(values: dict[str, float]) -> dict:
    names = sorted(k for k, v in values.items() if v is not None)
    out = {}
    for i, na in enumerate(names):
        for nb in names[i + 1 :]:
            out[f"{na}|{nb}"] = abs(values[na] - values[nb])
    return out


def _to_orthogonal(s, *mats):
    """Congruence-transform operators into the Loewdin-orthonormal basis of
    the overlap s; returns them unchanged when there is no overlap."""
    if s is None:
        return mats
    z = linalg.inverse_sqrt_factor(s)
    return tuple(linalg.congruence_transform(m, z, "to_orthogonal") for m in mats)


def _as_sparse(m, tau: float) -> SparseMatrix:
    """m in sparse storage at drop tolerance tau. A loaded coordinate file
    is exactly symmetric, so it is re-thresholded without densifying."""
    if not isinstance(m, SparseMatrix):
        return sparse.sparsify(m, tau)
    return m if m.tau == tau else sparse.threshold(m.csr.copy(), tau)


def _check_finite(obj, path="report"):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _check_finite(v, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ConvergenceError(f"non-finite value at {path}")


# ---------------------------------------------------------------------------
# pipelines


def _reject(cfg: RunConfig, **forbidden):
    for flag, reason in forbidden.items():
        if getattr(cfg, flag) not in (None, "f64"):
            raise UsageError(reason)


def _run_ground_state(cfg: RunConfig) -> dict:
    h0, s, a, _ = _load_or_generate(cfg)
    n = h0.dim if isinstance(h0, SparseMatrix) else h0.shape[0]
    n_occ = _resolve_n_occ(cfg, n)
    results: dict = {"dim": n, "n_occ": n_occ}

    if cfg.kernel is not None:
        _reject(cfg, tau="--kernel cannot be combined with --tau", precision="--kernel requires --precision f64")
        kernel = _parse_kernel(cfg.kernel, n, cfg.seed)
        cfg_scf = scf.ScfConfig(beta_t=cfg.beta_t)
        state = scf.scf_ground_state(h0, s, kernel, n_occ, cfg_scf)
        results["route"] = "scf"
        results["mu0"] = state.mu0
        results["scf_iterations"] = len(state.residuals)
        results["scf_final_residual"] = state.residuals[-1]
        results["trace_d0"] = float(np.trace(state.d0_perp))
        results["a0"] = _trace_product(a, state.d0)
        if state.sp2_trace is not None:
            results["expansion"] = _trace_summary(state.sp2_trace)
        return results

    if cfg.beta_t is not None:
        _reject(cfg, tau="--beta-t cannot be combined with --tau", precision="--beta-t requires --precision f64")
        h_work, a_work = _to_orthogonal(s, h0, a)
        d, mu0 = thermal.fermi_matrix_and_mu(h_work, cfg.beta_t, float(n_occ))
        results["route"] = "thermal"
        results["mu0"] = mu0
        results["trace_d0"] = float(np.trace(d))
        results["a0"] = _trace_product(a_work, d)
        return results

    if cfg.tau is not None:
        _reject(cfg, precision="--tau requires --precision f64")
        if s is not None:
            raise UsageError("--tau cannot be combined with an overlap matrix")
        hs = _as_sparse(h0, cfg.tau)
        d0, trace = sp2.sp2_ground_state(hs, n_occ)
        results["route"] = "sparse"
        results["tau"] = cfg.tau
        results["nnz_d0"] = d0.nnz
        results["trace_d0"] = d0.trace()
        results["a0"] = _trace_product(_as_sparse(a, 0.0), d0)
        results["expansion"] = _trace_summary(trace)
        return results

    if cfg.precision in ("f32", "split16"):
        if s is not None:
            raise UsageError("low-precision pipelines assume an orthonormal basis")
        pipeline = (
            mixedprec.mixed_response_pipeline
            if cfg.precision == "split16"
            else mixedprec.single_precision_pipeline
        )
        res = pipeline(h0, a, n_occ, mode="susceptibility")
        results["route"] = cfg.precision
        results["trace_d0"] = float(np.trace(res.d0))
        results["a0"] = _trace_product(a, res.d0)
        results["mult_count"] = res.mult_count
        results["expansion"] = _trace_summary(res.trace)
        return results

    h_work, a_work = _to_orthogonal(s, h0, a)
    d0, trace = sp2.sp2_ground_state(h_work, n_occ)
    results["route"] = "dense" if s is None else "dense_orthogonalized"
    results["trace_d0"] = float(np.trace(d0))
    results["a0"] = _trace_product(a_work, d0)
    results["expansion"] = _trace_summary(trace)
    results["idempotency_fro"] = float(np.linalg.norm(d0 @ d0 - d0))
    return results


def _respond_dense(h0, a, h1, n_occ, mode) -> dict:
    values: dict[str, float | None] = {}
    out: dict = {}
    trace = None
    d0 = None
    if mode in ("perturb", "both"):
        d0, d1, trace = response.dm_perturbation_forward(h0, h1, n_occ)
        values["a1_direct"] = _trace_product(a, d1)
    if mode in ("suscept-fwd", "both"):
        d0, chi, trace = response.susceptibility_forward(h0, a, n_occ, trace=trace)
        values["a1_dual_forward"] = _trace_product(chi, h1)
    if mode in ("suscept-bwd", "both"):
        d0, chi_b, trace_b = response.susceptibility_backward(h0, a, n_occ)
        values["a1_dual_backward"] = _trace_product(chi_b, h1)
        if not isinstance(h0, SparseMatrix):
            # sparse iterates hold only their nnz entries, so no N^2 count
            out["backward_stored_floats"] = trace_b.m_steps * h0.shape[0] ** 2
        trace = trace or trace_b
    out["a0"] = _trace_product(a, d0)
    out["values"] = {k: v for k, v in values.items()}
    out["duality_deviations"] = _pairwise_deviations(values)
    if trace is not None:
        out["expansion"] = _trace_summary(trace)
    return out


def _run_respond(cfg: RunConfig) -> dict:
    h0, s, a, h1 = _load_or_generate(cfg)
    n = h0.dim if isinstance(h0, SparseMatrix) else h0.shape[0]
    n_occ = _resolve_n_occ(cfg, n)
    results: dict = {"dim": n, "n_occ": n_occ, "mode": cfg.mode}

    if cfg.kernel is not None:
        if cfg.tau is not None:
            raise UsageError("--kernel cannot be combined with --tau")
        if cfg.precision != "f64":
            raise UsageError("--kernel requires --precision f64")
        if cfg.mode == "suscept-bwd":
            raise UsageError("the self-consistent route has no backward expansion")
        kernel = _parse_kernel(cfg.kernel, n, cfg.seed)
        cfg_scf = scf.ScfConfig(beta_t=cfg.beta_t)
        state = scf.scf_ground_state(h0, s, kernel, n_occ, cfg_scf)
        values: dict[str, float] = {}
        if cfg.mode in ("perturb", "both"):
            d1 = scf.scf_dm_response(state, h1)
            values["a1_direct"] = linalg.trace_product(a, d1)
        if cfg.mode in ("suscept-fwd", "both"):
            chi = scf.scf_susceptibility(state, a)
            values["a1_dual_forward"] = linalg.trace_product(chi, h1)
        results.update(
            route="scf",
            a0=linalg.trace_product(a, state.d0),
            mu0=state.mu0,
            scf_iterations=len(state.residuals),
            values=values,
            duality_deviations=_pairwise_deviations(values),
        )
        if state.sp2_trace is not None:
            results["expansion"] = _trace_summary(state.sp2_trace)
        return results

    if cfg.beta_t is not None:
        if cfg.tau is not None:
            raise UsageError("--beta-t cannot be combined with --tau")
        if cfg.precision != "f64":
            raise UsageError("--beta-t requires --precision f64")
        if cfg.mode == "suscept-bwd":
            raise UsageError("the finite-temperature route has no backward expansion")
        h_work, a_work, h1_work = _to_orthogonal(s, h0, a, h1)
        # one eigenbasis serves D, mu0 and both responses
        d, eig, mu0 = thermal._fermi_eigenbasis(h_work, cfg.beta_t, float(n_occ))
        values = {}
        mu1 = None
        if cfg.mode in ("perturb", "both"):
            d1, mu1 = thermal.trace_neutral_derivative(eig, h1_work, cfg.beta_t, mu0)
            values["a1_direct"] = linalg.trace_product(a_work, d1)
        if cfg.mode in ("suscept-fwd", "both"):
            chi, mu1 = thermal.trace_neutral_derivative(eig, a_work, cfg.beta_t, mu0)
            values["a1_dual_forward"] = linalg.trace_product(chi, h1_work)
        results.update(
            route="thermal",
            a0=linalg.trace_product(a_work, d),
            mu0=mu0,
            mu1=mu1,
            values=values,
            duality_deviations=_pairwise_deviations(values),
        )
        return results

    if cfg.tau is not None:
        if cfg.precision != "f64":
            raise UsageError("--tau and --precision split16/f32 are mutually exclusive")
        if s is not None:
            raise UsageError("--tau cannot be combined with an overlap matrix")
        hs, a_s, h1_s = (_as_sparse(m, cfg.tau) for m in (h0, a, h1))
        out = _respond_dense(hs, a_s, h1_s, n_occ, cfg.mode)
        out["route"] = "sparse"
        out["tau"] = cfg.tau
        results.update(out)
        return results

    if cfg.precision in ("f32", "split16"):
        if s is not None:
            raise UsageError("low-precision pipelines assume an orthonormal basis")
        pipeline = (
            mixedprec.mixed_response_pipeline
            if cfg.precision == "split16"
            else mixedprec.single_precision_pipeline
        )
        values = {}
        mult_count = 0
        ref: dict[str, float] = {}
        trace = None
        if cfg.mode in ("perturb", "both"):
            res = pipeline(h0, h1, n_occ, mode="perturbation")
            values["a1_direct"] = linalg.trace_product(a, res.response)
            mult_count += res.mult_count
            trace = res.trace
            _, d1_ref, _ = response.dm_perturbation_forward(h0, h1, n_occ)
            ref["a1_direct_f64"] = linalg.trace_product(a, d1_ref)
        if cfg.mode in ("suscept-fwd", "both"):
            res = pipeline(h0, a, n_occ, mode="susceptibility")
            values["a1_dual_forward"] = linalg.trace_product(res.response, h1)
            mult_count += res.mult_count
            trace = res.trace
            _, chi_ref, _ = response.susceptibility_forward(h0, a, n_occ)
            ref["a1_dual_forward_f64"] = linalg.trace_product(chi_ref, h1)
        if cfg.mode == "suscept-bwd":
            raise UsageError("low-precision pipelines run forward expansions only")
        rel = {
            k: abs(values[k.removesuffix("_f64")] - v) / max(abs(v), 1e-300)
            for k, v in ref.items()
        }
        results.update(
            route=cfg.precision,
            values=values,
            f64_reference=ref,
            relative_error_vs_f64=rel,
            mult_count=mult_count,
            duality_deviations=_pairwise_deviations(values),
        )
        if trace is not None:
            results["expansion"] = _trace_summary(trace)
        return results

    out = _respond_dense(*_to_orthogonal(s, h0, a, h1), n_occ, cfg.mode)
    out["route"] = "dense" if s is None else "dense_orthogonalized"
    results.update(out)
    return results


def _run_audit(cfg: RunConfig) -> dict:
    _reject(
        cfg,
        kernel="audit has no self-consistent route; drop --kernel",
        tau="audit runs dense routes; drop --tau",
        precision="audit runs in float64; drop --precision",
    )
    h0, s, a, h1 = _load_or_generate(cfg)
    if s is not None:
        raise UsageError("audit runs in an orthonormal basis; drop --overlap")
    if isinstance(h0, SparseMatrix):
        h0 = h0.to_dense()
    n = h0.shape[0]
    n_occ = _resolve_n_occ(cfg, n)
    cfg_t = ThermalConfig(beta_t=cfg.beta_t, n_occ=float(n_occ)) if cfg.beta_t is not None else None
    report = oracles.duality_audit(h0, a, h1, n_occ, thermal=cfg_t, fd_step=cfg.fd_step)
    return {"dim": n, "n_occ": n_occ, **report.as_dict()}


def _run_benchmark(cfg: RunConfig) -> dict:
    if not cfg.sizes:
        raise UsageError("--sizes is required for benchmark")
    generated = "benchmark generates its own inputs; drop --h0, --h1, --obs and --overlap"
    _reject(
        cfg,
        kernel="benchmark has no self-consistent route; drop --kernel",
        beta_t="benchmark runs at zero temperature; drop --beta-t",
        precision="benchmark runs the float64 sparse route; drop --precision",
        h0=generated,
        h1=generated,
        obs=generated,
        overlap=generated,
    )
    if cfg.kind == "overlap_chain":
        raise UsageError("benchmark runs in an orthonormal basis; --kind overlap_chain has an overlap")
    kind = cfg.kind or "chain"
    tau = cfg.tau if cfg.tau is not None else 1e-6
    per_size = []
    rng = np.random.default_rng(cfg.seed)
    for n in cfg.sizes:
        spec = models.ModelSpec(kind=kind, n=n, gap=cfg.gap, seed=cfg.seed)
        h, _ = models.generate_model(spec)
        n_occ = _resolve_n_occ(cfg, n) if cfg.n_occ is not None else n // 2
        a = np.zeros((n, n))
        np.fill_diagonal(a, rng.uniform(-1.0, 1.0, n))
        h1 = models.chain_hamiltonian(n, cfg.gap)
        hs = sparse.sparsify(h, tau)
        a_s = sparse.sparsify(a, tau)
        h1_s = sparse.sparsify(h1, tau)
        t0 = time.perf_counter()
        d0, trace = sp2.sp2_ground_state(hs, n_occ)
        _, chi, _ = response.susceptibility_forward(hs, a_s, n_occ, trace=trace)
        wall = time.perf_counter() - t0
        per_size.append(
            {
                "n": n,
                "n_occ": n_occ,
                "tau": tau,
                "wall_s": wall,
                "nnz_d0": d0.nnz,
                "nnz_chi": chi.nnz,
                "max_nnz_per_row_d0": d0.max_nnz_per_row(),
                "m_steps": trace.m_steps,
                "a0": sparse.sp_trace_product(a_s, d0),
                "a1_dual": sparse.sp_trace_product(chi, h1_s),
            }
        )
    ratios = {}
    for prev, cur in zip(per_size, per_size[1:]):
        if cur["n"] == 2 * prev["n"] and prev["wall_s"] > 0:
            ratios[f"{cur['n']}/{prev['n']}"] = cur["wall_s"] / prev["wall_s"]
    return {"kind": kind, "per_size": per_size, "time_ratios": ratios}


# ---------------------------------------------------------------------------
# entry points


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Execute one configured pipeline; returns (exit_code, report)."""
    if cfg.beta_t is not None and not cfg.beta_t > 0.0:
        raise UsageError(f"--beta-t must be positive, got {cfg.beta_t}")
    started = time.perf_counter()
    report = {
        "schema": REPORT_SCHEMA,
        "subcommand": cfg.subcommand,
        "inputs": {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(cfg).items()},
        "precision": cfg.precision,
        "error": None,
    }
    runner = {
        "ground-state": _run_ground_state,
        "respond": _run_respond,
        "audit": _run_audit,
        "benchmark": _run_benchmark,
    }[cfg.subcommand]
    code = 0
    try:
        results = runner(cfg)
        # timing values are excluded from determinism guarantees
        timing_keys = _strip_timing(results)
        _check_finite(results)
        report["results"] = results
        report["timing"] = {"total_s": time.perf_counter() - started, **timing_keys}
    except UsageError:
        raise
    except (ConvergenceError, MatrixMarketError, ValueError, OverflowError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConvergenceError) and exc.history:
            report["error"]["residual_tail"] = list(exc.history[-5:])
        report["timing"] = {"total_s": time.perf_counter() - started}
        code = 1
    return code, report


def _strip_timing(results: dict) -> dict:
    """Move wall-clock fields out of the deterministic results section."""
    timing = {}
    if results.get("per_size"):
        walls = [entry.pop("wall_s", None) for entry in results["per_size"]]
        timing["per_size_wall_s"] = walls
        timing["time_ratios"] = results.pop("time_ratios", {})
    return timing


def _write_report(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmresponse",
        description="Density-matrix ground states, linear responses, and "
        "observable susceptibilities via recursive spectral-projection expansions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, with_mode=False):
        p.add_argument("--h0", help="Hamiltonian file (Matrix Market)")
        p.add_argument("--h1", help="perturbation file (Matrix Market)")
        p.add_argument("--obs", help="observable file (Matrix Market)")
        p.add_argument("--overlap", help="overlap matrix file (Matrix Market)")
        p.add_argument("--kind", choices=models.MODEL_KINDS, help="generate a model Hamiltonian")
        p.add_argument("--size", type=int, help="model dimension")
        p.add_argument("--gap", type=float, default=1.0, help="model gap (default 1.0)")
        p.add_argument(
            "--model-overlap",
            type=float,
            default=0.2,
            help="neighbor overlap for overlap_chain (default 0.2)",
        )
        p.add_argument("--nocc", type=int, dest="n_occ", help="occupied states (default N/2)")
        p.add_argument("--tau", type=float, help="sparse drop tolerance")
        p.add_argument("--beta-t", type=float, dest="beta_t", help="inverse temperature")
        p.add_argument("--kernel", help="self-consistency kernel NAME:STRENGTH")
        p.add_argument("--precision", choices=PRECISIONS, default="f64")
        if with_mode:
            p.add_argument("--mode", choices=MODES, default="both")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="report path (default stdout)")
        return p

    add_common(sub.add_parser("ground-state", help="ground-state density matrix"))
    add_common(sub.add_parser("respond", help="linear response / susceptibility"), with_mode=True)
    audit = add_common(sub.add_parser("audit", help="all-routes duality audit"))
    audit.add_argument("--fd-step", type=float, default=1e-5, dest="fd_step")
    bench = add_common(sub.add_parser("benchmark", help="thresholded-sparse scaling sweep"))
    bench.add_argument("--sizes", help="comma-separated dimensions, e.g. 500,1000,2000")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    sizes = ()
    if getattr(ns, "sizes", None):
        try:
            sizes = tuple(int(s) for s in ns.sizes.split(","))
        except ValueError:
            parser.error(f"bad --sizes value {ns.sizes!r}")
    cfg = RunConfig(
        subcommand=ns.subcommand,
        h0=ns.h0,
        h1=ns.h1,
        obs=ns.obs,
        overlap=ns.overlap,
        kind=ns.kind,
        size=ns.size,
        gap=ns.gap,
        model_overlap=ns.model_overlap,
        n_occ=ns.n_occ,
        tau=ns.tau,
        beta_t=ns.beta_t,
        kernel=ns.kernel,
        precision=ns.precision,
        mode=getattr(ns, "mode", "both"),
        seed=ns.seed,
        sizes=sizes,
        out=ns.out,
        fd_step=getattr(ns, "fd_step", 1e-5),
    )
    try:
        code, report = run(cfg)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
        return 2  # unreachable; keeps type checkers calm
    _write_report(report, cfg.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
