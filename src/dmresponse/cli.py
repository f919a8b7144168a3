"""Command-line front end.

Loads or generates model matrices, executes the requested pipeline
(ground state, response/susceptibility in any variant, duality audit,
benchmark sweep), and writes one JSON report per run. Reports are
deterministic for a fixed configuration and seed, up to the "timing"
section. Every subcommand runs its route's solver through ``_run_route``:
audit is respond --mode both plus the route's one independent oracle
value, and benchmark runs the sparse route at each of its dimensions.

Every run's flags resolve into exactly one route (scf, thermal, sparse,
f32, split16, dense or dense_orthogonalized) before any input is read; see
``_route``, the flags each subcommand refuses (``REFUSED``) and the one
route table ``ROUTES``, which gives each route its solver, the flags it
cannot honour, whether it has a backward expansion and its audit oracle.

Exit codes: 0 success, 1 numerical failure (error serialized into the
report), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import linalg, mixedprec, models, oracles, response, scf, sp2, sparse, thermal
from .exceptions import ConvergenceError
from .mmio import MatrixMarketError, read_matrix_market
from .sparse import SparseMatrix

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


class UsageError(Exception):
    """A flag, value or input file the run cannot use; main exits 2."""


# ---------------------------------------------------------------------------
# route resolution

_GENERATED = "benchmark generates its own inputs; drop --h0, --h1 and --obs"

# benchmark runs a chain at this drop tolerance unless --kind and --tau say
# otherwise (see `run`), so it always takes the sparse route
BENCHMARK_TAU = 1e-6

# flags each subcommand refuses whatever the route, with the reason
REFUSED = {
    "ground-state": {"h1": "ground-state computes no response; drop --h1"},
    "respond": {},
    "audit": {
        "kernel": "audit has no self-consistent route; drop --kernel",
        "tau": "audit runs dense routes; drop --tau",
        "precision": "audit runs in float64; drop --precision",
    },
    "benchmark": {
        "kernel": "benchmark has no self-consistent route; drop --kernel",
        "beta_t": "benchmark runs at zero temperature; drop --beta-t",
        "precision": "benchmark runs the float64 sparse route; drop --precision",
        "h0": _GENERATED,
        "h1": _GENERATED,
        "obs": _GENERATED,
        "overlap": "benchmark runs in an orthonormal basis; drop the overlap",
        "size": "benchmark takes its dimensions from --sizes; drop --size",
    },
}

# model-generator flags, which an --h0 file leaves unused
GENERATOR = ("kind", "size", "gap", "model_overlap")

_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _given(cfg: RunConfig, flag: str) -> bool:
    """Whether a flag is set away from its default; a generated overlap_chain
    counts as an overlap."""
    if flag == "overlap" and cfg.kind == "overlap_chain":
        return True
    return getattr(cfg, flag) != _DEFAULTS[flag]


def _route(cfg: RunConfig) -> str:
    """Resolve a run's flags into the one route that serves it.

    Reads no input. Raises UsageError for an out-of-range value, a flag the
    subcommand refuses, or a flag the selected route cannot honour.
    """
    if cfg.beta_t is not None and not 0.0 < cfg.beta_t < math.inf:
        raise UsageError(f"--beta-t must be finite and positive, got {cfg.beta_t}")
    if cfg.tau is not None and not 0.0 <= cfg.tau < math.inf:
        raise UsageError(f"--tau must be finite and non-negative, got {cfg.tau}")
    # the model's own limits on each generated dimension, gap and overlap
    for n in (cfg.size, *cfg.sizes) if cfg.kind else ():
        if n is None:
            continue
        try:
            models.ModelSpec(cfg.kind, n, cfg.gap, overlap=cfg.model_overlap)
        except ValueError as exc:
            raise UsageError(f"cannot generate {cfg.kind} at size {n}: {exc}") from None
        _resolve_n_occ(cfg, n)
    if cfg.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {cfg.seed}")
    if cfg.kernel is not None:
        _kernel_spec(cfg.kernel)
    for flag, reason in REFUSED[cfg.subcommand].items():
        if _given(cfg, flag):
            raise UsageError(reason)
    if cfg.h0:
        for flag in GENERATOR:
            if _given(cfg, flag):
                raise UsageError(
                    f"--h0 replaces the generated model; drop --{flag.replace('_', '-')}"
                )
    if _given(cfg, "model_overlap") and cfg.kind != "overlap_chain":
        raise UsageError("--model-overlap applies only to a generated overlap_chain")
    if cfg.kernel is not None:
        route = "scf"
    elif cfg.beta_t is not None:
        route = "thermal"
    elif cfg.tau is not None:
        route = "sparse"
    elif cfg.precision != "f64":
        route = cfg.precision
    else:
        route = "dense_orthogonalized" if _given(cfg, "overlap") else "dense"
    for flag, reason in ROUTES[route].conflicts.items():
        if _given(cfg, flag):
            raise UsageError(reason)
    if cfg.subcommand == "respond" and cfg.mode == "suscept-bwd" and not ROUTES[route].backward:
        raise UsageError(f"the {route} route has no backward expansion")
    return route


# ---------------------------------------------------------------------------
# input assembly


def _dim(m) -> int:
    return m.dim if isinstance(m, SparseMatrix) else m.shape[0]


def _in_storage(m, tau: float | None):
    """m as a dense array without a drop tolerance, else in sparse storage at
    tau. A loaded coordinate file is exactly symmetric, so it is
    re-thresholded without densifying."""
    if tau is None:
        return m.to_dense() if isinstance(m, SparseMatrix) else m
    if not isinstance(m, SparseMatrix):
        return sparse.sparsify(m, tau)
    return m if m.tau == tau else sparse.threshold(m.csr.copy(), tau)


def _load_or_generate(cfg: RunConfig):
    """Resolve (h0, s, a, h1) from files and/or the model generator, each in
    the route's storage (see _in_storage).

    A generated run fills a missing observable or perturbation with a seeded
    random matrix: dense and symmetric without --tau, and with it a diagonal
    observable and a symmetric bond (first off-diagonal) perturbation. With
    --tau a chain is built from its diagonals too, so no N x N array is
    formed that is not one on disk or in the model. ground-state takes no
    perturbation, so its h1 is None.
    """
    rng = np.random.default_rng(cfg.seed)
    s = None

    def load(path, tag, tau=cfg.tau, n=None):
        try:
            m = read_matrix_market(path)
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
        m = _in_storage(m, tau)
        if n is not None and _dim(m) != n:
            raise UsageError(f"--{tag} has dimension {_dim(m)}, h0 has {n}")
        return m

    if cfg.h0:
        h0 = load(cfg.h0, "h0")
    elif cfg.kind:
        if cfg.size is None:
            raise UsageError("--size is required when generating a model")
        spec = models.ModelSpec(
            cfg.kind, cfg.size, cfg.gap, seed=cfg.seed, overlap=cfg.model_overlap, n_below=cfg.n_occ
        )
        if cfg.kind == "chain" and cfg.tau is not None:
            onsite, hopping = models.chain_diagonals(cfg.size, cfg.gap)
            h0 = sparse.from_diagonals([hopping, onsite, hopping], [-1, 0, 1], cfg.tau)
        else:
            h0, s = models.generate_model(spec)
            h0 = _in_storage(h0, cfg.tau)
    else:
        raise UsageError("supply --h0 FILE or --kind MODEL")
    n = _dim(h0)

    def aux(path, tag, offsets, tau=cfg.tau):
        """The file's operand, or a fill-in whose random band lies on the
        given diagonals under --tau."""
        if path:
            return load(path, tag, tau, n)
        if cfg.tau is None:
            return linalg.symmetrize(rng.standard_normal((n, n)))
        band = rng.uniform(-1.0, 1.0, n - abs(offsets[0]))
        return sparse.from_diagonals([band] * len(offsets), offsets, tau)

    if cfg.overlap:
        s = load(cfg.overlap, "overlap", n=n)
    if cfg.subcommand == "ground-state":
        # the ground-state expectation value keeps every entry of A
        return h0, s, aux(cfg.obs, "obs", (0,), None if cfg.tau is None else 0.0), None
    return h0, s, aux(cfg.obs, "obs", (0,)), aux(cfg.h1, "h1", (-1, 1))


def _resolve_n_occ(cfg: RunConfig, n: int) -> int:
    n_occ = cfg.n_occ if cfg.n_occ is not None else n // 2
    if not 1 <= n_occ <= n - 1:
        raise UsageError(f"--nocc must lie in [1, {n - 1}], got {n_occ}")
    return n_occ


def _kernel_spec(spec: str) -> tuple[str, float]:
    """(name, strength) of a --kernel NAME:STRENGTH; the zero kernel ignores
    its strength."""
    name, _, strength = spec.partition(":")
    name = name.lower()
    if name not in ("zero", "hubbard", "bilinear"):
        raise UsageError(f"unknown kernel {name!r}; expected zero, hubbard, or bilinear")
    try:
        value = float(strength) if strength else 0.1
    except ValueError:
        value = math.nan
    if name != "zero" and not math.isfinite(value):
        raise UsageError(f"bad kernel strength {strength!r}; expected a finite number")
    return name, value


def _parse_kernel(spec: str, n: int, seed: int):
    name, value = _kernel_spec(spec)
    if name == "zero":
        return scf.ZeroKernel()
    if name == "hubbard":
        return scf.DiagonalHubbardKernel(value)
    rng = np.random.default_rng(seed + 7919)
    b = linalg.symmetrize(rng.standard_normal((n, n))) * (value / math.sqrt(n))
    c = linalg.symmetrize(rng.standard_normal((n, n))) * (value / math.sqrt(n))
    return scf.BilinearKernel(b, c)


# ---------------------------------------------------------------------------
# helpers


def _trace_summary(trace: sp2.Sp2Trace) -> dict:
    tail = trace.idempotency_log[-5:]
    return {
        "m_steps": trace.m_steps,
        "sigma_sum": int(sum(trace.sigmas)),
        "idempotency_log_tail": [float(v) for v in tail],
        "spectral_bounds": [trace.bounds.eps_min, trace.bounds.eps_max],
    }


def pairwise_deviations(values: dict[str, float]) -> dict[str, float]:
    """|values[a] - values[b]| for every pair of routes, keyed "a|b" with a < b."""
    names = sorted(values)
    return {
        f"{na}|{nb}": abs(values[na] - values[nb])
        for i, na in enumerate(names)
        for nb in names[i + 1 :]
    }


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
# one solver per route; each runs the ground state for ground-state and the
# requested response routes for respond. h1 is None under ground-state.

# the a1 value of each respond mode, in the order the modes run: the backward
# mode first, so that its stored expansion can serve the forward seeds
A1_KEYS = {
    "suscept-bwd": "a1_dual_backward",
    "perturb": "a1_direct",
    "suscept-fwd": "a1_dual_forward",
}


def _a1_values(cfg, respond, a, h1, backward=False, trace_product=linalg.trace_product):
    """Run the requested modes, the backward one only where the route has it,
    and contract each result: a1_direct = Tr[A D1], the duals Tr[chi H1].

    respond(key, seed) returns the response for the a1 value `key`: D1 for
    the seed H1, chi for the seed A.
    """
    values = {}
    for mode, key in A1_KEYS.items():
        if cfg.mode not in (mode, "both") or (mode == "suscept-bwd" and not backward):
            continue
        if key == "a1_direct":
            values[key] = trace_product(a, respond(key, h1))
        else:
            values[key] = trace_product(respond(key, a), h1)
    return values


def _solve_scf(cfg, h0, s, a, h1, n_occ) -> dict:
    kernel = _parse_kernel(cfg.kernel, h0.shape[0], cfg.seed)
    state = scf.scf_ground_state(h0, s, kernel, n_occ, scf.ScfConfig(beta_t=cfg.beta_t))
    out = {
        "a0": linalg.trace_product(a, state.d0),
        "mu0": state.mu0,
        "scf_iterations": len(state.residuals),
    }
    if cfg.beta_t is None:
        out["expansion"] = _trace_summary(state.inner)
    if h1 is None:
        out["scf_final_residual"] = state.residuals[-1]
        out["trace_d0"] = float(np.trace(state.inner.d0))
        return out
    iterations = {}  # derivative applications of each coupled-perturbed solve

    def respond(key, seed):
        res = scf.scf_response(state, seed)
        iterations[key] = res.applications
        return res.response

    out.update(values=_a1_values(cfg, respond, a, h1), response_iterations=iterations)
    return out


def _solve_thermal(cfg, h0, s, a, h1, n_occ) -> dict:
    # one eigenbasis serves D, mu0 and both responses
    ground = thermal._fermi_eigenbasis(h0, cfg.beta_t, float(n_occ))
    out = {"a0": linalg.trace_product(a, ground.d0), "mu0": ground.mu0}
    if h1 is None:
        out["trace_d0"] = float(np.trace(ground.d0))
        return out
    mu1 = {}  # the chemical-potential response of each solve; the report keeps H1's

    def respond(key, seed):
        d1, mu1[key] = ground.derivative(seed)
        return d1

    out["values"] = _a1_values(cfg, respond, a, h1)
    out["mu1"] = mu1.get("a1_direct")
    return out


def _solve_sp2(cfg, h0, s, a, h1, n_occ) -> dict:
    """Dense (orthonormal basis) or thresholded-sparse SP2 on operands that
    _load_or_generate put in the route's storage."""
    is_sparse = cfg.tau is not None
    trace_product = sparse.sp_trace_product if is_sparse else linalg.trace_product
    out = {"tau": cfg.tau} if is_sparse else {}
    if h1 is None:
        d0, trace = sp2.sp2_ground_state(h0, n_occ)
        out["trace_d0"] = float(d0.trace())
        if not is_sparse:
            out["idempotency_fro"] = float(np.linalg.norm(d0 @ d0 - d0))
    else:
        # --mode both runs the backward route first; its stored expansion
        # then serves both forward seeds by pair updates alone. A forward
        # mode on its own runs fresh.
        trace = None

        def respond(key, seed):
            nonlocal d0, trace
            if key == "a1_dual_backward":
                d0, y, trace = response.susceptibility_backward(h0, seed, n_occ)
                if not is_sparse:
                    # sparse iterates hold only their nnz entries, so no N^2 count
                    out["backward_stored_floats"] = trace.m_steps * h0.shape[0] ** 2
            elif key == "a1_direct":
                d0, y, trace = response.dm_perturbation_forward(h0, seed, n_occ, trace=trace)
            else:
                d0, y, trace = response.susceptibility_forward(h0, seed, n_occ, trace=trace)
                if is_sparse:
                    out["nnz_chi"] = y.nnz
            return y

        out["values"] = _a1_values(cfg, respond, a, h1, backward=True, trace_product=trace_product)
    out.update(a0=trace_product(a, d0), expansion=_trace_summary(trace))
    if is_sparse:
        out.update(nnz_d0=d0.nnz, max_nnz_per_row_d0=d0.max_nnz_per_row())
    return out


def _solve_low_precision(cfg, h0, s, a, h1, n_occ) -> dict:
    """f32 or split16 expansions, each response checked against a fresh
    float64 run."""
    pipeline = (
        mixedprec.mixed_response_pipeline
        if cfg.precision == "split16"
        else mixedprec.single_precision_pipeline
    )
    if h1 is None:
        res = pipeline(h0, None, n_occ)
        return {
            "trace_d0": float(np.trace(res.d0)),
            "a0": linalg.trace_product(a, res.d0),
            "mult_count": res.mult_count,
            "expansion": _trace_summary(res.trace),
        }
    runs = []

    def respond(key, seed):
        runs.append(pipeline(h0, seed, n_occ))
        return runs[-1].response

    def respond_f64(key, seed):
        return response.dm_perturbation_forward(h0, seed, n_occ)[1]

    values = _a1_values(cfg, respond, a, h1)
    ref = {f"{k}_f64": v for k, v in _a1_values(cfg, respond_f64, a, h1).items()}
    rel = {
        k: abs(values[k.removesuffix("_f64")] - v) / max(abs(v), 1e-300)
        for k, v in ref.items()
    }
    return {
        "values": values,
        "f64_reference": ref,
        "relative_error_vs_f64": rel,
        "mult_count": sum(r.mult_count for r in runs),
        "expansion": _trace_summary(runs[-1].trace),
    }


def _oracle_eigenbasis(cfg, h0, a, h1, n_occ) -> dict:
    """Tr[A P1], P1 the exact derivative of the projector on the n_occ
    lowest eigenvectors of h0, cut at the HOMO-LUMO midpoint."""
    eig = linalg.sym_eigendecompose(h0)
    mu = 0.5 * (eig.values[n_occ - 1] + eig.values[n_occ])
    p1 = oracles.projector_derivative_exact(eig, h1, mu)
    return {"oracle_eigenbasis": linalg.trace_product(a, p1)}


# the coarse step of the thermal oracle's Richardson pair
FD_STEP = 3e-4


def _oracle_finite_difference(cfg, h0, a, h1, n_occ) -> dict:
    """d Tr[A D(h0 + t h1)]/dt at t = 0, D at fixed occupation, as the
    Richardson combination (4 c(h/2) - c(h)) / 3 of two central differences
    c, which cancels their h^2 error. Where beta_t times the spectral width
    is far below 1, the derivative is O(beta_t) while Tr[A D] is O(1), and
    rounding in the difference limits its accuracy."""

    def observable_at(h):
        d, _ = thermal.fermi_matrix_and_mu(h, cfg.beta_t, float(n_occ))
        return linalg.trace_product(a, d)

    coarse, fine = (
        oracles.finite_difference_response(observable_at, h0, h1, step)
        for step in (FD_STEP, FD_STEP / 2)
    )
    return {"oracle_finite_difference": (4.0 * fine - coarse) / 3.0}


@dataclass(frozen=True)
class Route:
    """One route of the CLI: its solver; the flags it cannot honour, each
    with the reason; whether it has a backward (stored-iterate) expansion,
    which respond --mode suscept-bwd needs; and the independent oracle that
    audit adds, on the routes audit runs."""

    solve: Callable
    conflicts: dict = field(default_factory=dict)
    backward: bool = False
    oracle: Callable | None = None


ROUTES = {
    "scf": Route(_solve_scf, {
        "tau": "--kernel cannot be combined with --tau",
        "precision": "--kernel requires --precision f64",
    }),
    "thermal": Route(_solve_thermal, {
        "tau": "--beta-t cannot be combined with --tau",
        "precision": "--beta-t requires --precision f64",
    }, oracle=_oracle_finite_difference),
    "sparse": Route(_solve_sp2, {
        "precision": "--tau and --precision f32/split16 are mutually exclusive",
        "overlap": "--tau cannot be combined with an overlap matrix",
    }, backward=True),
    "dense": Route(_solve_sp2, backward=True, oracle=_oracle_eigenbasis),
    "dense_orthogonalized": Route(_solve_sp2, backward=True, oracle=_oracle_eigenbasis),
    "f32": Route(_solve_low_precision, {
        "overlap": "low-precision pipelines assume an orthonormal basis",
    }),
    "split16": Route(_solve_low_precision, {
        "overlap": "low-precision pipelines assume an orthonormal basis",
    }),
}


def _run_route(cfg: RunConfig, route: str, oracle=None) -> tuple[dict, dict]:
    """ground-state, respond, audit and each size of benchmark: load the
    inputs, apply the overlap, and run the route's solver. An oracle, called
    as the solvers are but without the overlap, adds its one named value to
    the a1 values before their pairwise deviations are taken. Returns
    (results, timing), timing holding the solver's wall time as solve_s."""
    h0, s, a, h1 = _load_or_generate(cfg)
    n = _dim(h0)
    n_occ = _resolve_n_occ(cfg, n)
    if s is not None and route != "scf":
        # the dense and thermal routes work in the Loewdin-orthonormal basis;
        # the SCF route takes the overlap itself
        z = linalg.inverse_sqrt_factor(s)
        h0, a, h1 = (
            m if m is None else linalg.congruence_transform(m, z, "to_orthogonal")
            for m in (h0, a, h1)
        )
    results: dict = {"dim": n, "n_occ": n_occ, "route": route}
    if cfg.subcommand == "respond":
        results["mode"] = cfg.mode
    started = time.perf_counter()
    results.update(ROUTES[route].solve(cfg, h0, s, a, h1, n_occ))
    timing = {"solve_s": time.perf_counter() - started}
    if oracle is not None:
        results["values"].update(oracle(cfg, h0, a, h1, n_occ))
    if "values" in results:
        results["duality_deviations"] = pairwise_deviations(results["values"])
    return results, timing


def _run_audit(cfg: RunConfig, route: str) -> tuple[dict, dict]:
    """respond --mode both's run plus the route's oracle value, with the
    largest pairwise deviation, absolute and relative to the largest value."""
    results, timing = _run_route(cfg, route, ROUTES[route].oracle)
    worst = max(results["duality_deviations"].values())
    scale = max(*map(abs, results["values"].values()), 1e-12)
    results.update(max_abs_deviation=worst, max_rel_deviation=worst / scale)
    return results, timing


def _run_benchmark(cfg: RunConfig, route: str) -> tuple[dict, dict]:
    """The sparse route's forward susceptibility at each --sizes dimension,
    timed per size, with the wall-time ratio of each doubling."""
    runs = [_run_route(replace(cfg, size=n, mode="suscept-fwd"), route) for n in cfg.sizes]
    per_size = [results for results, _ in runs]
    wall = [timing["solve_s"] for _, timing in runs]
    ratios = {
        f"{cur['dim']}/{prev['dim']}": t_cur / t_prev
        for prev, cur, t_prev, t_cur in zip(per_size, per_size[1:], wall, wall[1:])
        if cur["dim"] == 2 * prev["dim"] and t_prev > 0
    }
    return {"kind": cfg.kind, "per_size": per_size}, {"per_size_wall_s": wall, "time_ratios": ratios}


# ---------------------------------------------------------------------------
# entry points


def _check_out(out: str | None):
    """Refuse a report path that cannot be written, before any work is done."""
    if out is None:
        return
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):
        raise UsageError(f"--out {out}: directory {directory} does not exist")
    if os.path.isdir(out):
        raise UsageError(f"--out {out} is a directory")
    if not os.access(out if os.path.exists(out) else directory, os.W_OK):
        raise UsageError(f"--out {out} is not writable")


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Execute one configured pipeline; returns (exit_code, report)."""
    _check_out(cfg.out)
    report = {
        "schema": REPORT_SCHEMA,
        "subcommand": cfg.subcommand,
        "inputs": {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(cfg).items()},
        "precision": cfg.precision,
        "error": None,
    }
    if cfg.subcommand == "benchmark":
        # the benchmark's own defaults, which are not the parser's
        tau = BENCHMARK_TAU if cfg.tau is None else cfg.tau
        cfg = replace(cfg, kind=cfg.kind or "chain", tau=tau)
    route = _route(cfg)
    started = time.perf_counter()
    runner = {"audit": _run_audit, "benchmark": _run_benchmark}.get(cfg.subcommand, _run_route)
    code = 0
    try:
        # timing values are excluded from determinism guarantees
        results, timing = runner(cfg, route)
        _check_finite(results)
        report["results"] = results
        report["timing"] = {"total_s": time.perf_counter() - started, **timing}
    except (ConvergenceError, MatrixMarketError, ValueError, OverflowError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConvergenceError) and exc.history:
            report["error"]["residual_tail"] = list(exc.history[-5:])
        report["timing"] = {"total_s": time.perf_counter() - started}
        code = 1
    return code, report


def _write_report(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


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
        p.add_argument(
            "--gap", type=float, default=_DEFAULTS["gap"], help="model gap (default %(default)s)"
        )
        p.add_argument(
            "--model-overlap",
            type=float,
            default=_DEFAULTS["model_overlap"],
            help="neighbor overlap for overlap_chain (default %(default)s)",
        )
        p.add_argument("--nocc", type=int, dest="n_occ", help="occupied states (default N/2)")
        p.add_argument("--tau", type=float, help="sparse drop tolerance")
        p.add_argument("--beta-t", type=float, dest="beta_t", help="inverse temperature")
        p.add_argument("--kernel", help="self-consistency kernel NAME:STRENGTH")
        p.add_argument("--precision", choices=PRECISIONS, default=_DEFAULTS["precision"])
        if with_mode:
            p.add_argument("--mode", choices=MODES, default=_DEFAULTS["mode"])
        p.add_argument("--seed", type=int, default=_DEFAULTS["seed"])
        p.add_argument("--out", help="report path (default stdout)")
        return p

    add_common(sub.add_parser("ground-state", help="ground-state density matrix"))
    add_common(sub.add_parser("respond", help="linear response / susceptibility"), with_mode=True)
    add_common(sub.add_parser("audit", help="all-routes duality audit"))
    bench = add_common(sub.add_parser("benchmark", help="thresholded-sparse scaling sweep"))
    bench.add_argument(
        "--sizes", type=_sizes, required=True, help="comma-separated dimensions, e.g. 500,1000,2000"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    cfg = RunConfig(**vars(parser.parse_args(argv)))
    try:
        code, report = run(cfg)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
    _write_report(report, cfg.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
