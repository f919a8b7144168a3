"""Self-consistent ground states and coupled-perturbed linear response.

The Hamiltonian depends on the density through a pluggable linear,
symmetry-preserving kernel G. Each sweep is the transformed solve:
congruence to the orthonormal basis, spectral projection or Fermi smearing,
congruence back. The ground state is its fixed point, reached by Anderson
(DIIS) mixing of the density (Anderson, J. ACM 12, 547, 1965; Pulay, Chem.
Phys. Lett. 73, 393, 1980). A first-order response solves the linear
coupled-perturbed equation (I - L G) y = L(seed), with L the derivative of
the frozen ground state, by GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput.
7, 856, 1986). The susceptibility is the density response with the
observable in the seed position.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConvergenceError
from .linalg import (
    EigenDecomposition,
    congruence_transform,
    inverse_sqrt_factor,
    sym_eigendecompose,
    symmetrize,
)
from .response import dm_perturbation_forward
from .sp2 import Sp2Trace, sp2_ground_state
from .thermal import _fermi_eigenbasis, trace_neutral_derivative

# sweep-to-sweep (iterate, residual) differences the Anderson ground-state
# mixer extrapolates over
ANDERSON_DEPTH = 8
# Arnoldi steps per GMRES start in the response solve; each holds one N^2 vector
GMRES_RESTART = 20


class ZeroKernel:
    """G(X) = 0: reduces every self-consistent solve to a single pass."""

    name = "zero"

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)


class DiagonalHubbardKernel:
    """On-site coupling G(X) = U * diag(X)."""

    name = "hubbard"

    def __init__(self, strength: float):
        self.strength = float(strength)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.strength * np.diag(np.diagonal(x))


class BilinearKernel:
    """G(X) = B X C + C X B with symmetric B, C.

    Linear and symmetry-preserving by construction, and satisfies the
    exchange condition Tr[P G(Q)] = Tr[Q G(P)] that the response duality
    rests on.
    """

    name = "bilinear"

    def __init__(self, b: np.ndarray, c: np.ndarray):
        if b.shape != c.shape or b.shape[0] != b.shape[1]:
            raise ValueError("kernel factors must be square matrices of equal shape")
        self.b = symmetrize(np.asarray(b, dtype=np.float64))
        self.c = symmetrize(np.asarray(c, dtype=np.float64))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.b @ x @ self.c + self.c @ x @ self.b


def apply_kernel(kernel, x: np.ndarray) -> np.ndarray:
    """Evaluate a self-consistency kernel, checking dimensions."""
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    out = kernel.apply(x)
    if out.shape != x.shape:
        raise ValueError(
            f"kernel {getattr(kernel, 'name', kernel)!r} returned shape "
            f"{out.shape} for input {x.shape}"
        )
    return out


@dataclass(frozen=True)
class ScfConfig:
    """Self-consistency parameters.

    c_mix is the step weight of the Anderson ground-state mixer: the share of
    each fresh residual D_new - D added to the extrapolated density (1 takes
    it whole). eps_scf bounds the Frobenius norm of the final residual of
    both solves. max_iters caps the ground-state sweeps, and separately the
    derivative applications of each response solve. beta_t, when set,
    selects the fractional-occupation path at that inverse temperature.
    """

    c_mix: float = 0.3
    eps_scf: float = 1e-11
    max_iters: int = 500
    beta_t: float | None = None

    def __post_init__(self):
        if not 0.0 < self.c_mix <= 1.0:
            raise ValueError("c_mix must lie in (0, 1]")
        if self.eps_scf <= 0.0:
            raise ValueError("eps_scf must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.beta_t is not None and self.beta_t <= 0.0:
            raise ValueError("inverse temperature beta_t must be positive")


@dataclass(frozen=True)
class ScfState:
    """Converged self-consistent ground state plus everything a response
    solve replays: the orthonormal-basis Hamiltonian, its expansion record
    (zero T) or eigendecomposition (finite T), and the chemical potential."""

    h_core: np.ndarray
    z: np.ndarray
    kernel: object
    n_occ: int
    cfg: ScfConfig
    d0: np.ndarray
    h_eff: np.ndarray
    h0_perp: np.ndarray
    d0_perp: np.ndarray
    mu0: float
    sp2_trace: Sp2Trace | None
    eig_perp: EigenDecomposition | None
    residuals: tuple[float, ...] = field(default=())


def _solve_perp(h_perp, n_occ, beta_t):
    """Density matrix in the orthonormal basis: spectral projection at zero
    temperature, Fermi smearing otherwise."""
    if beta_t is None:
        d_perp, trace = sp2_ground_state(h_perp, n_occ)
        return d_perp, trace, None
    d_perp, eig, mu0 = _fermi_eigenbasis(h_perp, beta_t, float(n_occ))
    return d_perp, None, (eig, mu0)


def _anderson_step(d, f, diffs: deque, c_mix: float) -> np.ndarray:
    """Next density from the current one and its residual f = D_new - D.

    Anderson (DIIS) extrapolation over `diffs`, the (iterate, residual)
    differences of the last few sweeps: the combination whose residual has
    the least Frobenius norm is stepped along c_mix times that residual.
    Without differences it is plain linear mixing. Every operand is
    symmetric, so the result is too.
    """
    step = d + c_mix * f
    if diffs:
        df = np.stack([g.ravel() for _, g in diffs], axis=1)
        gamma = np.linalg.lstsq(df, f.ravel(), rcond=None)[0]
        for g, (dd, dfi) in zip(gamma, diffs):
            step -= g * (dd + c_mix * dfi)
    return step


def scf_ground_state(
    h_core: np.ndarray,
    s: np.ndarray | None,
    kernel,
    n_occ: int,
    cfg: ScfConfig = ScfConfig(),
) -> ScfState:
    """Self-consistent ground state of H_eff = H_core + G(D).

    Each sweep builds D_new from H_eff(D); Anderson mixing over the last
    ANDERSON_DEPTH sweep-to-sweep differences picks the next D. Converged when the residual
    ||D_new - D||_F falls to eps_scf; the state is then the one that sweep
    built at the converged D. Raises ConvergenceError with the residual
    history otherwise.
    """
    n = h_core.shape[0]
    z = inverse_sqrt_factor(s) if s is not None else np.eye(n)
    d = np.zeros_like(h_core)
    residuals: list[float] = []
    diffs: deque = deque(maxlen=ANDERSON_DEPTH)
    last = None
    for _ in range(cfg.max_iters):
        h_eff = symmetrize(h_core + apply_kernel(kernel, d))
        h_perp = congruence_transform(h_eff, z, "to_orthogonal")
        d_perp, trace, thermal_state = _solve_perp(h_perp, n_occ, cfg.beta_t)
        d_new = congruence_transform(d_perp, z, "density_from_orthogonal")
        f = d_new - d
        residuals.append(float(np.linalg.norm(f)))
        if residuals[-1] <= cfg.eps_scf:
            break
        if last is not None:
            diffs.append((d - last[0], f - last[1]))
        last = (d, f)
        d = _anderson_step(d, f, diffs, cfg.c_mix)
    else:
        raise ConvergenceError(
            f"SCF did not converge in {cfg.max_iters} iterations "
            f"(last residual {residuals[-1]:.3e})",
            residuals,
        )

    # The last sweep is the consistent final state: H_eff at the converged
    # density and the density it builds.
    if thermal_state is None:
        eig = sym_eigendecompose(h_perp)
        mu0 = 0.5 * (float(eig.values[n_occ - 1]) + float(eig.values[n_occ]))
        eig_perp = None
    else:
        eig_perp, mu0 = thermal_state
    return ScfState(
        h_core=h_core,
        z=z,
        kernel=kernel,
        n_occ=n_occ,
        cfg=cfg,
        d0=d_new,
        h_eff=h_eff,
        h0_perp=h_perp,
        d0_perp=d_perp,
        mu0=mu0,
        sp2_trace=trace,
        eig_perp=eig_perp,
        residuals=tuple(residuals),
    )


@dataclass(frozen=True)
class ScfResponse:
    """Self-consistent first-order response to one seed, with its solve's
    record.

    residuals holds the fresh-image residual ||L(seed + G(y)) - y||_F at each
    GMRES start and at the result (the last entry), and GMRES's own residual
    estimate after each Arnoldi step between them. applications counts the
    derivative applications L(.), the quantity ScfConfig.max_iters caps.
    """

    response: np.ndarray
    residuals: tuple[float, ...]
    applications: int


def scf_response(state: ScfState, seed: np.ndarray, cfg: ScfConfig | None = None) -> ScfResponse:
    """Coupled-perturbed response over a converged ground state: the density
    response when the seed is a Hamiltonian perturbation, the susceptibility
    when it is an observable.

    With L the derivative of the frozen ground state (the replayed SP2
    expansion at zero temperature, the trace-neutral Fermi derivative
    otherwise, each between the congruences with Z), the response y solves
    the linear equation (I - L G) y = L(seed). GMRES (restarted every
    GMRES_RESTART Arnoldi steps) solves it from y = L(seed). Every GMRES
    start and the result are checked by one explicit application, the fresh
    image L(seed + G(y)); that image is returned once it lies within eps_scf
    of y. Raises ConvergenceError with the residual history when cfg.max_iters
    applications do not get there.

    cfg (default: the state's) supplies eps_scf and max_iters; the
    temperature is always the one the state was built at.
    """
    # imported here: scipy.sparse.linalg adds about 0.1 s to every import of
    # the package, and only this solve uses it
    from scipy.sparse.linalg import LinearOperator, gmres

    cfg = state.cfg if cfg is None else cfg
    if seed.shape != state.d0.shape:
        raise ValueError(f"dimension mismatch: {seed.shape} vs {state.d0.shape}")
    z = state.z
    beta_t = state.cfg.beta_t
    residuals: list[float] = []
    applications = 0

    def derivative(x):
        nonlocal applications
        if applications == cfg.max_iters:
            raise ConvergenceError(
                f"coupled-perturbed solve did not converge in {cfg.max_iters} "
                f"derivative applications (residual history {len(residuals)} long"
                + (f", last {residuals[-1]:.3e})" if residuals else ")"),
                residuals,
            )
        applications += 1
        x_perp = congruence_transform(x, z, "to_orthogonal")
        if beta_t is None:
            _, y_perp, _ = dm_perturbation_forward(
                state.h0_perp, x_perp, state.n_occ, trace=state.sp2_trace
            )
        else:
            y_perp, _ = trace_neutral_derivative(state.eig_perp, x_perp, beta_t, state.mu0)
        return congruence_transform(y_perp, z, "density_from_orthogonal")

    def operator(v):
        e = v.reshape(seed.shape)
        return (e - derivative(apply_kernel(state.kernel, e))).ravel()

    size = seed.size
    op = LinearOperator((size, size), matvec=operator, dtype=np.float64)
    y = derivative(seed)
    while True:
        y_new = derivative(seed + apply_kernel(state.kernel, y))
        r = y_new - y
        r_norm = float(np.linalg.norm(r))
        residuals.append(r_norm)
        if r_norm <= cfg.eps_scf:
            return ScfResponse(y_new, tuple(residuals), applications)
        # GMRES solves (I - L G) e = r for the correction; y + e is checked
        # by its fresh image, and a check failed only by rounding restarts
        # GMRES from there.
        e, _ = gmres(
            op,
            r.ravel(),
            rtol=0.0,
            atol=cfg.eps_scf,
            restart=GMRES_RESTART,
            maxiter=1,
            callback=lambda rel: residuals.append(float(rel) * r_norm),
            callback_type="pr_norm",
        )
        y = y + e.reshape(seed.shape)


def scf_dm_response(state: ScfState, h1: np.ndarray, cfg: ScfConfig | None = None) -> np.ndarray:
    """Self-consistent first-order density response to a Hamiltonian
    perturbation, over a converged ground state."""
    return scf_response(state, h1, cfg).response


def scf_susceptibility(state: ScfState, a: np.ndarray, cfg: ScfConfig | None = None) -> np.ndarray:
    """Self-consistent susceptibility of an observable, over a converged
    ground state; contracts with any Hamiltonian perturbation."""
    return scf_response(state, a, cfg).response
