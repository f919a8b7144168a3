"""Self-consistent ground states and coupled-perturbed linear response.

The Hamiltonian depends on the density through a pluggable linear,
symmetry-preserving kernel G. Ground states and first-order responses are
fixed points of the transformed solve (congruence to the orthonormal basis,
spectral projection or Fermi smearing, congruence back) combined with plain
linear mixing; the susceptibility loop is the density-response loop with the
observable in the seed position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConvergenceError
from .linalg import (
    EigenDecomposition,
    inverse_sqrt_factor,
    sym_eigendecompose,
    symmetrize,
)
from .response import dm_perturbation_forward
from .sp2 import Sp2Trace, sp2_ground_state
from .thermal import _fermi_eigenbasis, trace_neutral_derivative


class ZeroKernel:
    """G(X) = 0: reduces every self-consistent solve to a single pass."""

    name = "zero"
    strength = 0.0

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
        self.strength = float(np.linalg.norm(self.b) * np.linalg.norm(self.c))

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
    """Linear-mixing parameters: fraction of each new iterate accepted,
    residual tolerance on the mixed quantity, iteration cap, and an optional
    inverse temperature selecting the fractional-occupation path."""

    c_mix: float = 0.3
    eps_scf: float = 1e-11
    max_iters: int = 500
    beta_t: float | None = None

    def __post_init__(self):
        if not 0.0 < self.c_mix <= 1.0:
            raise ValueError("c_mix must lie in (0, 1]")
        if self.eps_scf <= 0.0:
            raise ValueError("eps_scf must be positive")
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


def scf_ground_state(
    h_core: np.ndarray,
    s: np.ndarray | None,
    kernel,
    n_occ: int,
    cfg: ScfConfig = ScfConfig(),
) -> ScfState:
    """Self-consistent ground state of H_eff = H_core + G(D).

    Linear mixing on the density: D <- D + c_mix (D_new - D), converged when
    the Frobenius norm of the update falls below eps_scf. Raises
    ConvergenceError with the residual history otherwise.
    """
    n = h_core.shape[0]
    z = inverse_sqrt_factor(s) if s is not None else np.eye(n)
    d = np.zeros_like(h_core)
    residuals: list[float] = []
    converged = False
    for _ in range(cfg.max_iters):
        h_eff = symmetrize(h_core + apply_kernel(kernel, d))
        h_perp = symmetrize(z.T @ h_eff @ z)
        d_perp, _, _ = _solve_perp(h_perp, n_occ, cfg.beta_t)
        d_new = symmetrize(z @ d_perp @ z.T)
        delta = float(np.linalg.norm(d_new - d))
        residuals.append(delta)
        d = d + cfg.c_mix * (d_new - d)
        if delta <= cfg.eps_scf:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"SCF did not converge in {cfg.max_iters} iterations "
            f"(last residual {residuals[-1]:.3e})",
            residuals,
        )

    # Rebuild a consistent final state at the converged density.
    h_eff = symmetrize(h_core + apply_kernel(kernel, d))
    h_perp = symmetrize(z.T @ h_eff @ z)
    d_perp, trace, thermal_state = _solve_perp(h_perp, n_occ, cfg.beta_t)
    d = symmetrize(z @ d_perp @ z.T)
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
        d0=d,
        h_eff=h_eff,
        h0_perp=h_perp,
        d0_perp=d_perp,
        mu0=mu0,
        sp2_trace=trace,
        eig_perp=eig_perp,
        residuals=tuple(residuals),
    )


def _response_fixed_point(state: ScfState, seed: np.ndarray, cfg: ScfConfig):
    """Shared coupled-perturbed loop for density response and susceptibility.

    Each sweep rebuilds the transformed first-order Hamiltonian from the
    kernel image of the current response, differentiates the frozen ground
    state along it, transforms back, and linearly mixes.
    """
    z = state.z
    y = np.zeros_like(seed)
    residuals: list[float] = []
    for _ in range(cfg.max_iters):
        seed_perp = symmetrize(z.T @ (seed + apply_kernel(state.kernel, y)) @ z)
        if cfg.beta_t is None:
            _, y_perp, _ = dm_perturbation_forward(
                state.h0_perp, seed_perp, state.n_occ, trace=state.sp2_trace
            )
        else:
            y_perp, _ = trace_neutral_derivative(
                state.eig_perp, seed_perp, cfg.beta_t, state.mu0
            )
        y_new = symmetrize(z @ y_perp @ z.T)
        delta = float(np.linalg.norm(y_new - y))
        residuals.append(delta)
        if delta <= cfg.eps_scf:
            # Return the fresh image rather than the mixed iterate: at
            # convergence they differ by at most (1 - c_mix) * eps_scf, and
            # the fresh solve is exact whenever the kernel feedback vanishes.
            return y_new, residuals
        y = y + cfg.c_mix * (y_new - y)
    raise ConvergenceError(
        f"coupled-perturbed loop did not converge in {cfg.max_iters} iterations "
        f"(last residual {residuals[-1]:.3e}); the kernel may be too strong "
        "for plain linear mixing",
        residuals,
    )


def scf_dm_response(state: ScfState, h1: np.ndarray, cfg: ScfConfig | None = None) -> np.ndarray:
    """Self-consistent first-order density response to a Hamiltonian
    perturbation, over a converged ground state."""
    cfg = state.cfg if cfg is None else cfg
    if h1.shape != state.d0.shape:
        raise ValueError(f"dimension mismatch: {h1.shape} vs {state.d0.shape}")
    d1, _ = _response_fixed_point(state, h1, cfg)
    return d1


def scf_susceptibility(state: ScfState, a: np.ndarray, cfg: ScfConfig | None = None) -> np.ndarray:
    """Self-consistent susceptibility of an observable, over a converged
    ground state; contracts with any Hamiltonian perturbation."""
    cfg = state.cfg if cfg is None else cfg
    if a.shape != state.d0.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {state.d0.shape}")
    chi, _ = _response_fixed_point(state, a, cfg)
    return chi
