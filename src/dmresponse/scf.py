"""Self-consistent ground states and coupled-perturbed linear response.

The Hamiltonian depends on the density through a pluggable linear,
symmetry-preserving kernel G. Each sweep is the transformed solve:
congruence to the orthonormal basis, spectral projection or Fermi smearing,
congruence back. The ground state is its fixed point, reached by Anderson
(DIIS) mixing of the density (Anderson, J. ACM 12, 547, 1965; Pulay, Chem.
Phys. Lett. 73, 393, 1980). A first-order response solves the linear
coupled-perturbed equation y = L(seed + G(y)), with L the derivative of the
frozen ground state, by the same mixer; on a linear fixed point Anderson
mixing is a Krylov method, essentially the generalized minimal residual
method (Walker & Ni, SIAM J. Numer. Anal. 49, 1715, 2011). The
susceptibility is the density response with the observable in the seed
position.
"""

from __future__ import annotations

import math
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
from .sp2 import Sp2Trace, _expand, sp2_ground_state
from .thermal import _fermi_eigenbasis, trace_neutral_derivative

# image-to-image (iterate, residual) differences the Anderson mixer
# extrapolates over
ANDERSON_DEPTH = 8


class ZeroKernel:
    """G(X) = 0: the bare problem. The ground state takes three sweeps (the
    second Anderson step lands on the fixed point), a response two
    derivative applications (L(seed) and its unchanged image)."""

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

    c_mix is the step weight of the Anderson mixer both solves share: the
    share of each fresh residual (image minus iterate) added to the
    extrapolated iterate (1 takes it whole). eps_scf bounds the Frobenius
    norm of the final residual of both solves. max_iters caps the
    ground-state sweeps, and separately the derivative applications of each
    response solve. beta_t, when set,
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
        if self.beta_t is not None and not 0.0 < self.beta_t < math.inf:
            raise ValueError(
                f"inverse temperature beta_t must be finite and positive, got {self.beta_t}"
            )


@dataclass(frozen=True)
class ScfState:
    """Converged self-consistent ground state plus everything a response
    solve replays: the orthonormal-basis Hamiltonian, its expansion record
    (zero T) or eigendecomposition (finite T), and the chemical potential."""

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


def _anderson_step(d, f, diffs: deque, c_mix: float) -> np.ndarray:
    """Next iterate from the current one and its residual f = image - iterate.

    Anderson (DIIS) extrapolation over `diffs`, the (iterate, residual)
    differences of the last few images: the combination whose residual has
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


def _anderson(image, x, cfg: ScfConfig, cap: int, what):
    """Fixed point x = image(x) by Anderson mixing, from the given x and
    within `cap` images. image(x) returns (x_new, extra); each fresh image
    both checks x (||x_new - x||_F <= eps_scf) and gives the next step's
    residual. Returns (x_new, extra, residual history), or raises
    ConvergenceError(what(history), history)."""
    residuals: list[float] = []
    last = None
    diffs: deque = deque(maxlen=ANDERSON_DEPTH)
    for _ in range(cap):
        x_new, extra = image(x)
        f = x_new - x
        residuals.append(float(np.linalg.norm(f)))
        if residuals[-1] <= cfg.eps_scf:
            return x_new, extra, residuals
        if last is not None:
            diffs.append((x - last[0], f - last[1]))
        last = (x, f)
        x = _anderson_step(x, f, diffs, cfg.c_mix)
    raise ConvergenceError(what(residuals), residuals)


def scf_ground_state(
    h_core: np.ndarray,
    s: np.ndarray | None,
    kernel,
    n_occ: int,
    cfg: ScfConfig = ScfConfig(),
) -> ScfState:
    """Self-consistent ground state of H_eff = H_core + G(D).

    Each sweep builds D_new from H_eff(D); Anderson mixing over the last
    ANDERSON_DEPTH sweeps picks the next D, from D = 0. Converged when the
    residual ||D_new - D||_F falls to eps_scf; the state is then the one that
    sweep built at the converged D. Raises ConvergenceError with the residual
    history when cfg.max_iters sweeps do not get there.
    """
    z = inverse_sqrt_factor(s) if s is not None else np.eye(h_core.shape[0])

    def sweep(d):
        h_eff = symmetrize(h_core + apply_kernel(kernel, d))
        h_perp = congruence_transform(h_eff, z, "to_orthogonal")
        # spectral projection at zero temperature, Fermi smearing otherwise
        if cfg.beta_t is None:
            d_perp, trace = sp2_ground_state(h_perp, n_occ)
            eig_perp = mu0 = None
        else:
            d_perp, eig_perp, mu0 = _fermi_eigenbasis(h_perp, cfg.beta_t, float(n_occ))
            trace = None
        d_new = congruence_transform(d_perp, z, "density_from_orthogonal")
        return d_new, (h_eff, h_perp, d_perp, trace, eig_perp, mu0)

    def what(r):
        return f"SCF did not converge in {cfg.max_iters} iterations (last residual {r[-1]:.3e})"

    d0, last_sweep, residuals = _anderson(sweep, np.zeros_like(h_core), cfg, cfg.max_iters, what)
    # The last sweep is the consistent final state: H_eff at the converged
    # density and the density it builds.
    h_eff, h_perp, d_perp, trace, eig_perp, mu0 = last_sweep
    if cfg.beta_t is None:
        eig = sym_eigendecompose(h_perp)
        mu0 = 0.5 * (float(eig.values[n_occ - 1]) + float(eig.values[n_occ]))
    return ScfState(
        z=z,
        kernel=kernel,
        n_occ=n_occ,
        cfg=cfg,
        d0=d0,
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

    residuals holds the fresh-image residual ||L(seed + G(y)) - y||_F of each
    iterate y, the result's last. applications counts the derivative
    applications L(.), the quantity ScfConfig.max_iters caps: the start
    L(seed) and one per fresh image, so len(residuals) + 1.
    """

    response: np.ndarray
    residuals: tuple[float, ...]
    applications: int


def scf_response(state: ScfState, seed: np.ndarray) -> ScfResponse:
    """Coupled-perturbed response over a converged ground state: the density
    response when the seed is a Hamiltonian perturbation, the susceptibility
    when it is an observable.

    With L the derivative of the frozen ground state (the SP2 expansion at
    zero temperature, the trace-neutral Fermi derivative otherwise, each
    between the congruences with Z), the response is the fixed point
    y = L(seed + G(y)), reached from y = L(seed) by the ground state's
    Anderson mixer. The fresh image is returned once it lies within eps_scf
    of y. Raises ConvergenceError with the residual history when max_iters
    applications do not get there. The state's cfg supplies c_mix, eps_scf,
    max_iters and the temperature.

    At zero temperature the solve first replays state.sp2_trace once,
    storing its iterates (an sp2.Sp2Expansion), so each application is one
    pair update per step over the stored ground state, with no square. The
    solve holds those m_steps * N^2 floats until it returns: about 2.2 MB
    at n = 100 and 256 MB at N = 1000 (m_steps = 28 and 32).
    """
    cfg = state.cfg
    if seed.shape != state.d0.shape:
        raise ValueError(f"dimension mismatch: {seed.shape} vs {state.d0.shape}")
    z = state.z
    beta_t = cfg.beta_t
    if beta_t is None:
        _, _, expansion = _expand(state.h0_perp, state.n_occ, replay=state.sp2_trace, store=True)

    def derivative(x):
        x_perp = congruence_transform(x, z, "to_orthogonal")
        if beta_t is None:
            y_perp = expansion.forward(x_perp)
        else:
            y_perp, _ = trace_neutral_derivative(state.eig_perp, x_perp, beta_t, state.mu0)
        return congruence_transform(y_perp, z, "density_from_orthogonal")

    def what(r):
        return (
            f"coupled-perturbed solve did not converge in {cfg.max_iters} derivative "
            f"applications (residual history {len(r)} long"
            + (f", last {r[-1]:.3e})" if r else ")")
        )

    def image(y):
        return derivative(seed + apply_kernel(state.kernel, y)), None

    y, _, residuals = _anderson(image, derivative(seed), cfg, cfg.max_iters - 1, what)
    return ScfResponse(y, tuple(residuals), len(residuals) + 1)


def scf_dm_response(state: ScfState, h1: np.ndarray) -> np.ndarray:
    """Self-consistent first-order density response to a Hamiltonian
    perturbation, over a converged ground state."""
    return scf_response(state, h1).response


def scf_susceptibility(state: ScfState, a: np.ndarray) -> np.ndarray:
    """Self-consistent susceptibility of an observable, over a converged
    ground state; contracts with any Hamiltonian perturbation."""
    return scf_response(state, a).response
