"""Self-consistent ground states and coupled-perturbed linear response.

The Hamiltonian depends on the density through a pluggable linear,
symmetry-preserving kernel G. Each sweep is the transformed solve:
congruence to the orthonormal basis, the inner ground state there, and
congruence back; without an overlap the basis is already orthonormal and
there is no congruence factor. The inner ground state is the plain
routes' own, picked once per run: at zero temperature the dense route's
stored SP2 expansion, the `sp2.Sp2Expansion` of `sp2._expand(h, n_occ,
store=True)` (spectral projection), and a `thermal.FermiGroundState`
(Fermi smearing) otherwise. Both are frozen and offer `d0` and
`forward(seed)`, the derivative of D0 along a seed (Niklasson, Cawkwell,
Rubensson & Rudberg, PRE 92, 063301, 2015). The converged sweep's inner
state serves every response solve, so no expansion runs twice.

The ground state is the fixed point of the sweep, reached by Anderson
(DIIS) mixing of the density (Anderson, J. ACM 12, 547, 1965; Pulay, Chem.
Phys. Lett. 73, 393, 1980). A first-order response solves the linear
coupled-perturbed equation y = L(seed + G(y)), with L the inner ground
state's `forward` between the congruences, by the same mixer; on a linear
fixed point Anderson mixing is a Krylov method, essentially the generalized
minimal residual method (Walker & Ni, SIAM J. Numer. Anal. 49, 1715, 2011).
The susceptibility is the density response with the observable in the seed
position. Three module constants set the mixer for both solves: C_MIX, its
step weight; EPS_SCF, the residual it stops at; and MAX_ITERS, the cap on
sweeps and, per response, on derivative applications.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

import numpy as np

from .exceptions import ConvergenceError
from .linalg import (
    congruence_transform,
    inverse_sqrt_factor,
    sym_eigendecompose,
    symmetric_matrix,
    symmetrize,
)
from .sp2 import Sp2Expansion, _expand
from .thermal import FermiGroundState, _fermi_eigenbasis

# The Anderson mixer both solves share:
# - image-to-image (iterate, residual) differences it extrapolates over;
ANDERSON_DEPTH = 8
# - the share of each fresh residual (image minus iterate) added to the
#   extrapolated iterate (1 takes it whole);
C_MIX = 0.3
# - the bound on the Frobenius norm of the final residual;
EPS_SCF = 1e-11
# - the cap on ground-state sweeps, and separately on the derivative
#   applications of each response solve.
MAX_ITERS = 500


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
    rests on. Each factor must pass `linalg.symmetric_matrix` (square,
    finite, exactly symmetric; kept as given, never averaged), with a
    ValueError that names it B or C, and both must have one shape.
    """

    name = "bilinear"

    def __init__(self, b: np.ndarray, c: np.ndarray):
        self.b, self.c = symmetric_matrix(b, "B"), symmetric_matrix(c, "C")
        if self.b.shape != self.c.shape:
            raise ValueError(f"kernel factors differ in shape: {self.b.shape} vs {self.c.shape}")

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
    """Self-consistency parameters: beta_t, when set, selects the
    fractional-occupation path at that inverse temperature. The mixer's
    settings are the module constants C_MIX, EPS_SCF and MAX_ITERS."""

    beta_t: float | None = None

    def __post_init__(self):
        if self.beta_t is not None and not 0.0 < self.beta_t < math.inf:
            raise ValueError(
                f"inverse temperature beta_t must be finite and positive, got {self.beta_t}"
            )


@dataclass(frozen=True)
class ScfState:
    """Converged self-consistent ground state: the overlap factor Z (None
    without an overlap: the basis is already orthonormal), the kernel, D0,
    the H_eff that builds it, the inner ground state of the
    orthonormal-basis H_eff that every response solve differentiates, and
    the sweeps' residual history.

    The inner ground state is the converged sweep's own: at zero
    temperature the dense route's stored expansion, an sp2.Sp2Expansion
    (m_steps * N^2 floats, about 1.4 MB at n = 100 and 144 MB at N = 1000)
    whose `forward` is one pair update per step and no square; otherwise a
    thermal.FermiGroundState. No SP2 expansion runs after the sweeps.
    `mu0` is the inner state's at finite temperature; at zero temperature it
    is the HOMO-LUMO midpoint of the orthonormal-basis H_eff, whose
    eigendecomposition runs only when mu0 is read.
    """

    z: np.ndarray | None
    kernel: object
    d0: np.ndarray
    h_eff: np.ndarray
    inner: Sp2Expansion | FermiGroundState
    residuals: tuple[float, ...] = field(default=())

    @cached_property
    def mu0(self) -> float:
        if isinstance(self.inner, FermiGroundState):
            return self.inner.mu0
        h = congruence_transform(self.h_eff, self.z, "to_orthogonal")
        values, n_occ = sym_eigendecompose(h).values, self.inner.n_occ
        return 0.5 * (float(values[n_occ - 1]) + float(values[n_occ]))


def _anderson_step(d, f, diffs: deque) -> np.ndarray:
    """Next iterate from the current one and its residual f = image - iterate.

    Anderson (DIIS) extrapolation over `diffs`, the (iterate, residual)
    differences of the last few images: the combination whose residual has
    the least Frobenius norm is stepped along C_MIX times that residual.
    Without differences it is plain linear mixing. Every operand is
    symmetric, so the result is too.
    """
    step = d + C_MIX * f
    if diffs:
        df = np.stack([g.ravel() for _, g in diffs], axis=1)
        gamma = np.linalg.lstsq(df, f.ravel(), rcond=None)[0]
        for g, (dd, dfi) in zip(gamma, diffs):
            step -= g * (dd + C_MIX * dfi)
    return step


def _anderson(image, x, cap: int, what):
    """Fixed point x = image(x) by Anderson mixing, from the given x and
    within `cap` images. image(x) returns (x_new, extra); each fresh image
    both checks x (||x_new - x||_F <= EPS_SCF) and gives the next step's
    residual. Returns (x_new, extra, residual history), or raises
    ConvergenceError(what(history), history). An unconverged image's extra
    is dropped before the next image is built, so at most one is alive."""
    residuals: list[float] = []
    last = None
    diffs: deque = deque(maxlen=ANDERSON_DEPTH)
    for _ in range(cap):
        x_new, extra = image(x)
        f = x_new - x
        residuals.append(float(np.linalg.norm(f)))
        if residuals[-1] <= EPS_SCF:
            return x_new, extra, residuals
        del extra
        if last is not None:
            diffs.append((x - last[0], f - last[1]))
        last = (x, f)
        x = _anderson_step(x, f, diffs)
    raise ConvergenceError(what(residuals), residuals)


def scf_ground_state(
    h_core: np.ndarray,
    s: np.ndarray | None,
    kernel,
    n_occ: int,
    cfg: ScfConfig = ScfConfig(),
) -> ScfState:
    """Self-consistent ground state of H_eff = H_core + G(D).

    H_core and S must pass `linalg.symmetric_matrix` (square, finite and
    exactly symmetric; kept as given, never averaged), with a ValueError
    that names the operand. S, when given, must be positive definite; its
    Loewdin factor Z maps every sweep to the orthonormal basis and back.
    Without S no factor is made: ScfState.z is None and each sweep works on
    H_eff itself.

    Each sweep checks that H_eff(D) is finite (ValueError naming the kernel
    and the sweep otherwise) and builds the inner ground state of its
    orthonormal-basis form (at zero temperature a stored SP2 expansion,
    m_steps * N^2 floats); D_new is that state's D0 taken back through Z.
    Anderson mixing over the last ANDERSON_DEPTH sweeps picks the next D,
    from D = 0. Converged when the residual ||D_new - D||_F falls to
    EPS_SCF; the state is then the one that sweep built at the converged D.
    Raises ConvergenceError with the residual history when MAX_ITERS sweeps
    do not get there.
    """
    h_core = symmetric_matrix(h_core, "H_core")
    z = None if s is None else inverse_sqrt_factor(symmetric_matrix(s, "S"))
    # spectral projection at zero temperature, Fermi smearing otherwise
    if cfg.beta_t is None:

        def inner(h):
            return _expand(h, n_occ, store=True)[2]

    else:

        def inner(h):
            return _fermi_eigenbasis(h, cfg.beta_t, float(n_occ))

    sweeps = count(1)

    def sweep(d):
        # an overflowing G(D) is reported below, by name, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            h_eff = symmetrize(h_core + apply_kernel(kernel, d))
        k = next(sweeps)
        if not np.all(np.isfinite(h_eff)):
            raise ValueError(
                f"kernel {getattr(kernel, 'name', kernel)!r} made H_eff = H_core + G(D) "
                f"non-finite in SCF sweep {k}"
            )
        ground = inner(congruence_transform(h_eff, z, "to_orthogonal"))
        return congruence_transform(ground.d0, z, "density_from_orthogonal"), (h_eff, ground)

    def what(r):
        return f"SCF did not converge in {MAX_ITERS} iterations (last residual {r[-1]:.3e})"

    d0, (h_eff, ground), residuals = _anderson(sweep, np.zeros_like(h_core), MAX_ITERS, what)
    # The last sweep is the consistent final state: H_eff at the converged
    # density and the inner ground state it builds.
    return ScfState(z, kernel, d0, h_eff, ground, tuple(residuals))


@dataclass(frozen=True)
class ScfResponse:
    """Self-consistent first-order response to one seed, with its solve's
    record.

    residuals holds the fresh-image residual ||L(seed + G(y)) - y||_F of each
    iterate y, the result's last. applications counts the derivative
    applications L(.), the quantity MAX_ITERS caps: the start
    L(seed) and one per fresh image, so len(residuals) + 1.
    """

    response: np.ndarray
    residuals: tuple[float, ...]
    applications: int


def scf_response(state: ScfState, seed: np.ndarray) -> ScfResponse:
    """Coupled-perturbed response over a converged ground state: the density
    response when the seed is a Hamiltonian perturbation, the susceptibility
    when it is an observable.

    The seed must pass `linalg.symmetric_matrix` (exactly symmetric, never
    averaged) and match the state's dimension; ValueError otherwise, which
    names the operand "seed".

    With L(x) = Z inner.forward(Z^T x Z) Z^T the derivative of the frozen
    inner ground state between the congruences with Z (without an overlap
    Z is None and the congruences only symmetrize), the response is the
    fixed point y = L(seed + G(y)), reached from y = L(seed) by the ground
    state's Anderson mixer. The fresh image is returned once it lies within
    EPS_SCF of y. Raises ConvergenceError with the residual history when
    MAX_ITERS applications do not get there.
    """
    seed = symmetric_matrix(seed, "seed")
    if seed.shape != state.d0.shape:
        raise ValueError(f"dimension mismatch: {seed.shape} vs {state.d0.shape}")
    z = state.z

    def derivative(x):
        y_perp = state.inner.forward(congruence_transform(x, z, "to_orthogonal"))
        return congruence_transform(y_perp, z, "density_from_orthogonal")

    def what(r):
        return (
            f"coupled-perturbed solve did not converge in {MAX_ITERS} derivative "
            f"applications (residual history {len(r)} long"
            + (f", last {r[-1]:.3e})" if r else ")")
        )

    def image(y):
        return derivative(seed + apply_kernel(state.kernel, y)), None

    y, _, residuals = _anderson(image, derivative(seed), MAX_ITERS - 1, what)
    return ScfResponse(y, tuple(residuals), len(residuals) + 1)


def scf_dm_response(state: ScfState, h1: np.ndarray) -> np.ndarray:
    """Self-consistent first-order density response to a Hamiltonian
    perturbation, over a converged ground state."""
    return scf_response(state, h1).response


def scf_susceptibility(state: ScfState, a: np.ndarray) -> np.ndarray:
    """Self-consistent susceptibility of an observable, over a converged
    ground state; contracts with any Hamiltonian perturbation."""
    return scf_response(state, a).response
