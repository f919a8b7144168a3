"""Ground-state density matrices by second-order spectral projection (SP2).

The spectrum of H is mapped in reversed order onto [0, 1] by an affine
transform, then driven to {0, 1} by the recursion

    X_{n+1} = (1 - sigma_n) X_n + sigma_n X_n^2,   sigma_n = +/-1,

with each sigma_n picked so the trace of X_{n+1} lands as close as possible
to the target occupation. The full branch record (Sp2Trace) is returned so
any derivative expansion can replay the identical sequence.

`_expand` is the one place that runs the recursion, differentiated
forward (a derivative iterate seeded with a perturbation or an observable)
or backward (an observable swept back through the stored iterates). One
arithmetic kernel per storage or precision does the matrix work and alone
knows the storage kind: it checks the operands, bounds the spectrum and
gates converged runs. The dense and thresholded-sparse kernels live here;
the sparse one makes its branch decisions from thresholded traces.

A run with a derivative iterate makes two independent products per step:
the square X_n^2, which sets sigma_n and X_{n+1}, and the pair product
Y_n X_n, which only Y_{n+1} needs. The sparse kernel runs them in two
lanes: after sigma_n is chosen, the pair update for Y_{n+1} goes to one
worker thread while the calling thread forms X_{n+1}, its square, its trace
and sigma_{n+1}. The worker's result is joined before the next pair update
is submitted, so at most one is ever in flight and the derivative lane lags
the ground-state lane by one step. The kernel operations are the same in
both lanes, so the results are bit-identical to an inline run. The dense
and low-precision kernels run inline (see `_SparseOps.overlap_pair_update`).
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError
from .linalg import SpectralBounds, gershgorin_bounds
from .sparse import SparseMatrix, _canonical, check_symmetric, sp_gershgorin, threshold

MAX_ITERATIONS = 120

# Stop once |Tr[X^2 - X]| falls below this per-dimension floor ...
IDEMPOTENCY_FLOOR = 1e-15
# ... or once it has ceased to decrease over two consecutive steps at or
# below sqrt(N) times the kernel's `stall_tol`; above that, the error may
# still rise while the spectrum is sorted into the two bands.

# Acceptance thresholds for a converged dense run (see `_DenseOps.gate`).
TRACE_TOL = 1e-8
IDEMPOTENCY_TOL = 1e-7
# A sparse run drops entries below tau at every step, which perturbs a
# converged run's occupation and its ||D^2 - D||_F by about tau * sqrt(N).
# The occupation must stay within that scale; the idempotency residual may
# exceed it by this factor.
SPARSE_IDEMPOTENCY_FACTOR = 10.0

# Entries this small are exact zeros for every purpose here, but if left in
# the iterates they (and their pairwise products) land in the subnormal
# range, where BLAS kernels slow down by an order of magnitude on chain-like
# systems with exponentially decaying density matrices.
DENORMAL_FLUSH = 1e-150


@dataclass(frozen=True)
class Sp2Trace:
    """Record of one ground-state expansion, sufficient to replay it.

    alpha, beta_spec : scalars of the initial affine spectral transform
        (beta_spec < 0: the mapping reverses the spectrum).
    sigmas : branch choices, one per applied recursion step.
    m_steps : number of applied steps (== len(sigmas)).
    idempotency_log : per-step |Tr[X_n^2 - X_n]| of the iterate each step
        consumed, n = 1 .. m_steps.
    bounds : spectral bounds the transform was built from.
    n_occ : occupation the branch choices targeted.
    """

    alpha: float
    beta_spec: float
    sigmas: tuple[int, ...]
    m_steps: int
    idempotency_log: tuple[float, ...]
    bounds: SpectralBounds
    n_occ: int


def _init_scalars(bounds: SpectralBounds) -> tuple[float, float]:
    width = bounds.width
    if not width > 0.0:
        raise ValueError(
            f"spectral bounds [{bounds.eps_min}, {bounds.eps_max}] have no width; "
            "the spectrum cannot be mapped onto [0, 1]"
        )
    return bounds.eps_max / width, -1.0 / width


# Wording of the non-convergence error; low-precision kernels override it.
_GAP_HINT = (
    "this usually signals a vanishing gap at the requested occupation or bad spectral bounds"
)


class _DenseOps:
    """Dense kernel: plain float64 matrix algebra."""

    name = "SP2"
    stall_hint = _GAP_HINT
    # BLAS-3 products already use every core (see _SparseOps).
    overlap_pair_update = False
    # acceptance limits of a converged run (see `gate`)
    trace_tol = TRACE_TOL
    idempotency_tol = IDEMPOTENCY_TOL
    tol_hint = ""
    # a stall is taken for the noise floor only at or below sqrt(N) times
    # this (see `_expand`); above the gate's limit it could not pass anyway
    stall_tol = IDEMPOTENCY_TOL

    def __init__(self, h0: np.ndarray):
        self.n = h0.shape[0]

    def check(self, m, name: str) -> None:
        """Raise ValueError unless m is dense and of h0's dimension."""
        if isinstance(m, SparseMatrix):
            raise ValueError(f"{name} must be the same storage kind as h0")
        if m.shape != (self.n, self.n):
            raise ValueError(f"dimension mismatch: h0 is {self.n}, {name} has shape {m.shape}")

    bounds = staticmethod(gershgorin_bounds)

    @staticmethod
    def _flush(m: np.ndarray) -> np.ndarray:
        m[np.abs(m) < DENORMAL_FLUSH] = 0.0
        return m

    def seed(self, alpha: float, beta: float, h0: np.ndarray) -> np.ndarray:
        return self._flush(alpha * np.eye(self.n) + beta * h0)

    def scale(self, c: float, x: np.ndarray) -> np.ndarray:
        return c * x

    def square(self, x):
        return x @ x

    def trace(self, x) -> float:
        return float(np.trace(x))

    def combine(self, sigma: int, x, x2):
        # (1 - sigma) X + sigma X^2
        return self._flush(x2 if sigma == 1 else 2.0 * x - x2)

    def pair_update(self, sigma: int, y, x):
        # (1 - sigma) Y + sigma (YX + XY); XY = (YX)^T for symmetric X, Y.
        p = y @ x
        s = p + p.T
        return self._flush(s if sigma == 1 else 2.0 * y - s)

    def idempotency_residual(self, x, x2) -> float:
        return float(np.linalg.norm(x2 - x))

    def gate(self, x, trace: Sp2Trace) -> None:
        """Reject a converged run whose iterate misses the occupation or is
        not idempotent."""
        tr_err = abs(self.trace(x) - trace.n_occ)
        if tr_err > self.trace_tol:
            raise ConvergenceError(
                f"SP2 occupation error |Tr[D] - N_occ| = {tr_err:.3e} exceeds "
                f"{self.trace_tol:.3e}{self.tol_hint}",
                trace.idempotency_log,
            )
        idem = self.idempotency_residual(x, self.square(x))
        if idem > self.idempotency_tol:
            raise ConvergenceError(
                f"SP2 idempotency residual ||D^2 - D||_F = {idem:.3e} exceeds "
                f"{self.idempotency_tol:.3e}{self.tol_hint}",
                trace.idempotency_log,
            )


class _SparseOps(_DenseOps):
    """Thresholded kernel: every product and combination re-thresholds.

    All of them are exactly symmetric for symmetric inputs (see the
    `sparse` module), so a plain elementwise drop keeps the iterates
    symmetric without any re-symmetrization. Of the dense kernel it keeps
    only the gate, held to the tau-limited accuracy of a sparse run.
    """

    # Run pair_update on a worker thread next to the square (see `_expand`).
    # Only this kernel gains from it:
    # - scipy's CSR product runs on one core and releases the GIL. At
    #   N = 16000 on a 2-core host, X@X took 90 ms and Y@X 89 ms alone, and
    #   both 124 ms together on two threads.
    # - The dense kernel's BLAS products already use every core. Overlapped,
    #   it was no faster at N = 1000 and 4-6x slower at n = 100, where the
    #   thread hand-off outweighs each product.
    # - The split16 kernel keeps state between square and pair_update (it
    #   reuses the split of X), so its two products cannot run apart.
    overlap_pair_update = True

    def __init__(self, h0: SparseMatrix):
        self.n = h0.dim
        self.tau = h0.tau
        scale = self.tau * math.sqrt(self.n)
        self.trace_tol = max(TRACE_TOL, scale)
        self.idempotency_tol = max(IDEMPOTENCY_TOL, SPARSE_IDEMPOTENCY_FACTOR * scale)
        self.stall_tol = self.idempotency_tol
        self.tol_hint = f"; the drop tolerance tau = {self.tau:.3e} may be too coarse for this system"

    def check(self, m, name: str) -> None:
        """Raise ValueError unless m is sparse, of h0's dimension and exactly
        symmetric."""
        if not isinstance(m, SparseMatrix):
            raise ValueError(f"{name} must be the same storage kind as h0")
        if m.csr.shape != (self.n, self.n):
            raise ValueError(f"dimension mismatch: h0 is {self.n}, {name} has shape {m.csr.shape}")
        check_symmetric(m, name)

    bounds = staticmethod(sp_gershgorin)

    def seed(self, alpha: float, beta: float, h0: SparseMatrix) -> SparseMatrix:
        import scipy.sparse as sp

        return threshold(sp.identity(self.n, format="csr") * alpha + h0.csr * beta, self.tau)

    def scale(self, c: float, x: SparseMatrix) -> SparseMatrix:
        return SparseMatrix(_canonical(x.csr * c), self.tau)

    def square(self, x: SparseMatrix) -> SparseMatrix:
        return threshold(x.csr @ x.csr, self.tau)

    def trace(self, x: SparseMatrix) -> float:
        return x.trace()

    def combine(self, sigma: int, x: SparseMatrix, x2: SparseMatrix) -> SparseMatrix:
        if sigma == 1:
            return x2
        return threshold(x.csr * 2.0 - x2.csr, self.tau)

    def pair_update(self, sigma: int, y: SparseMatrix, x: SparseMatrix) -> SparseMatrix:
        p = y.csr @ x.csr
        # With sorted indices on both operands scipy adds by a merge whose
        # output is sorted too, so threshold need not sort it again.
        p.sort_indices()
        s = p + p.T
        del p  # release the raw product before the combination
        if sigma == 1:
            return threshold(s, self.tau)
        # the raw sum holds twice its nnz; compact it before forming 2Y - S
        s = threshold(s, 0.0).csr
        return threshold(y.csr * 2.0 - s, self.tau)

    def idempotency_residual(self, x: SparseMatrix, x2: SparseMatrix) -> float:
        d = x2.csr - x.csr
        return float(np.sqrt(np.sum(d.data**2)))


def _ops_for(h0):
    return _SparseOps(h0) if isinstance(h0, SparseMatrix) else _DenseOps(h0)


def _joined(y):
    """The derivative iterate, waiting for it if it is still in flight."""
    return y.result() if isinstance(y, Future) else y


def _expand(h0, n_occ, bounds=None, y_seed=None, replay_sigmas=None, backward=None, ops=None):
    """Run the SP2 recursion, optionally differentiated in one direction.

    `ops` is the arithmetic kernel; it defaults to the dense or sparse one
    matching h0 (the low-precision kernels live in `mixedprec`). The kernel
    checks h0, `y_seed` and `backward`, and gates every fresh run, never a
    replay (see `_DenseOps.gate`).

    Returns (x_final, y_final, trace). With `y_seed` the derivative iterate
    evolves forward next to the ground-state iterate. With `backward` (an
    observable A) every iterate is stored, and after the gate A is swept
    back through them: y_final is then the susceptibility of A. With
    neither, y_final is None. With `replay_sigmas` the branch sequence is
    consumed verbatim instead of re-derived, which reproduces the
    originating run bit for bit.

    A fresh run that reaches idempotency appends a two-step trace-neutral
    tail (branches +1 then -1) to its branch plan and finishes it as a
    replay would. At idempotency both branches leave the iterate fixed and
    preserve the occupied-virtual blocks of the derivative iterate, while
    their product annihilates its same-band blocks; without the tail a run
    whose very first iterate is already idempotent would return the raw
    seed as the derivative, which is wrong for any direction commuting with
    h0.
    """
    ops = ops or _ops_for(h0)
    for m, name in ((h0, "h0"), (y_seed, "seed"), (backward, "a")):
        if m is not None:
            ops.check(m, name)
    n = ops.n
    if not 1 <= n_occ <= n - 1:
        raise ValueError(f"n_occ must lie in [1, {n - 1}], got {n_occ}")
    if bounds is None:
        bounds = ops.bounds(h0)
    alpha, beta = _init_scalars(bounds)

    x = ops.seed(alpha, beta, h0)
    y = ops.scale(beta, y_seed) if y_seed is not None else None
    floor = IDEMPOTENCY_FLOOR * n
    stall_ceiling = ops.stall_tol * math.sqrt(n)
    target = float(n_occ)

    plan = replay_sigmas
    sigmas: list[int] = []
    log: list[float] = []
    stored: list = []
    # With a lane, y is the Future of the derivative iterate in flight.
    lane = None
    if y is not None and ops.overlap_pair_update:
        lane = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sp2-pair-update")
    try:
        while plan is None or len(sigmas) < len(plan):
            x2 = ops.square(x)
            tr_x = ops.trace(x)
            tr_x2 = ops.trace(x2)
            log.append(abs(tr_x2 - tr_x))
            if plan is not None:
                sigma = plan[len(sigmas)]
            elif log[-1] <= floor or (
                len(log) >= 3 and stall_ceiling >= log[-1] >= log[-2] >= log[-3]
            ):
                # the first tail step reuses this square, so the per-step
                # multiply count stays uniform
                plan = (*sigmas, 1, -1)
                sigma = 1
            elif len(sigmas) == MAX_ITERATIONS:
                raise ConvergenceError(
                    f"{ops.name} did not converge within {MAX_ITERATIONS} iterations "
                    f"(final idempotency error {log[-1]:.3e}); {ops.stall_hint}",
                    log,
                )
            else:
                d_plus = abs(tr_x2 - target)
                d_minus = abs(2.0 * tr_x - tr_x2 - target)
                sigma = 1 if d_plus <= d_minus else -1
            if backward is not None:
                stored.append(x)
            if y is not None:
                if lane is None:
                    y = ops.pair_update(sigma, y, x)
                else:
                    y = lane.submit(ops.pair_update, sigma, _joined(y), x)
            x = ops.combine(sigma, x, x2)
            sigmas.append(sigma)
            del x2  # after sigma = -1, X_n^2 is garbage during the next square
        y = _joined(y)
    finally:
        if lane is not None:
            # waits for an update still in flight, so no thread outlives the run
            lane.shutdown()

    trace = Sp2Trace(
        alpha=alpha,
        beta_spec=beta,
        sigmas=tuple(sigmas),
        m_steps=len(sigmas),
        idempotency_log=tuple(log),
        bounds=bounds,
        n_occ=n_occ,
    )
    if replay_sigmas is None:
        ops.gate(x, trace)
    if backward is not None:
        # the derivative-scale factor goes on the result, not the seed
        y = backward
        for sigma, xn in zip(reversed(sigmas), reversed(stored)):
            y = ops.pair_update(sigma, y, xn)
        y = ops.scale(beta, y)
    return x, y, trace


def sp2_ground_state(h0, n_occ: int, bounds: SpectralBounds | None = None):
    """Zero-temperature density matrix of a gapped symmetric Hamiltonian.

    Parameters
    ----------
    h0 : dense symmetric ndarray or SparseMatrix.
    n_occ : number of occupied states, 1 <= n_occ <= N-1. The spectrum must
        have a nonzero gap after the n_occ-th eigenvalue (detected only via
        non-convergence).
    bounds : optional spectral bounds; tighter bounds converge faster.
        Defaults to Gershgorin discs.

    Returns
    -------
    (d0, trace) : density matrix of the same kind as h0, and the Sp2Trace
    needed to replay the expansion for derivative calculations.
    """
    x, _, trace = _expand(h0, n_occ, bounds)
    return x, trace
