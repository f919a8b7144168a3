"""Ground-state density matrices by second-order spectral projection (SP2).

The spectrum of H is mapped in reversed order onto [0, 1] by an affine
transform, then driven to {0, 1} by the recursion

    X_{n+1} = (1 - sigma_n) X_n + sigma_n X_n^2,   sigma_n = +/-1,

with each sigma_n picked so the trace of X_{n+1} lands as close as possible
to the target occupation. The full branch record (Sp2Trace) is returned so
any derivative expansion can replay the identical sequence.

Works on dense arrays and on thresholded SparseMatrix storage; the sparse
path makes its branch decisions from thresholded traces.

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
# ... or once it has ceased to decrease over two consecutive steps.

# Acceptance thresholds for a converged dense run.
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

    def __init__(self, h0: np.ndarray):
        self.n = h0.shape[0]

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


class _SparseOps:
    """Thresholded kernel: every product and combination re-thresholds.

    All of them are exactly symmetric for symmetric inputs (see the
    `sparse` module), so a plain elementwise drop keeps the iterates
    symmetric without any re-symmetrization.
    """

    name = "SP2"
    stall_hint = _GAP_HINT
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


def _expand(h0, n_occ, bounds, y_seed=None, replay_sigmas=None, store_x=False, ops=None):
    """Run the SP2 recursion, optionally coupled to a derivative iterate.

    `ops` is the arithmetic kernel; it defaults to the dense or sparse one
    matching h0 (the low-precision kernels live in `mixedprec`).

    Returns (x_final, y_final, trace, stored_x). With `replay_sigmas` the
    branch sequence is consumed verbatim for exactly that many steps instead
    of re-deriving it, which reproduces the originating run bit for bit.

    Fresh runs end with a two-step trace-neutral tail (branches +1 then -1).
    At idempotency both branches leave the iterate fixed and preserve the
    occupied-virtual blocks of the derivative iterate, while their product
    annihilates its same-band blocks; without the tail a run whose very
    first iterate is already idempotent would return the raw seed as the
    derivative, which is wrong for any direction commuting with h0.
    """
    ops = ops or _ops_for(h0)
    n = ops.n
    if isinstance(h0, SparseMatrix):
        check_symmetric(h0, "h0")
        if y_seed is not None:
            check_symmetric(y_seed, "seed")
    if not 1 <= n_occ <= n - 1:
        raise ValueError(f"n_occ must lie in [1, {n - 1}], got {n_occ}")
    if bounds is None:
        bounds = sp_gershgorin(h0) if isinstance(h0, SparseMatrix) else gershgorin_bounds(h0)
    alpha, beta = _init_scalars(bounds)

    x = ops.seed(alpha, beta, h0)
    y = ops.scale(beta, y_seed) if y_seed is not None else None
    floor = IDEMPOTENCY_FLOOR * n

    sigmas: list[int] = []
    log: list[float] = []
    stored: list = []
    target = float(n_occ)
    # With a lane, y is the Future of the derivative iterate in flight.
    lane = None
    if y is not None and ops.overlap_pair_update:
        lane = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sp2-pair-update")

    def apply_step(sigma, x, y, x2):
        if store_x:
            stored.append(x)
        if y is not None:
            if lane is None:
                y = ops.pair_update(sigma, y, x)
            else:
                y = lane.submit(ops.pair_update, sigma, _joined(y), x)
        x = ops.combine(sigma, x, x2)
        sigmas.append(sigma)
        return x, y

    try:
        if replay_sigmas is not None:
            for sigma in replay_sigmas:
                x2 = ops.square(x)
                log.append(abs(ops.trace(x2) - ops.trace(x)))
                x, y = apply_step(sigma, x, y, x2)
                del x2  # after sigma = -1, X_n^2 is garbage during the next square
        else:
            converged = False
            x2 = None
            for step in range(MAX_ITERATIONS + 1):
                x2 = ops.square(x)
                tr_x = ops.trace(x)
                tr_x2 = ops.trace(x2)
                err = abs(tr_x2 - tr_x)
                log.append(err)
                if err <= floor or (len(log) >= 3 and log[-1] >= log[-2] >= log[-3]):
                    converged = True
                    break
                if step == MAX_ITERATIONS:
                    break
                d_plus = abs(tr_x2 - target)
                d_minus = abs(2.0 * tr_x - tr_x2 - target)
                sigma = 1 if d_plus <= d_minus else -1
                x, y = apply_step(sigma, x, y, x2)
                del x2

            if not converged:
                raise ConvergenceError(
                    f"{ops.name} did not converge within {MAX_ITERATIONS} iterations "
                    f"(final idempotency error {log[-1]:.3e}); {ops.stall_hint}",
                    log,
                )

            # Derivative-flattening tail; the first step reuses the square from
            # the detection pass, so the per-step multiply count stays uniform.
            x, y = apply_step(1, x, y, x2)
            x2 = ops.square(x)
            log.append(abs(ops.trace(x2) - ops.trace(x)))
            x, y = apply_step(-1, x, y, x2)
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
    return x, y, trace, stored


def _accept(ops, x, trace):
    """Reject runs whose converged iterate misses the occupation or is not
    idempotent.

    Sparse runs are held to their tau-limited accuracy, which grows like
    tau * sqrt(N) (see SPARSE_IDEMPOTENCY_FACTOR), not to the dense limits.
    """
    trace_tol, idem_tol = TRACE_TOL, IDEMPOTENCY_TOL
    hint = ""
    if isinstance(ops, _SparseOps):
        scale = ops.tau * math.sqrt(ops.n)
        trace_tol = max(TRACE_TOL, scale)
        idem_tol = max(IDEMPOTENCY_TOL, SPARSE_IDEMPOTENCY_FACTOR * scale)
        hint = f"; the drop tolerance tau = {ops.tau:.3e} may be too coarse for this system"
    tr_err = abs(ops.trace(x) - trace.n_occ)
    if tr_err > trace_tol:
        raise ConvergenceError(
            f"SP2 occupation error |Tr[D] - N_occ| = {tr_err:.3e} exceeds {trace_tol:.3e}{hint}",
            trace.idempotency_log,
        )
    idem = ops.idempotency_residual(x, ops.square(x))
    if idem > idem_tol:
        raise ConvergenceError(
            f"SP2 idempotency residual ||D^2 - D||_F = {idem:.3e} exceeds {idem_tol:.3e}{hint}",
            trace.idempotency_log,
        )


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
    x, _, trace, _ = _expand(h0, n_occ, bounds)
    _accept(_ops_for(h0), x, trace)
    return x, trace
