"""Ground-state density matrices by second-order spectral projection (SP2).

The spectrum of H is mapped in reversed order onto [0, 1] by an affine
transform, then driven to {0, 1} by the recursion

    X_{n+1} = (1 - sigma_n) X_n + sigma_n X_n^2,   sigma_n = +/-1,

with each sigma_n picked so the trace of X_{n+1} lands as close as possible
to the target occupation. The full branch record (Sp2Trace) is returned so
any derivative expansion can replay the identical sequence.

`_expand` is the one place that runs the recursion, differentiated
forward (a derivative iterate seeded with a perturbation or an observable)
or not at all. A run asked to store its iterates returns them, frozen, as an
`Sp2Expansion`: the record of the run plus X_0 .. X_{m-1}, over which any
number of seeds run forward and any number of observables run backward by
pair updates alone, with no square. One arithmetic kernel per storage or
precision does the matrix work and alone knows the storage kind: it checks
the operands, bounds the spectrum and gates converged runs. The dense and thresholded-sparse kernels live here;
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
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConvergenceError
from .linalg import SpectralBounds, gershgorin_bounds
from .sparse import SparseMatrix, _canonical, check_symmetric, threshold

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

# The dense kernels bound the spectrum by its computed extreme eigenvalues,
# each moved outward by this fraction of their spread (see
# `_DenseOps.bounds`). It covers the float32 rounding of the low-precision
# kernels' seed, about u_32 sqrt(N) of the mapped spectrum, and the
# eigensolver's error, about N u ||H||_2, unless the spread is tiny next to
# ||H||_2; a further N u ||H||_2 covers that case.
EIGEN_BOUND_PAD = 0.01


@dataclass(frozen=True)
class Sp2Trace:
    """Record of one ground-state expansion, sufficient to replay it.

    sigmas : branch choices, one per applied recursion step.
    idempotency_log : per-step |Tr[X_n^2 - X_n]| of the iterate each step
        consumed, n = 1 .. m_steps.
    bounds : spectral bounds the transform was built from.
    n_occ : occupation the branch choices targeted.
    m_steps : number of applied steps, len(sigmas).
    alpha, beta_spec : scalars of the initial affine spectral transform
        (beta_spec < 0: the mapping reverses the spectrum).
    """

    sigmas: tuple[int, ...]
    idempotency_log: tuple[float, ...]
    bounds: SpectralBounds
    n_occ: int

    @property
    def m_steps(self) -> int:
        return len(self.sigmas)

    @property
    def alpha(self) -> float:
        return _init_scalars(self.bounds)[0]

    @property
    def beta_spec(self) -> float:
        return _init_scalars(self.bounds)[1]


@dataclass(frozen=True, eq=False)
class Sp2Expansion(Sp2Trace):
    """A ground-state expansion frozen with its iterates.

    The record of the run, which replays as any Sp2Trace does, plus the
    run's arithmetic kernel `ops`, the iterates X_0 .. X_{m-1} its steps
    consumed and the final iterate `d0`: m_steps * N^2 floats for a dense
    run, besides D0. Built by `_expand(..., store=True)`.

    `forward(seed)` and `backward(a)` differentiate the frozen expansion
    with one pair update per step and no square. `forward` returns bit for
    bit the derivative a fresh or replayed run with that seed returns.
    """

    ops: object = field(repr=False)
    iterates: tuple = field(repr=False)
    d0: object = field(repr=False)

    def check_source(self, h0, n_occ: int) -> None:
        """Raise ValueError unless this expansion was built from h0 at n_occ:
        the replay's n_occ rule, then an exact O(N^2) comparison of h0's
        seed with the stored X_0."""
        if n_occ != self.n_occ:
            raise ValueError(f"the replayed record targets n_occ = {self.n_occ}, got {n_occ}")
        self.ops.check(h0, "the given h0")
        if not self.ops.same(self.ops.seed(self.alpha, self.beta_spec, h0), self.iterates[0]):
            raise ValueError("the expansion was built from another h0")

    def forward(self, seed):
        """Derivative of the expansion along a symmetric seed: Y_0 = beta
        seed, then Y_{n+1} from Y_n and the stored X_n."""
        self.ops.check(seed, "seed")
        y = self.ops.scale(self.beta_spec, seed)
        for sigma, xn in zip(self.sigmas, self.iterates):
            y = self.ops.pair_update(sigma, y, xn)
        return y

    def backward(self, a):
        """Susceptibility of the observable A: A swept back through the
        stored iterates; the derivative-scale factor goes on the result, not
        the seed."""
        self.ops.check(a, "a")
        y = a
        for sigma, xn in zip(reversed(self.sigmas), reversed(self.iterates)):
            y = self.ops.pair_update(sigma, y, xn)
        return self.ops.scale(self.beta_spec, y)


def _init_scalars(bounds: SpectralBounds) -> tuple[float, float]:
    """(alpha, beta) mapping [eps_min, eps_max] onto [1, 0]; bounds of no
    width or of a width beyond the float64 range raise ValueError."""
    width = bounds.width
    if not 0.0 < width < math.inf:
        raise ValueError(
            f"spectral bounds [{bounds.eps_min}, {bounds.eps_max}] have width {width}; "
            "the spectrum cannot be mapped onto [0, 1]"
        )
    return bounds.eps_max / width, -1.0 / width


# Wording of the non-convergence error; low-precision kernels override it.
_GAP_HINT = "this usually signals a vanishing gap at the requested occupation"


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

    def bounds(self, h0: np.ndarray) -> SpectralBounds:
        """Gershgorin's interval narrowed to h0's extreme eigenvalues.

        LAPACK's values-only symmetric solver gives the extremes; each moves
        outward by EIGEN_BOUND_PAD of their spread plus N u ||H||_2, and the
        result is clipped to Gershgorin's, so it is never the wider. On
        gapped random H at N = 1000 Gershgorin's interval is about 17 times
        the spectrum's width, and SP2 took 32 steps from it against 18 from
        this one, for the cost of about three products. A Gershgorin
        interval of no finite positive width is returned as it is, before
        any eigensolve, for `_init_scalars` to reject.
        """
        disc = gershgorin_bounds(h0)
        if not 0.0 < disc.width < math.inf:
            return disc
        values = np.linalg.eigvalsh(h0)
        lo, hi = float(values[0]), float(values[-1])
        solver_error = self.n * float(np.finfo(np.float64).eps) * max(abs(lo), abs(hi))
        pad = EIGEN_BOUND_PAD * (hi - lo) + solver_error
        return SpectralBounds(max(disc.eps_min, lo - pad), min(disc.eps_max, hi + pad))

    @staticmethod
    def _flush(m: np.ndarray) -> np.ndarray:
        m[np.abs(m) < DENORMAL_FLUSH] = 0.0
        return m

    def seed(self, alpha: float, beta: float, h0: np.ndarray) -> np.ndarray:
        return self._flush(alpha * np.eye(self.n) + beta * h0)

    @staticmethod
    def same(x, y) -> bool:
        """Whether two iterates are equal entry for entry."""
        return np.array_equal(x, y)

    def scale(self, c: float, x: np.ndarray) -> np.ndarray:
        return c * x

    def square(self, x):
        return x @ x

    def trace(self, x) -> float:
        return float(x.trace())

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

    def check_occupation(self, x, trace: Sp2Trace, hint: str) -> None:
        """Reject an iterate whose trace misses the occupation: O(N), no
        product."""
        tr_err = abs(self.trace(x) - trace.n_occ)
        if tr_err > self.trace_tol:
            raise ConvergenceError(
                f"SP2 occupation error |Tr[D] - N_occ| = {tr_err:.3e} exceeds "
                f"{self.trace_tol:.3e}{hint}",
                trace.idempotency_log,
            )

    def gate(self, x, trace: Sp2Trace) -> None:
        """Reject a converged run whose iterate misses the occupation or is
        not idempotent."""
        self.check_occupation(x, trace, self.tol_hint)
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
    symmetric without any re-symmetrization. It bounds the spectrum by
    Gershgorin discs alone, which need no eigensolve and cost O(nnz); it
    shares the dense kernel's trace and keeps its gate, held to the
    tau-limited accuracy of a sparse run.
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

    def bounds(self, h0: SparseMatrix):
        return gershgorin_bounds(h0.csr)

    def seed(self, alpha: float, beta: float, h0: SparseMatrix) -> SparseMatrix:
        import scipy.sparse as sp

        return threshold(sp.identity(self.n, format="csr") * alpha + h0.csr * beta, self.tau)

    @staticmethod
    def same(x: SparseMatrix, y: SparseMatrix) -> bool:
        return (x.csr != y.csr).nnz == 0

    def scale(self, c: float, x: SparseMatrix) -> SparseMatrix:
        return SparseMatrix(_canonical(x.csr * c), self.tau)

    def square(self, x: SparseMatrix) -> SparseMatrix:
        return threshold(x.csr @ x.csr, self.tau)

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


def _expand(h0, n_occ, y_seed=None, replay=None, store=False, ops=None):
    """Run the SP2 recursion, optionally differentiated in one direction.

    `ops` is the arithmetic kernel; it defaults to the dense or sparse one
    matching h0 (the low-precision kernels live in `mixedprec`). The kernel
    checks h0 and `y_seed`, and gates every fresh run (see
    `_DenseOps.gate`).

    Returns (x_final, y_final, trace). With `y_seed` the derivative iterate
    evolves forward next to the ground-state iterate; without it y_final is
    None. With `store` every iterate is kept and the trace is an
    Sp2Expansion holding them (m_steps * N^2 floats for a dense run), which
    differentiates the frozen run in any direction, forward or backward, by
    pair updates alone. Without it nothing is stored.

    With `replay` (an earlier run's Sp2Trace) its bounds and branch
    sequence are consumed verbatim instead of re-derived, which reproduces
    that run bit for bit. The record must target `n_occ` (ValueError), and
    the replayed iterate must pass the kernel's O(N) occupation test
    (ConvergenceError), which a record of another h0 fails.

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
    for m, name in ((h0, "h0"), (y_seed, "seed")):
        if m is not None:
            ops.check(m, name)
    n = ops.n
    if not 1 <= n_occ <= n - 1:
        raise ValueError(f"n_occ must lie in [1, {n - 1}], got {n_occ}")
    if replay is not None and replay.n_occ != n_occ:
        raise ValueError(f"the replayed record targets n_occ = {replay.n_occ}, got {n_occ}")
    bounds = ops.bounds(h0) if replay is None else replay.bounds
    alpha, beta = _init_scalars(bounds)

    x = ops.seed(alpha, beta, h0)
    y = ops.scale(beta, y_seed) if y_seed is not None else None
    floor = IDEMPOTENCY_FLOOR * n
    stall_ceiling = ops.stall_tol * math.sqrt(n)
    target = float(n_occ)

    plan = None if replay is None else replay.sigmas
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
            if store:
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

    record = {"sigmas": tuple(sigmas), "idempotency_log": tuple(log), "bounds": bounds, "n_occ": n_occ}
    if store:
        trace = Sp2Expansion(**record, ops=ops, iterates=tuple(stored), d0=x)
    else:
        trace = Sp2Trace(**record)
    if replay is None:
        ops.gate(x, trace)
    else:
        ops.check_occupation(x, trace, "; the replayed record does not belong to this h0")
    return x, y, trace


def sp2_ground_state(h0, n_occ: int):
    """Zero-temperature density matrix of a gapped symmetric Hamiltonian.

    Parameters
    ----------
    h0 : dense symmetric ndarray or SparseMatrix. The spectrum of a dense h0
        is bounded by its padded extreme eigenvalues, that of a sparse one by
        Gershgorin discs (see `_DenseOps.bounds`).
    n_occ : number of occupied states, 1 <= n_occ <= N-1. The spectrum must
        have a nonzero gap after the n_occ-th eigenvalue (detected only via
        non-convergence).

    Returns
    -------
    (d0, trace) : density matrix of the same kind as h0, and the Sp2Trace
    needed to replay the expansion for derivative calculations.
    """
    x, _, trace = _expand(h0, n_occ)
    return x, trace
