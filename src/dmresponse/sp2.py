"""Ground-state density matrices by second-order spectral projection (SP2).

The spectrum of H is mapped in reversed order onto [0, 1] by an affine
transform, then driven to {0, 1} by the recursion

    X_{n+1} = (1 - sigma_n) X_n + sigma_n X_n^2,   sigma_n = +/-1,

with each sigma_n picked so the trace of X_{n+1} lands as close as possible
to the target occupation. Each run returns its record (Sp2Trace). Passed to
a later run, a plain record lends only its spectral bounds: that run picks
its branches and its stop step by the same rule as any other, is not gated
again if it reproduces the record, and is gated otherwise.

`_expand` is the one place that runs the recursion, differentiated
forward (a derivative iterate seeded with a perturbation or an observable)
or not at all. A run asked to store its iterates returns them, frozen, as an
`Sp2Expansion`: the record of the run plus X_0 .. X_{m-1}, over which any
number of seeds run forward and any number of observables run backward by
pair updates alone, with no square. One arithmetic kernel per storage or
precision does the matrix work and alone knows the storage kind: it checks
the operands, bounds the spectrum and gates converged runs. The dense and
thresholded-sparse kernels live here; the sparse one makes its branch
decisions from thresholded traces. Every kernel holds h0, each seed and each
observable, as given and uncopied, to the package's one operand rule:
finite and exactly symmetric (`linalg.check_symmetric`, and its CSR form in
`_SparseOps.check`), with a ValueError that names the operand. The dense
kernel forms each pair update and each combination in place on the fresh
product, tile by tile, with the arithmetic of the whole-matrix formulas (see
`_DenseOps.pair_update`), and writes into nothing else: stored iterates and
seeds are left as they are.

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
from .linalg import SpectralBounds, check_symmetric, gershgorin_bounds
from .sparse import SparseMatrix, _canonical, threshold

MAX_ITERATIONS = 120

# Stop once |Tr[X^2 - X]| falls below this per-dimension floor ...
IDEMPOTENCY_FLOOR = 1e-15
# ... or once it has ceased to decrease over two consecutive steps at or
# below sqrt(N) times the kernel's `idempotency_tol`; above that, the error
# may still rise while the spectrum is sorted into the two bands, and a
# gated run could not pass its gate anyway.

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

# Side of the square tiles in which the dense kernel combines and flushes
# its fresh products in place (see `_DenseOps.pair_update`): a tile of P and
# its transposed twin stay in cache while they are summed, combined, flushed
# and mirrored. 128 measured best at N = 1000 on a 2-core host.
_TILE = 128


@dataclass(frozen=True)
class Sp2Trace:
    """Record of one ground-state expansion.

    Passed as `record` to `_expand`, it lends its spectral bounds and
    nothing else. A run at its n_occ that reproduces its sigmas and
    idempotency log bit for bit repeated the recorded run and is not gated
    again; any other run (another n_occ, another h0) is gated.

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

    The record of the run plus its arithmetic kernel `ops`, the iterates
    X_0 .. X_{m-1} its steps consumed and the final iterate `d0`: m_steps *
    N^2 floats for a dense run, besides D0. Built by `_expand(...,
    store=True)`.

    `forward(seed)` and `backward(a)` differentiate the frozen expansion
    with one pair update per step and no square. `forward` returns bit for
    bit the derivative a fresh run with that seed returns.
    """

    ops: object = field(repr=False)
    iterates: tuple = field(repr=False)
    d0: object = field(repr=False)

    def check_source(self, h0, n_occ: int) -> None:
        """Raise ValueError unless this expansion was built from h0 at n_occ:
        its n_occ, then an exact O(N^2) comparison of h0's seed with the
        stored X_0. An expansion is never run again: its stored iterates
        serve each seed, so it must belong to the problem. A plain
        Sp2Trace has no such check; it lends only its bounds to a run that
        is gated unless it reproduces the record."""
        if n_occ != self.n_occ:
            raise ValueError(f"the stored expansion targets n_occ = {self.n_occ}, got {n_occ}")
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
    """Dense kernel: plain float64 matrix algebra on exactly symmetric
    operands. One BLAS product per square and per pair update; the
    elementwise work that follows it runs in place on that product."""

    name = "SP2"
    stall_hint = _GAP_HINT
    # BLAS-3 products already use every core (see _SparseOps).
    overlap_pair_update = False
    # acceptance limits of a converged run (see `gate`); the idempotency
    # limit also caps the stall test (see `_expand`)
    trace_tol = TRACE_TOL
    idempotency_tol = IDEMPOTENCY_TOL
    tol_hint = ""

    def __init__(self, h0):
        """Every kernel is built here, from h0 in either storage kind; `check`
        then holds h0 to this kernel's own."""
        if not isinstance(h0, (np.ndarray, SparseMatrix)):
            raise ValueError(f"h0 must be an ndarray or a SparseMatrix, got {type(h0).__name__}")
        if isinstance(h0, np.ndarray) and h0.ndim != 2:
            raise ValueError(f"expected a square h0, got shape {h0.shape}")
        self.n = h0.dim if isinstance(h0, SparseMatrix) else h0.shape[0]

    def check(self, m, name: str) -> None:
        """Raise ValueError unless m is an ndarray, of h0's dimension and
        passes `linalg.check_symmetric` as given, uncopied: finite and
        exactly symmetric (`pair_update` takes XY as (YX)^T)."""
        if not isinstance(m, np.ndarray):
            raise ValueError(f"{name} must be the same storage kind as h0")
        if m.shape != (self.n, self.n):
            raise ValueError(f"dimension mismatch: h0 is {self.n}, {name} has shape {m.shape}")
        check_symmetric(m, name)

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
        # (1 - sigma) X + sigma X^2, written into X^2's buffer by row blocks,
        # each flushed while it is in cache; X is left as it is
        for r in range(0, self.n, _TILE):
            block = x2[r : r + _TILE]
            if sigma == -1:
                np.subtract(2.0 * x[r : r + _TILE], block, out=block)
            self._flush(block)
        return x2

    def pair_update(self, sigma: int, y, x):
        # (1 - sigma) Y + sigma (YX + XY), in place on P = YX: XY = P^T for
        # symmetric X, Y. Each tile of P's upper block triangle becomes
        # P + P^T, then 2Y - (P + P^T) for sigma = -1, is flushed while in
        # cache and is mirrored onto its lower-triangle twin, which no other
        # tile reads. Every entry gets the arithmetic of `s = p + p.T;
        # 2.0 * y - s`; the mirror holds the twin's own bits, as addition
        # commutes and Y is exactly symmetric (see `check`).
        p = y @ x
        for i in range(0, self.n, _TILE):
            rows = slice(i, i + _TILE)
            for j in range(i, self.n, _TILE):
                cols = slice(j, j + _TILE)
                u = p[rows, cols]
                # a diagonal tile is its own twin: it is summed into a fresh
                # tile and copied back, which is cheaper than numpy's
                # buffering of an overlapping operand
                s = u + u.T if j == i else np.add(u, p[cols, rows].T, out=u)
                if sigma == -1:
                    np.subtract(2.0 * y[rows, cols], s, out=s)
                self._flush(s)
                if j == i:
                    u[...] = s
                else:
                    p[cols, rows] = s.T
        return p

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
        super().__init__(h0)
        self.tau = h0.tau
        scale = self.tau * math.sqrt(self.n)
        self.trace_tol = max(TRACE_TOL, scale)
        self.idempotency_tol = max(IDEMPOTENCY_TOL, SPARSE_IDEMPOTENCY_FACTOR * scale)
        self.tol_hint = f"; the drop tolerance tau = {self.tau:.3e} may be too coarse for this system"

    def check(self, m, name: str) -> None:
        """Raise ValueError unless m is sparse, of h0's dimension, finite and
        exactly symmetric: the CSR form of `linalg.check_symmetric`, with
        its messages."""
        if not isinstance(m, SparseMatrix):
            raise ValueError(f"{name} must be the same storage kind as h0")
        if m.csr.shape != (self.n, self.n):
            raise ValueError(f"dimension mismatch: h0 is {self.n}, {name} has shape {m.csr.shape}")
        if not np.isfinite(m.csr.data).all():
            raise ValueError(f"{name} contains non-finite entries")
        if (m.csr != m.csr.T).nnz:
            raise ValueError(f"{name} is not exactly symmetric")

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


def _expand(h0, n_occ, y_seed=None, record=None, store=False, ops=None):
    """Run the SP2 recursion, optionally differentiated in one direction.

    `ops` is the arithmetic kernel; it defaults to the dense or sparse one
    matching h0 (the low-precision kernels live in `mixedprec`). The kernel
    checks h0 and `y_seed`, and gates every run that does not reproduce
    `record` (see `_DenseOps.gate`).

    Returns (x_final, y_final, trace). With `y_seed` the derivative iterate
    evolves forward next to the ground-state iterate; without it y_final is
    None. With `store` every iterate is kept and the trace is an
    Sp2Expansion holding them (m_steps * N^2 floats for a dense run), which
    differentiates the frozen run in any direction, forward or backward, by
    pair updates alone. Without it nothing is stored.

    A `record` (an earlier run's Sp2Trace) lends its spectral bounds, so no
    bounds are computed; the branches and the stop step are derived as in
    any run. A run at the record's n_occ whose sigmas and idempotency log
    equal the record's bit for bit repeated the recorded run, which was
    gated when it ran fresh, so it is not gated again; any other run, for
    another n_occ or another h0, is.

    A run that reaches idempotency appends a two-step trace-neutral tail
    (branches +1 then -1). At idempotency both branches leave the iterate
    fixed and preserve the occupied-virtual blocks of the derivative
    iterate, while their product annihilates its same-band blocks; without
    the tail a run whose very first iterate is already idempotent would
    return the raw seed as the derivative, which is wrong for any direction
    commuting with h0.
    """
    ops = ops or _ops_for(h0)
    for m, name in ((h0, "h0"), (y_seed, "seed")):
        if m is not None:
            ops.check(m, name)
    n = ops.n
    if not 1 <= n_occ <= n - 1:
        raise ValueError(f"n_occ must lie in [1, {n - 1}], got {n_occ}")
    bounds = ops.bounds(h0) if record is None else record.bounds
    alpha, beta = _init_scalars(bounds)

    x = ops.seed(alpha, beta, h0)
    y = ops.scale(beta, y_seed) if y_seed is not None else None
    floor = IDEMPOTENCY_FLOOR * n
    stall_ceiling = ops.idempotency_tol * math.sqrt(n)
    target = float(n_occ)

    tail = 0  # steps taken of the trace-neutral tail
    sigmas: list[int] = []
    log: list[float] = []
    stored: list = []
    # With a lane, y is the Future of the derivative iterate in flight.
    lane = None
    if y is not None and ops.overlap_pair_update:
        lane = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sp2-pair-update")
    try:
        while tail < 2:
            x2 = ops.square(x)
            tr_x = ops.trace(x)
            tr_x2 = ops.trace(x2)
            log.append(abs(tr_x2 - tr_x))
            if tail or log[-1] <= floor or (
                len(log) >= 3 and stall_ceiling >= log[-1] >= log[-2] >= log[-3]
            ):
                # the first tail step reuses this square, so the per-step
                # multiply count stays uniform
                sigma = -1 if tail else 1
                tail += 1
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
            # unless combined in place (dense kernel), X_n^2 is garbage
            # during the next square
            del x2
        y = _joined(y)
    finally:
        if lane is not None:
            # waits for an update still in flight, so no thread outlives the run
            lane.shutdown()

    run = {"sigmas": tuple(sigmas), "idempotency_log": tuple(log), "bounds": bounds, "n_occ": n_occ}
    if store:
        trace = Sp2Expansion(**run, ops=ops, iterates=tuple(stored), d0=x)
    else:
        trace = Sp2Trace(**run)
    # a run for another occupation that took the recorded path would end on
    # the record's occupation, so n_occ is part of the path
    path = (trace.sigmas, trace.idempotency_log, trace.n_occ)
    if record is None or (record.sigmas, record.idempotency_log, record.n_occ) != path:
        ops.gate(x, trace)
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
    of the run, which a later run on the same h0 may take as its record.
    """
    x, _, trace = _expand(h0, n_occ)
    return x, trace
