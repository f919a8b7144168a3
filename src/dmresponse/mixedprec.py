"""Software emulation of half-precision tensor-core arithmetic.

A near-single-precision matrix is carried as two binary16 factors, a high
part and a low part holding the rounding remainder. Products are expanded
over the parts with the low*low term dropped, each elementary product taken
with binary16-exact factors and single-precision accumulation. For a
symmetric square the transpose of the high*low product replaces one
multiplication, so one iterate-square costs 2 elementary products and one
general symmetrized product costs 3: 5 per expansion step.

Values are stored widened (float32 arrays constrained to the binary16 grid);
nothing here dispatches to real low-precision hardware. `_round16` is the
one rounding onto the grid: branch-free, in the input's own precision, and
equal bit for bit to numpy's float16 cast without its slow path for the
binary16 subnormals that fill every low part. `_round_array16` checks input
not yet known to lie in the binary16 range before rounding it. A split is
the plain pair (high, low) that `split` returns.

Both pipelines run the one SP2 engine, `sp2._expand`, with a kernel of
their own: `_F32Ops` (plain float32 products) and `_Split16Ops` (split
products). Every elementary product goes through the kernel's `_gemm`,
which counts it in `mult_count`. The split16 kernel splits each iterate
once per step; the square and the pair update share that split. Without a
seed a pipeline runs the ground state alone, one square per step. Neither
kernel gates its runs: their callers judge them against the float64 route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sp2 import Sp2Trace, _DenseOps, _expand

BINARY16_MAX = 65504.0

# dtype: (bit-pattern view, exponent mask, sign mask, 1.5 * 2^(p - 10) for p fraction bits)
_GRID = {
    np.dtype(np.float32): (np.uint32, np.uint32(0xFF << 23), np.uint32(1 << 31), 1.5 * 2.0**13),
    np.dtype(np.float64): (np.uint64, np.uint64(0x7FF << 52), np.uint64(1 << 63), 1.5 * 2.0**42),
}


def _round16(x: np.ndarray, magnitude: np.ndarray | None = None) -> np.ndarray:
    """Round a float32 or float64 array to the nearest binary16 value (ties
    to even), widened to float32: bit for bit `np.float16(x).astype(np.float32)`
    wherever that is finite, |x| < 65520. Callers reject larger ones first.
    A caller that already holds |x| passes it as `magnitude`, which becomes
    the working buffer and is overwritten.

    With e the exponent of |x| clamped to at least -14 (binary16's
    subnormals share the spacing of its smallest normal binade), the unit in
    the last place of c = 1.5 * 2^(e + p - 10) is 2^(e - 10), the binary16
    spacing at |x|. So (|x| + c) - c in x's own precision rounds |x| onto the
    binary16 grid, ties to even as c is an even multiple of that spacing,
    and the subtraction is exact. Then x's sign bit is ORed back in, so
    -0.0 and negative values that round to zero keep it.
    """
    uint, exponent, sign, shift = _GRID[x.dtype]
    bits = x.view(uint)
    c_bits = bits & exponent  # 2^e; 0 below the normal range
    c = c_bits.view(x.dtype)
    np.maximum(c, 2.0**-14, out=c)
    c *= shift
    out = np.abs(x) if magnitude is None else magnitude
    out += c
    out -= c
    np.bitwise_and(bits, sign, out=c_bits)  # c's buffer takes the result
    c_bits |= out.view(uint)
    return c.astype(np.float32, copy=False)


def _round_array16(x: np.ndarray) -> np.ndarray:
    """`_round16` with its input checked: non-finite values raise
    ValueError, magnitudes beyond the largest binary16 normal
    OverflowError. The expansions keep their iterates inside [0, 1], so an
    overflow is a bug, never something to saturate away."""
    magnitude = np.abs(x)
    peak = np.max(magnitude, initial=0.0)
    if not peak <= BINARY16_MAX:
        if not np.isfinite(peak):  # NaN propagates through the max
            raise ValueError("cannot round non-finite values to binary16")
        raise OverflowError(f"entry magnitude {float(peak)!r} exceeds the binary16 range")
    return _round16(x, magnitude)


class SplitMatrix(NamedTuple):
    """Two-term binary16 representation: high = fl16(X),
    low = fl16(X - high)."""

    high: np.ndarray
    low: np.ndarray


def split(x: np.ndarray) -> SplitMatrix:
    """Split a matrix into its two-term binary16 representation. Once x has
    passed the range check, its remainder is finite and at most 16 in
    magnitude, so only x itself is checked. A float32 x is split in float32,
    where x - high is exact; any other dtype goes through float64."""
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    high = _round_array16(x)
    return SplitMatrix(high, _round16(x - high))


@dataclass(frozen=True)
class MixedPipelineResult:
    """Split-precision expansion outputs: ground state, response matrix
    (None for a ground-state run), the run's Sp2Trace, and the
    elementary-product count."""

    d0: np.ndarray
    response: np.ndarray | None
    trace: Sp2Trace
    mult_count: int


PIPELINE_MODES = ("perturbation", "susceptibility")


class _F32Ops(_DenseOps):
    """Single-precision `_expand` kernel: float32 iterates, one plain float32
    multiply per square and per symmetrized pair (2 per step). The input
    checks and spectral bounds are the dense kernel's; h0 must be dense."""

    name = "low-precision expansion"
    stall_hint = "small gaps are often unresolvable at reduced precision"
    # No gate reads this; it caps the stall test alone: a stall is the
    # float32 noise floor only at or below sqrt(N) times it (see
    # `sp2._expand`). Over gapped random H at N <= 512, both kernels'
    # converged runs stalled below 1e-5 sqrt(N), while runs stopped before the
    # states next to the gap were sorted into their bands rose past
    # 1.3e-3 sqrt(N).
    idempotency_tol = 1000 * float(np.finfo(np.float32).eps)

    def __init__(self, h0: np.ndarray):
        super().__init__(h0)
        if not isinstance(h0, np.ndarray):
            raise ValueError(
                "h0 must be an ndarray: the f32 and split16 kernels take dense storage only"
            )
        self.mult_count = 0

    def _gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """One elementary product: float32 (BLAS sgemm) accumulation; the
        split16 kernel passes binary16-exact factors."""
        self.mult_count += 1
        return a @ b

    def seed(self, alpha: float, beta: float, h0: np.ndarray) -> np.ndarray:
        return (alpha * np.eye(self.n) + beta * h0).astype(np.float32)

    def scale(self, c: float, x: np.ndarray) -> np.ndarray:
        return (c * x).astype(np.float32)

    def trace(self, x: np.ndarray) -> float:
        # branch decisions and stall tests run in float64
        return float(x.diagonal().astype(np.float64).sum())

    def square(self, x: np.ndarray) -> np.ndarray:
        return self._gemm(x, x)

    def combine(self, sigma: int, x: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return x2 if sigma == 1 else 2.0 * x - x2

    def pair_update(self, sigma: int, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        # a backward sweep starts from the caller's observable, in any dtype
        y = y.astype(np.float32, copy=False)
        pair = self._pair(y, x)
        return pair if sigma == 1 else 2.0 * y - pair

    def _pair(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        p = self._gemm(y, x)
        return p + p.T

    def gate(self, x, trace: Sp2Trace) -> None:
        """No gate: a reduced-precision run misses the float64 limits by
        design, and its callers judge it against the float64 route
        (acceptance criterion 7)."""


class _Split16Ops(_F32Ops):
    """Split16 `_expand` kernel: every product goes through the two-term
    binary16 representation (2 elementary products per square, 3 per
    symmetrized pair: 5 per step).

    `_expand` squares each iterate X and then pairs it with Y, so the split
    of X is kept from the square and reused by the pair update: each
    iterate is split once per step.
    """

    def __init__(self, h0: np.ndarray):
        super().__init__(h0)
        self._last_split: tuple[np.ndarray | None, SplitMatrix | None] = (None, None)

    def _split_x(self, x: np.ndarray) -> SplitMatrix:
        if self._last_split[0] is not x:
            self._last_split = (x, split(x))
        return self._last_split[1]

    def square(self, x: np.ndarray) -> np.ndarray:
        """X X for symmetric X in two elementary products: the low*high term
        is the transpose of high*low."""
        high, low = self._split_x(x)
        p_hl = self._gemm(high, low)
        return self._gemm(high, high) + p_hl + p_hl.T

    def _pair(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """YX + XY for symmetric X, Y in three elementary products.

        Expanding both orderings over the parts (low*low dropped) gives six
        terms that pair up as a product plus its transpose: Yh Xh, Yh Xl,
        and Xh Yl cover all of them.
        """
        (yh, yl), (xh, xl) = split(y), self._split_x(x)
        q = self._gemm(yh, xh) + self._gemm(yh, xl) + self._gemm(xh, yl)
        return q + q.T


def _pipeline(kernel, h0, seed, n_occ, mode) -> MixedPipelineResult:
    if mode not in PIPELINE_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {PIPELINE_MODES}")
    ops = kernel(h0)
    x, y, trace = _expand(h0, n_occ, y_seed=seed, ops=ops)
    return MixedPipelineResult(
        d0=x.astype(np.float64),
        response=None if y is None else y.astype(np.float64),
        trace=trace,
        mult_count=ops.mult_count,
    )


def mixed_response_pipeline(
    h0: np.ndarray,
    seed: np.ndarray | None,
    n_occ: int,
    mode: str = "susceptibility",
) -> MixedPipelineResult:
    """Ground state plus first-order response, entirely in split precision.

    Every dense product is a split-representation multiply with float32
    accumulation; iterates are kept in float32 and re-split before each
    step. Branch decisions and trace comparisons run in float64 on the
    accumulated iterate. The elementary-product count is exactly 5 per
    recursion step. `mode` only labels the seed: "perturbation" treats it as
    a Hamiltonian perturbation, "susceptibility" as an observable. With
    seed=None only the ground state is expanded, at 2 products per step,
    and the response is None.
    """
    return _pipeline(_Split16Ops, h0, seed, n_occ, mode)


def single_precision_pipeline(
    h0: np.ndarray,
    seed: np.ndarray | None,
    n_occ: int,
    mode: str = "susceptibility",
) -> MixedPipelineResult:
    """The same expansion with plain float32 products: the pure
    single-precision reference the split representation is judged against.
    seed=None expands the ground state alone, at 1 product per step."""
    return _pipeline(_F32Ops, h0, seed, n_occ, mode)
