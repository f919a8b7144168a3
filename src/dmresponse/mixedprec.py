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
one rounding onto the grid: exact integer arithmetic on the float64 bit
pattern, bit-identical to numpy's float16 cast but without its slow path
for the binary16 subnormals that fill every low part. `_round_array16`
checks input not yet known to lie in the binary16 range before rounding
it. A split is the plain pair (high, low) that `split` returns.

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
BINARY16_MIN_NORMAL = 2.0**-14

# binary16 keeps the top 10 of float64's 52 fraction bits; rounding adds
# just under half of the dropped range, plus the lowest kept bit (ties to
# even), then clears the 42 dropped bits.
_DROPPED_BITS = np.uint64(42)
_HALF_DROPPED_MINUS_ONE = np.uint64((1 << 41) - 1)
_KEPT_BITS = np.uint64(((1 << 64) - 1) ^ ((1 << 42) - 1))


def _round16(x: np.ndarray) -> np.ndarray:
    """Round a float64 array to the nearest binary16 value (ties to even),
    widened to float32.

    Equal bit for bit to `np.float16(x).astype(np.float32)` wherever that is
    finite, that is for |x| < 65520, but without numpy's slow path for
    binary16 subnormals. Callers reject larger magnitudes first.

    Normal range: integer rounding of the float64 bit pattern at bit 42; a
    carry out of the fraction rolls into the exponent, as it should.
    Subnormal range (|x| < 2^-14): the binary16 grid is uniform with step
    2^-24, so rint on the scaled value rounds it (keeping the sign of zero).
    """
    bits = x.view(np.uint64)
    out = bits >> _DROPPED_BITS
    out &= np.uint64(1)
    out += _HALF_DROPPED_MINUS_ONE
    out += bits
    out &= _KEPT_BITS
    out = out.view(np.float64)
    sub = np.abs(x)
    tiny = sub < BINARY16_MIN_NORMAL
    if tiny.any():
        np.multiply(x, 2.0**24, out=sub)
        np.rint(sub, out=sub)
        sub *= 2.0**-24
        np.copyto(out, sub, where=tiny)
    return out.astype(np.float32)


def _round_array16(x: np.ndarray) -> np.ndarray:
    """`_round16` with its input checked: non-finite values raise
    ValueError, magnitudes beyond the largest binary16 normal
    OverflowError. The expansions keep their iterates inside [0, 1], so an
    overflow is a bug, never something to saturate away."""
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot round non-finite values to binary16")
    if np.any(np.abs(x) > BINARY16_MAX):
        bad = float(np.max(np.abs(x)))
        raise OverflowError(f"entry magnitude {bad!r} exceeds the binary16 range")
    return _round16(x)


class SplitMatrix(NamedTuple):
    """Two-term binary16 representation: high = fl16(X),
    low = fl16(X - high)."""

    high: np.ndarray
    low: np.ndarray


def split(x: np.ndarray) -> SplitMatrix:
    """Split a matrix into its two-term binary16 representation. Once x has
    passed the range check, its remainder is finite and at most 16 in
    magnitude, so only x itself is checked."""
    x64 = np.asarray(x, dtype=np.float64)
    high = _round_array16(x64)
    return SplitMatrix(high, _round16(x64 - high))


@dataclass(frozen=True)
class MixedPipelineResult:
    """Split-precision expansion outputs: ground state, response matrix
    (None for a ground-state run), replayable branch record, and the
    elementary-product count."""

    d0: np.ndarray
    response: np.ndarray | None
    trace: Sp2Trace
    mult_count: int


PIPELINE_MODES = ("perturbation", "susceptibility")


class _F32Ops(_DenseOps):
    """Single-precision `_expand` kernel: float32 iterates, one plain float32
    multiply per square and per symmetrized pair (2 per step). The input
    checks and spectral bounds are the dense kernel's."""

    name = "low-precision expansion"
    stall_hint = "small gaps are often unresolvable at reduced precision"
    # A stall is the float32 noise floor only at or below sqrt(N) times this
    # (see `sp2._expand`). Over gapped random H at N <= 512, both kernels'
    # converged runs stalled below 1e-5 sqrt(N), while runs stopped before the
    # states next to the gap were sorted into their bands rose past
    # 1.3e-3 sqrt(N).
    stall_tol = 1000 * float(np.finfo(np.float32).eps)

    def __init__(self, h0: np.ndarray):
        super().__init__(h0)
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
        return float(np.trace(x.astype(np.float64)))

    def square(self, x: np.ndarray) -> np.ndarray:
        return self._gemm(x, x)

    def combine(self, sigma: int, x: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return x2 if sigma == 1 else 2.0 * x - x2

    def pair_update(self, sigma: int, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        pair = self._pair(y, x)
        return pair if sigma == 1 else 2.0 * y - pair

    def _pair(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        p = self._gemm(y, x)
        return p + p.T

    def gate(self, x, trace: Sp2Trace) -> None:
        """No gate: a reduced-precision run misses the float64 limits by
        design, and its callers judge it against the float64 route
        (acceptance criterion 7)."""

    def check_occupation(self, x, trace: Sp2Trace, hint: str) -> None:
        """No occupation test on a replay either, for the same reason."""


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
