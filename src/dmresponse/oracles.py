"""Independent ground-truth generators for the recursive expansions.

Reference generators only, each built on a route the recursions never take:
central finite differences, the exact eigenbasis derivative of the spectral
projector, and a bit-level binary16 encoder written directly against the
IEEE 754 layout. The tests and `dmresponse audit` check the recursive
implementations against these; these import none of the code they check.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .linalg import EigenDecomposition, symmetrize

GAP_GUARD = 1e-8


def finite_difference_response(
    builder: Callable[[np.ndarray], np.ndarray],
    h0: np.ndarray,
    direction: np.ndarray,
    h: float = 1e-5,
) -> np.ndarray:
    """Central difference (builder(h0 + h dir) - builder(h0 - h dir)) / 2h.

    Second-order accurate in h for builders smooth along the direction.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"step h must be finite and positive, got {h}")
    plus = builder(h0 + h * direction)
    minus = builder(h0 - h * direction)
    return (plus - minus) / (2.0 * h)


def projector_derivative_exact(
    eig: EigenDecomposition, direction: np.ndarray, mu: float
) -> np.ndarray:
    """Exact zero-temperature derivative of the occupied-space projector.

    Eigenbasis divided differences of the step function: occupied-virtual
    blocks carry 1/(li - lj), same-occupation blocks vanish. Requires an
    open gap: any eigenvalue within GAP_GUARD of mu is rejected.
    """
    lam = eig.values
    if np.min(np.abs(lam - mu)) <= GAP_GUARD:
        raise ValueError(
            f"eigenvalue within {GAP_GUARD:g} of mu = {mu}: the projector "
            "derivative is singular at a closing gap"
        )
    theta = (lam < mu).astype(np.float64)
    num = theta[:, None] - theta[None, :]
    diff = lam[:, None] - lam[None, :]
    ell = np.zeros_like(num)
    cross = num != 0.0
    ell[cross] = num[cross] / diff[cross]
    w = eig.vectors.T @ direction @ eig.vectors
    return symmetrize(eig.vectors @ (ell * w) @ eig.vectors.T)


def binary16_reference_bits(x) -> np.ndarray:
    """Encode finite float64 values to IEEE 754 binary16 bit patterns.

    Pure integer manipulation of the float64 layout with round-to-nearest,
    ties-to-even; normals, subnormals, signed zeros, and overflow to the
    infinity pattern are all handled explicitly. This is the root of trust
    for the half-precision emulation and shares no code with it.
    """
    xv = np.ascontiguousarray(np.atleast_1d(np.asarray(x, dtype=np.float64)))
    if not np.all(np.isfinite(xv)):
        raise ValueError("binary16 reference encoder requires finite inputs")
    bits = xv.view(np.uint64)
    sign = ((bits >> np.uint64(63)) & np.uint64(1)).astype(np.uint16) << np.uint16(15)
    exp = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64)
    frac = bits & np.uint64((1 << 52) - 1)

    out = sign.copy()  # covers +/-0 and everything rounding to zero
    mant53 = frac | np.uint64(1 << 52)
    e_unb = exp - 1023

    # Normal half-precision candidates: round 52 explicit bits down to 10.
    normal = (exp > 0) & (e_unb >= -15)
    # e_unb == -15 can round up into the smallest normal; treat it in the
    # subnormal branch below, which handles that promotion bit-exactly.
    normal &= e_unb >= -14
    if np.any(normal):
        keep = (frac[normal] >> np.uint64(42)).astype(np.uint64)
        rem = frac[normal] & np.uint64((1 << 42) - 1)
        half = np.uint64(1 << 41)
        up = (rem > half) | ((rem == half) & ((keep & np.uint64(1)) == np.uint64(1)))
        keep = keep + up.astype(np.uint64)
        e_out = e_unb[normal] + 15
        spill = keep == np.uint64(1024)
        keep = np.where(spill, np.uint64(0), keep)
        e_out = e_out + spill.astype(np.int64)
        overflow = e_out >= 31
        code = (
            (np.minimum(e_out, 31).astype(np.uint16) << np.uint16(10))
            | keep.astype(np.uint16)
        )
        code = np.where(overflow, np.uint16(0x7C00), code).astype(np.uint16)
        out[normal] |= code

    # Subnormal half-precision (or promotion to the smallest normal): place
    # the 53-bit significand on the 2^-24 grid and round.
    sub = (exp > 0) & (e_unb < -14) & (e_unb >= -26)
    if np.any(sub):
        shift = (np.int64(28) - e_unb[sub]).astype(np.uint64)  # in [43, 54]
        keep = mant53[sub] >> shift
        rem = mant53[sub] & ((np.uint64(1) << shift) - np.uint64(1))
        half = np.uint64(1) << (shift - np.uint64(1))
        up = (rem > half) | ((rem == half) & ((keep & np.uint64(1)) == np.uint64(1)))
        keep = keep + up.astype(np.uint64)
        # keep == 1024 spills into the exponent field and lands exactly on
        # the smallest normal's pattern.
        out[sub] |= keep.astype(np.uint16)

    # exp == 0 (float64 subnormals, < 2^-1022) and e_unb < -26 both round to
    # signed zero, already in `out`.
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return out[0]
    return out.reshape(np.asarray(x).shape)
