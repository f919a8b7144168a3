"""Synthetic model Hamiltonians and overlap matrices.

Stand-ins for externally generated electronic-structure inputs: a dimerized
tight-binding chain with a tunable gap at half filling, a dense random
Hamiltonian with a guaranteed spectral gap at a chosen occupation, and the
chain again with a tridiagonal SPD overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import symmetrize

MODEL_KINDS = ("chain", "gapped_random", "overlap_chain")

BANDWIDTH = 2.0  # gapped_random: the spectrum lies in [-BANDWIDTH, BANDWIDTH]


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    n: int
    gap: float = 1.0
    seed: int = 0
    overlap: float = 0.2  # overlap_chain only, in (0, 0.5)
    n_below: int | None = None  # gapped_random: states below zero (default n//2)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if self.n < 2:
            raise ValueError(f"model dimension must be at least 2, got {self.n}")
        if not 0.0 < self.gap < np.inf:
            raise ValueError(f"gap must be finite and positive, got {self.gap}")
        if self.kind == "overlap_chain" and not (0.0 < self.overlap < 0.5):
            raise ValueError(
                f"neighbor overlap must lie in (0, 0.5) to keep S positive definite, got {self.overlap}"
            )
        if self.kind == "gapped_random":
            nb = self.n // 2 if self.n_below is None else self.n_below
            if not (1 <= nb <= self.n - 1):
                raise ValueError("n_below must lie in [1, n-1]")
            if self.gap >= 2.0 * BANDWIDTH:
                raise ValueError(f"gap must be below {2.0 * BANDWIDTH} for gapped_random, got {self.gap}")


def chain_diagonals(n: int, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """(on-site, hopping) diagonals of the dimerized chain: on-site energies
    alternating +gap/2, -gap/2, hopping -1 on both off-diagonals."""
    return np.where(np.arange(n) % 2 == 0, gap / 2.0, -gap / 2.0), np.full(n - 1, -1.0)


def chain_hamiltonian(n: int, gap: float) -> np.ndarray:
    """Dimerized nearest-neighbor chain (see chain_diagonals). Opens a gap
    of `gap` at half filling."""
    onsite, hopping = chain_diagonals(n, gap)
    h = np.diag(onsite)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = hopping
    h[idx + 1, idx] = hopping
    return h


def gapped_random_hamiltonian(n: int, gap: float, n_below: int, seed: int) -> np.ndarray:
    """Dense symmetric matrix with `n_below` eigenvalues in
    [-BANDWIDTH, -gap/2] and the rest in [gap/2, BANDWIDTH], conjugated by a
    seeded random orthogonal matrix."""
    rng = np.random.default_rng(seed)
    lows = rng.uniform(-BANDWIDTH, -gap / 2.0, size=n_below)
    highs = rng.uniform(gap / 2.0, BANDWIDTH, size=n - n_below)
    lam = np.sort(np.concatenate([lows, highs]))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    return symmetrize((q * lam) @ q.T)


def overlap_chain_matrices(n: int, gap: float, overlap: float) -> tuple[np.ndarray, np.ndarray]:
    """Chain Hamiltonian plus a tridiagonal Toeplitz overlap with unit
    diagonal and `overlap` on the first off-diagonals (SPD for overlap < 0.5)."""
    h = chain_hamiltonian(n, gap)
    s = np.eye(n)
    idx = np.arange(n - 1)
    s[idx, idx + 1] = overlap
    s[idx + 1, idx] = overlap
    return h, s


def generate_model(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """Build (H0, S) for a ModelSpec; S is None for orthonormal models.
    Deterministic for a fixed spec."""
    if spec.kind == "chain":
        return chain_hamiltonian(spec.n, spec.gap), None
    if spec.kind == "gapped_random":
        n_below = spec.n // 2 if spec.n_below is None else spec.n_below
        h = gapped_random_hamiltonian(spec.n, spec.gap, n_below, spec.seed)
        return h, None
    h, s = overlap_chain_matrices(spec.n, spec.gap, spec.overlap)
    return h, s
