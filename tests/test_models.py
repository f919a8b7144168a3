import numpy as np
import pytest

from dmresponse.linalg import sym_eigendecompose
from dmresponse.models import (
    ModelSpec,
    chain_hamiltonian,
    gapped_random_hamiltonian,
    generate_model,
    overlap_chain_matrices,
)


def test_chain_two_sites():
    h = chain_hamiltonian(2, 1.0)
    np.testing.assert_allclose(h, [[0.5, -1.0], [-1.0, -0.5]], atol=0)


def test_chain_opens_gap_at_half_filling():
    n, gap = 40, 1.0
    h = chain_hamiltonian(n, gap)
    vals = sym_eigendecompose(h).values
    assert vals[n // 2] - vals[n // 2 - 1] >= 0.8 * gap


def test_overlap_chain_spectrum():
    _, s = overlap_chain_matrices(3, 1.0, 0.2)
    vals = sym_eigendecompose(s).values
    expect = np.sort([1.0 - 0.2 * np.sqrt(2.0), 1.0, 1.0 + 0.2 * np.sqrt(2.0)])
    np.testing.assert_allclose(vals, expect, atol=1e-12)
    assert vals[0] > 0


def test_gapped_random_spectrum_and_determinism():
    n, gap, n_occ = 40, 1.0, 17
    h1 = gapped_random_hamiltonian(n, gap, n_occ, seed=9)
    h2 = gapped_random_hamiltonian(n, gap, n_occ, seed=9)
    assert np.array_equal(h1, h2)
    vals = sym_eigendecompose(h1).values
    assert vals[n_occ] - vals[n_occ - 1] >= gap
    assert np.all(np.abs(vals) >= gap / 2 - 1e-9)
    assert np.all(np.abs(vals) <= 2.0 + 1e-9)
    assert np.sum(vals < 0) == n_occ


def test_generate_model_dispatch():
    h, s = generate_model(ModelSpec(kind="chain", n=6, gap=0.5))
    assert s is None and h.shape == (6, 6)
    h, s = generate_model(ModelSpec(kind="overlap_chain", n=6, gap=0.5, overlap=0.3))
    assert s is not None
    h, s = generate_model(ModelSpec(kind="gapped_random", n=8, gap=1.0, seed=4))
    assert s is None and np.array_equal(h, h.T)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="wedge", n=4),
        dict(kind="chain", n=1),
        dict(kind="chain", n=4, gap=-1.0),
        dict(kind="chain", n=4, gap=float("nan")),
        dict(kind="chain", n=4, gap=float("inf")),
        dict(kind="overlap_chain", n=4, overlap=0.7),
        dict(kind="gapped_random", n=4, n_below=4),
        dict(kind="gapped_random", n=4, gap=4.0),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        ModelSpec(**{"gap": 1.0, **kwargs})
