"""Property-based checks for the low-level primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dmresponse.mixedprec import BINARY16_MAX, _round_array16
from dmresponse.sp2 import EIGEN_BOUND_PAD, _DenseOps
from dmresponse.oracles import binary16_reference_bits
from dmresponse.sparse import sparsify
from dmresponse.linalg import gershgorin_bounds, sym_eigendecompose, symmetrize


@given(
    st.floats(
        min_value=-BINARY16_MAX,
        max_value=BINARY16_MAX,
        allow_nan=False,
        allow_infinity=False,
    )
)
def test_round_binary16_matches_reference_encoder(x):
    ours = _round_array16(np.array([x])).astype(np.float16).view(np.uint16)[0]
    assert ours == binary16_reference_bits(x)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sparsify_round_trip_and_threshold(n, seed):
    rng = np.random.default_rng(seed)
    x = symmetrize(rng.standard_normal((n, n)))
    assert np.array_equal(sparsify(x, 0.0).to_dense(), x)
    tau = 0.3
    sm = sparsify(x, tau)
    d = sm.to_dense()
    assert np.array_equal(d, d.T)
    assert np.all((d == 0.0) | (np.abs(d) >= tau))


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gershgorin_always_encloses_spectrum(n, seed):
    rng = np.random.default_rng(seed)
    x = symmetrize(rng.standard_normal((n, n)))
    disc = gershgorin_bounds(x)
    dense = _DenseOps(x).bounds(x)
    vals = sym_eigendecompose(x).values
    for b in (disc, dense):
        assert b.eps_min <= vals[0] + 1e-12
        assert vals[-1] <= b.eps_max + 1e-12
    # the dense kernel's bound is Gershgorin's narrowed to the padded extremes
    assert disc.eps_min <= dense.eps_min and dense.eps_max <= disc.eps_max
    spread = vals[-1] - vals[0]
    assert dense.width <= (1 + 2 * EIGEN_BOUND_PAD) * spread + 1e-12 * np.max(np.abs(vals))
