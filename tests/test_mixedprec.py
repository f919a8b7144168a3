import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmresponse import mixedprec, sp2
from dmresponse.exceptions import ConvergenceError
from dmresponse.linalg import trace_product
from dmresponse.mixedprec import (
    BINARY16_MAX,
    _round16,
    _round_array16,
    mixed_response_pipeline,
    single_precision_pipeline,
    split,
)
from dmresponse.models import gapped_random_hamiltonian
from dmresponse.oracles import binary16_reference_bits
from dmresponse.response import susceptibility_forward
from dmresponse.sparse import sparsify

from conftest import random_symmetric


def round_one(x: float) -> float:
    """One value through the checked rounding, as a one-element array."""
    out = _round_array16(np.array([x]))
    assert out.dtype == np.float32 and out.shape == (1,)
    return float(out[0])


class TestRoundBinary16:
    def test_exactly_representable(self):
        for v in (1.0, -0.5, 0.0, 2.0, 65504.0, 2.0**-24):
            assert round_one(v) == v

    def test_smallest_subnormal(self):
        assert round_one(2.0**-24) == 2.0**-24
        assert round_one(2.0**-26) == 0.0

    def test_pi_rounds_to_nearest(self):
        v = round_one(3.14159265358979)
        assert v == 3.140625

    def test_ties_to_even(self):
        assert round_one(1.0 + 2.0**-11) == 1.0
        assert round_one(1.0 + 3.0 * 2.0**-11) == 1.0 + 2.0**-9

    def test_overflow_is_an_error(self):
        with pytest.raises(OverflowError):
            round_one(65505.0)
        with pytest.raises(OverflowError):
            round_one(-1e20)
        with pytest.raises(ValueError):
            round_one(float("nan"))

    def test_agrees_with_reference_encoder(self, rng):
        mags = 10.0 ** rng.uniform(-9, np.log10(BINARY16_MAX), 50_000)
        xs = mags * rng.choice([-1.0, 1.0], size=mags.size)
        xs = np.concatenate([xs, [0.0, -0.0, 65504.0, 2.0**-24, 2.0**-25, 1.0 + 2.0**-11]])
        ref = binary16_reference_bits(xs)
        ours = _round_array16(xs).astype(np.float16).view(np.uint16)
        assert np.array_equal(ref, ours)


def float16_cast(x) -> np.ndarray:
    return np.float16(x).astype(np.float32)


# float32 values below this round to at most 65504; 65520 itself is the tie
# that rounds up to 65536, which binary16 cannot hold
LARGEST_TO_65504 = np.nextafter(np.float32(65520.0), np.float32(0.0))


def float32_sweep() -> np.ndarray:
    """A strided sweep of float32 bit patterns plus every finite binary16
    value, its float32 neighbours, the exact ties between neighbouring
    binary16 values and the float32 neighbours of those ties."""
    strided = np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32).view(np.float32)
    grid = np.arange(2**16, dtype=np.uint16).view(np.float16)
    grid = np.unique(grid[np.isfinite(grid)].astype(np.float32))
    ties = (grid[:-1].astype(np.float64) + grid[1:].astype(np.float64)) / 2.0
    ties = ties.astype(np.float32)
    assert np.array_equal(ties.astype(np.float64) * 2.0, grid[:-1].astype(np.float64) + grid[1:])
    special = np.array(
        [0.0, -0.0, 65504.0, -65504.0, LARGEST_TO_65504, -LARGEST_TO_65504], dtype=np.float32
    )
    parts = [strided, special]
    for v in (grid, ties):
        parts += [v, np.nextafter(v, np.float32(np.inf)), np.nextafter(v, np.float32(-np.inf))]
    xs = np.concatenate(parts)
    return xs[np.abs(xs) < 65520.0]


class TestRoundKernel:
    def test_matches_float16_cast_on_float32_bit_patterns(self):
        xs = float32_sweep()
        assert np.any((xs != 0) & (np.abs(xs) < 2.0**-14))  # binary16 subnormals
        assert np.any(xs == 2.0**-25) and np.any(xs == 2.0**-14 - 2.0**-25)  # ties
        assert np.any(xs == 65504.0) and np.any(xs == LARGEST_TO_65504)
        zeros = xs[xs == 0]
        assert np.any(np.signbit(zeros)) and not np.all(np.signbit(zeros))
        assert float16_cast(LARGEST_TO_65504) == 65504.0
        ours = _round16(xs.astype(np.float64))
        assert ours.dtype == np.float32
        assert np.array_equal(ours.view(np.uint32), float16_cast(xs).view(np.uint32))

    @given(
        arrays(
            np.float64,
            st.integers(1, 64),
            elements=st.one_of(
                st.floats(-65519.99, 65519.99, allow_nan=False),
                st.floats(-(2.0**-13), 2.0**-13, allow_nan=False),
            ),
        )
    )
    @settings(deadline=None)
    def test_matches_float16_cast_on_float64(self, x):
        ours = _round16(x)
        assert np.array_equal(ours.view(np.uint32), float16_cast(x).view(np.uint32))
        clipped = np.clip(x, -BINARY16_MAX, BINARY16_MAX)
        ref = binary16_reference_bits(clipped).view(np.float16).astype(np.float32)
        assert np.array_equal(_round16(clipped).view(np.uint32), ref.view(np.uint32))


def float32_binades(lo: float, hi: float, step: int) -> np.ndarray:
    """Every step-th float32 bit pattern in [lo, hi), both signs."""
    pos = np.arange(
        np.float32(lo).view(np.uint32), np.float32(hi).view(np.uint32), step, dtype=np.uint32
    )
    return np.concatenate([pos, pos | np.uint32(1 << 31)]).view(np.float32)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    assert a.dtype == b.dtype == np.float32
    return np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestFloat32Split:
    """float32 input is split in float32; the result must equal the float64
    split of the same values bit for bit."""

    def test_matches_float64_split(self):
        xs = float32_sweep()
        xs = xs[np.abs(xs) <= BINARY16_MAX]
        xs = np.concatenate([xs, float32_binades(2.0**-15, 2.0**-13, 7)])
        ours, ref = split(xs), split(xs.astype(np.float64))
        assert same_bits(ours.high, ref.high) and same_bits(ours.low, ref.low)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.nan, ValueError),
            (np.inf, ValueError),
            (-np.inf, ValueError),
            (65505.0, OverflowError),
        ],
    )
    def test_range_check(self, bad, error):
        x = np.zeros((3, 3), dtype=np.float32)
        x[1, 2] = bad
        with pytest.raises(error):
            split(x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sign_of_zero_results(self, dtype):
        # -2^-26 rounds to -0 in both parts; -0.0 has high -0 and low
        # -0 - (-0) = +0, as the float16 cast of that remainder gives
        high, low = split(np.array([-(2.0**-26)], dtype))
        zhigh, zlow = split(np.array([-0.0], dtype))
        assert np.signbit(high[0]) and np.signbit(low[0]) and high[0] == low[0] == 0.0
        assert np.signbit(zhigh[0]) and not np.signbit(zlow[0]) and zhigh[0] == zlow[0] == 0.0
        assert np.signbit(_round16(np.array([-0.0], dtype))[0])

    def test_empty_matrix(self):
        high, low = split(np.zeros((0, 0), np.float32))
        assert high.shape == low.shape == (0, 0)
        assert high.dtype == low.dtype == np.float32


@pytest.mark.parametrize("n", [33, 257, 1000])
def test_f32_trace_sums_diagonal_in_float64(rng, n):
    x = rng.standard_normal((n, n)).astype(np.float32)
    ops = mixedprec._F32Ops(np.zeros((n, n)))
    assert ops.trace(x).hex() == float(np.trace(x.astype(np.float64))).hex()


def widened(sm) -> np.ndarray:
    """high + low in float64."""
    return sm.high.astype(np.float64) + sm.low.astype(np.float64)


class TestSplit:
    def test_exact_entries_have_zero_low(self):
        x = np.array([[0.0, 0.5], [0.5, -1.0]])
        sm = split(x)
        assert np.array_equal(sm.low, np.zeros((2, 2), dtype=np.float32))
        np.testing.assert_allclose(widened(sm), x, atol=0)

    def test_zero_matrix(self):
        sm = split(np.zeros((3, 3)))
        assert np.array_equal(sm.high, np.zeros((3, 3), dtype=np.float32))
        assert np.array_equal(sm.low, np.zeros((3, 3), dtype=np.float32))

    def test_reconstruction_error_bound(self, rng):
        x = rng.uniform(-1.0, 1.0, (64, 64))
        sm = split(x)
        err = np.max(np.abs(x - widened(sm)))
        assert err <= 2.0**-21

    def test_high_part_is_rounding_fixed_point(self, rng):
        x = rng.uniform(-1.0, 1.0, (16, 16))
        sm = split(x)
        assert np.array_equal(np.float16(sm.high), np.float16(sm.high).astype(np.float32).view())
        resplit = split(widened(sm))
        assert np.array_equal(resplit.high, sm.high)
        assert np.array_equal(resplit.low, sm.low)

    def test_rejects_out_of_range(self):
        with pytest.raises(OverflowError):
            split(np.array([[1e6]]))
        with pytest.raises(ValueError):
            split(np.array([[np.nan]]))

    def test_split_rounds_each_part_once(self, monkeypatch, rng):
        # the range check covers x; the remainder x - high is then in range
        # by construction and is rounded without a second check
        calls = []
        real_round16 = mixedprec._round16

        def counting_round16(x, *magnitude):
            calls.append(x.shape)
            return real_round16(x, *magnitude)

        monkeypatch.setattr(mixedprec, "_round16", counting_round16)
        split(random_symmetric(rng, 16))
        assert len(calls) == 2


class TestMixedPipeline:
    def test_two_level_exact(self):
        h0 = np.diag([0.0, 1.0])
        h1 = np.array([[0.0, 0.5], [0.5, 0.0]])
        res = mixed_response_pipeline(h0, h1, 1, mode="perturbation")
        np.testing.assert_allclose(res.d0, np.diag([1.0, 0.0]), atol=0)
        assert res.mult_count == 5 * res.trace.m_steps

    def test_multiplication_count_is_five_per_step(self):
        h0 = gapped_random_hamiltonian(32, 1.0, 16, seed=95)
        a = gapped_random_hamiltonian(32, 1.0, 16, seed=96)
        res = mixed_response_pipeline(h0, a, 16)
        assert res.mult_count == 5 * res.trace.m_steps

    def test_susceptibility_route_tracks_f64(self, rng):
        n, n_occ = 64, 32
        worst = 0.0
        for seed in range(3):
            h0 = gapped_random_hamiltonian(n, 1.6, n_occ, seed=100 + seed)
            a = random_symmetric(rng, n, scale=0.5)
            h1 = random_symmetric(rng, n, scale=0.5)
            res = mixed_response_pipeline(h0, a, n_occ, mode="susceptibility")
            _, chi64, _ = susceptibility_forward(h0, a, n_occ)
            val16 = trace_product(res.response, h1)
            val64 = trace_product(chi64, h1)
            worst = max(worst, abs(val16 - val64) / abs(val64))
        assert worst <= 0.05

    def test_single_precision_reference_is_tighter(self, rng):
        n, n_occ = 64, 32
        h0 = gapped_random_hamiltonian(n, 1.6, n_occ, seed=110)
        a = random_symmetric(rng, n, scale=0.5)
        h1 = random_symmetric(rng, n, scale=0.5)
        _, chi64, _ = susceptibility_forward(h0, a, n_occ)
        val64 = trace_product(chi64, h1)
        res32 = single_precision_pipeline(h0, a, n_occ)
        res16 = mixed_response_pipeline(h0, a, n_occ)
        err32 = abs(trace_product(res32.response, h1) - val64) / abs(val64)
        err16 = abs(trace_product(res16.response, h1) - val64) / abs(val64)
        assert err32 <= 0.05
        assert err16 <= 0.05

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            mixed_response_pipeline(np.eye(4), np.eye(4), 2, mode="sideways")


def _reference_pipeline(h0, seed, n_occ, use_split):
    """The low-precision expansion written out with only np.float16 casts
    for the binary16 rounding; returns (d0, response, sigmas, log, count)."""

    def round16(m):
        assert np.all(np.abs(m) <= BINARY16_MAX)
        return float16_cast(m)

    def split16(m):
        m = m.astype(np.float64)
        high = round16(m)
        return high, round16(m - high.astype(np.float64))

    count = 0

    def square(m):
        nonlocal count
        if not use_split:
            count += 1
            return m @ m
        hi, lo = split16(m)
        count += 2
        p_hl = hi @ lo
        return hi @ hi + p_hl + p_hl.T

    def pair(y, x):
        nonlocal count
        if not use_split:
            count += 1
            p = y @ x
            return p + p.T
        (yh, yl), (xh, xl) = split16(y), split16(x)
        count += 3
        q = yh @ xh + yh @ xl + xh @ yl
        return q + q.T

    n = h0.shape[0]
    bounds = sp2._DenseOps(h0).bounds(h0)
    alpha, beta = bounds.eps_max / bounds.width, -1.0 / bounds.width
    x = (alpha * np.eye(n) + beta * h0).astype(np.float32)
    y = (beta * seed).astype(np.float32)
    sigmas, log = [], []
    stall_ceiling = mixedprec._F32Ops.idempotency_tol * np.sqrt(n)

    def tr(m):
        return float(np.trace(m.astype(np.float64)))

    def step(sigma, x, y, x2):
        s = pair(y, x)
        sigmas.append(sigma)
        if sigma == 1:
            return x2, s
        return (2.0 * x - x2).astype(np.float32), (2.0 * y - s).astype(np.float32)

    while True:
        x2 = square(x)
        log.append(abs(tr(x2) - tr(x)))
        if log[-1] <= sp2.IDEMPOTENCY_FLOOR * n or (
            len(log) >= 3 and stall_ceiling >= log[-1] >= log[-2] >= log[-3]
        ):
            break
        d_plus = abs(tr(x2) - n_occ)
        d_minus = abs(2.0 * tr(x) - tr(x2) - n_occ)
        x, y = step(1 if d_plus <= d_minus else -1, x, y, x2)
    x, y = step(1, x, y, x2)
    x2 = square(x)
    log.append(abs(tr(x2) - tr(x)))
    x, y = step(-1, x, y, x2)
    return x.astype(np.float64), y.astype(np.float64), tuple(sigmas), tuple(log), count


class TestPipelinesMatchFloat16Reference:
    @pytest.mark.parametrize("mode", ["perturbation", "susceptibility"])
    @pytest.mark.parametrize(
        "pipeline, use_split",
        [(mixed_response_pipeline, True), (single_precision_pipeline, False)],
    )
    def test_bit_identical_at_n32(self, rng, pipeline, use_split, mode):
        h0 = gapped_random_hamiltonian(32, 1.6, 16, seed=321)
        seed = random_symmetric(rng, 32, scale=0.5)
        res = pipeline(h0, seed, 16, mode=mode)
        d0, resp, sigmas, log, count = _reference_pipeline(h0, seed, 16, use_split)
        assert res.d0.tobytes() == d0.tobytes()
        assert res.response.tobytes() == resp.tobytes()
        assert res.trace.sigmas == sigmas
        assert res.trace.idempotency_log == log
        assert res.mult_count == count == (5 if use_split else 2) * res.trace.m_steps


# SHA-256 of (d0, response, sigmas, idempotency log, mult_count) on a fixed
# n = 32 problem, recorded after the dense kernels' spectral bound became the
# padded extreme eigenvalues (numpy 2.4, OpenBLAS on x86-64; a BLAS that
# orders its float32 sums differently gives other digests)
GOLDEN_N32 = {
    ("f32", True): "47014910671d0376d8d2cb00e3bb9851979bc53c2deed78637f6448ed151a8e7",
    ("f32", False): "27e3a74aefbb797e8ea6aa3a4c5582a0cb694886950d4e460438a882f91af1f0",
    ("split16", True): "ba24e71626d2ab9df54380f25365ed4998a9524587cc44ba7a98bd996f613658",
    ("split16", False): "8f8060d5bb8b212eccca9765f266b08bf8a0b557df675b807b6e84bb9d3169a6",
}


def test_pipelines_match_golden_digests_at_n32():
    h0 = gapped_random_hamiltonian(32, 1.6, 16, seed=321)
    a = gapped_random_hamiltonian(32, 1.0, 16, seed=322)
    pipelines = {"f32": single_precision_pipeline, "split16": mixed_response_pipeline}
    digests = {}
    for name, seeded in GOLDEN_N32:
        res = pipelines[name](h0, a if seeded else None, 16)
        h = hashlib.sha256(res.d0.tobytes())
        if seeded:
            h.update(res.response.tobytes())
        h.update(repr((res.trace.sigmas, res.trace.idempotency_log, res.mult_count)).encode())
        digests[name, seeded] = h.hexdigest()
    assert digests == GOLDEN_N32


@pytest.mark.parametrize("kernel", [mixedprec._F32Ops, mixedprec._Split16Ops])
def test_stored_backward_sweep_runs_in_float32(kernel):
    # a stored low-precision expansion sweeps the caller's float64 observable
    # back in float32: every product and every derivative iterate, as forward
    n = 200
    h0 = gapped_random_hamiltonian(n, 1.0, n // 2, seed=3)
    a = random_symmetric(np.random.default_rng(4), n)
    ops = kernel(h0)
    _, _, expansion = sp2._expand(h0, n // 2, store=True, ops=ops)
    factors, iterates = [], []
    real_gemm, real_update = ops._gemm, ops.pair_update

    def gemm(x, y):
        factors.extend((x.dtype, y.dtype))
        return real_gemm(x, y)

    def update(sigma, y, x):
        iterates.append(real_update(sigma, y, x))
        return iterates[-1]

    ops._gemm, ops.pair_update = gemm, update
    chi = expansion.backward(a)
    assert a.dtype == np.float64 and chi.dtype == np.float32
    per_step = 3 if kernel is mixedprec._Split16Ops else 1
    assert len(factors) == 2 * per_step * expansion.m_steps
    assert len(iterates) == expansion.m_steps
    assert set(factors) | {y.dtype for y in iterates} == {np.dtype(np.float32)}
    forward = expansion.forward(a)
    scale = 10 * np.sqrt(n) * np.finfo(np.float32).eps
    assert np.linalg.norm(chi - forward) <= scale * np.linalg.norm(forward)


# sha256 of the float64 kernels' stored backward sweep at n = 32; only the
# low-precision pair update casts its derivative iterate
GOLDEN_BACKWARD_N32 = {
    "dense": "eadfe5e5f695108604252e404348c1f66e9b408531f8762e83180d56ae0c258f",
    "sparse": "d3846928f55a0acd74dac7ba9fe9a99b3af620bfed5d88c3faaeb448030aa019",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_BACKWARD_N32))
def test_float64_backward_sweeps_match_golden_digests_at_n32(kind):
    h0 = gapped_random_hamiltonian(32, 1.6, 16, seed=321)
    a = gapped_random_hamiltonian(32, 1.0, 16, seed=322)
    if kind == "sparse":
        h0, a = sparsify(h0, 1e-9), sparsify(a, 1e-9)
    _, _, expansion = sp2._expand(h0, 16, store=True)
    chi = expansion.backward(a)
    chi = chi.to_dense() if kind == "sparse" else chi
    assert hashlib.sha256(chi.tobytes()).hexdigest() == GOLDEN_BACKWARD_N32[kind]


def test_each_iterate_is_split_once_per_step(monkeypatch):
    calls = []
    real_split = mixedprec.split

    def counting_split(x):
        calls.append(x)
        return real_split(x)

    monkeypatch.setattr(mixedprec, "split", counting_split)
    h0 = gapped_random_hamiltonian(32, 1.6, 16, seed=95)
    a = gapped_random_hamiltonian(32, 1.0, 16, seed=96)
    res = mixed_response_pipeline(h0, a, 16)
    # one split of X (shared by the square and the pair update) and one of Y
    assert len(calls) == 2 * res.trace.m_steps
    assert len({id(x) for x in calls}) == len(calls)


@pytest.mark.parametrize("n_occ", [1, 25, 127])
@pytest.mark.parametrize("pipeline", [mixed_response_pipeline, single_precision_pipeline])
def test_converges_away_from_half_filling(pipeline, n_occ):
    # |Tr[X^2 - X]| rises three steps in a row, from far above the float32
    # noise floor, while the states next to the gap are sorted into the
    # bands; stopping there leaves the occupation off by 1 to 25
    h0 = gapped_random_hamiltonian(128, 1.6, n_occ, seed=2)
    res = pipeline(h0, None, n_occ)
    assert abs(np.trace(res.d0) - n_occ) <= 1e-3


@pytest.mark.parametrize("pipeline", [mixed_response_pipeline, single_precision_pipeline])
def test_non_convergence_names_reduced_precision(monkeypatch, pipeline):
    monkeypatch.setattr(sp2, "MAX_ITERATIONS", 2)
    h0 = gapped_random_hamiltonian(32, 1.6, 16, seed=95)
    with pytest.raises(ConvergenceError, match="low-precision expansion did not converge") as err:
        pipeline(h0, np.eye(32), 16)
    assert "small gaps are often unresolvable at reduced precision" in str(err.value)
