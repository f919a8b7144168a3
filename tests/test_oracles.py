import warnings

import numpy as np
import pytest

from dmresponse.cli import main
from dmresponse.linalg import sym_eigendecompose, symmetrize
from dmresponse.models import gapped_random_hamiltonian
from dmresponse.oracles import (
    binary16_reference_bits,
    finite_difference_response,
    projector_derivative_exact,
)

from conftest import random_symmetric


class TestFiniteDifferenceResponse:
    def test_linear_builder_reproduces_direction(self, rng):
        direction = random_symmetric(rng, 8)
        out = finite_difference_response(lambda h: h, np.zeros((8, 8)), direction, h=1e-5)
        np.testing.assert_allclose(out, direction, atol=1e-9)

    def test_square_builder(self, rng):
        h0 = random_symmetric(rng, 10)
        v = random_symmetric(rng, 10)
        out = finite_difference_response(lambda h: h @ h, h0, v, h=1e-6)
        np.testing.assert_allclose(out, h0 @ v + v @ h0, atol=1e-6)

    def test_rejects_bad_step(self, rng):
        with pytest.raises(ValueError):
            finite_difference_response(lambda h: h, np.eye(2), np.eye(2), h=0.0)

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_rejects_non_finite_step_by_name(self, h):
        # refused before the builder runs: no "non-finite entries" error from
        # it and no overflow warning from h * direction
        def builder(m):
            raise AssertionError("builder called for a non-finite step")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"step h must be finite and positive, got (nan|inf)"):
                finite_difference_response(builder, np.eye(2), np.eye(2), h=h)

    def test_convergence_order_is_quadratic(self):
        n, n_occ = 20, 10
        h0 = gapped_random_hamiltonian(n, 1.0, n_occ, seed=117)
        rng = np.random.default_rng(118)
        direction = symmetrize(rng.standard_normal((n, n)))
        eig = sym_eigendecompose(h0)
        mu = 0.5 * (eig.values[n_occ - 1] + eig.values[n_occ])
        exact = projector_derivative_exact(eig, direction, mu)

        def builder(h):
            e = sym_eigendecompose(symmetrize(h))
            occ = (e.values < mu).astype(float)
            return (e.vectors * occ) @ e.vectors.T

        errs = []
        for h in (1e-3, 1e-4, 1e-5):
            fd = finite_difference_response(builder, h0, direction, h=h)
            errs.append(np.linalg.norm(fd - exact))
        order1 = np.log10(errs[0] / errs[1])
        order2 = np.log10(errs[1] / errs[2])
        assert 1.8 <= order1 <= 2.2
        assert 1.8 <= order2 <= 2.2


class TestProjectorDerivativeExact:
    def test_commuting_direction_is_zero(self):
        h0 = np.diag([0.0, 1.0, 3.0])
        eig = sym_eigendecompose(h0)
        out = projector_derivative_exact(eig, np.diag([0.2, 0.4, 0.9]), mu=2.0)
        np.testing.assert_allclose(out, np.zeros((3, 3)), atol=1e-14)

    def test_2x2_divided_difference(self):
        eig = sym_eigendecompose(np.diag([0.0, 2.0]))
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = projector_derivative_exact(eig, w, mu=1.0)
        np.testing.assert_allclose(out, [[0.0, -0.5], [-0.5, 0.0]], atol=1e-14)

    def test_rejects_gapless(self):
        eig = sym_eigendecompose(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError, match="singular at a closing gap"):
            projector_derivative_exact(eig, np.eye(2), mu=1.0)


class TestBinary16Reference:
    def test_boundary_patterns(self):
        # list of pairs: 0.0 and -0.0 would collide as dict keys
        cases = [
            (0.0, 0x0000),
            (-0.0, 0x8000),
            (1.0, 0x3C00),
            (-2.0, 0xC000),
            (65504.0, 0x7BFF),
            (2.0**-14, 0x0400),  # smallest normal
            (2.0**-24, 0x0001),  # smallest subnormal
            (2.0**-25, 0x0000),  # tie rounds to even (zero)
            (1.0 + 2.0**-11, 0x3C00),  # tie rounds to even mantissa
        ]
        for value, bits in cases:
            assert int(binary16_reference_bits(value)) == bits, value

    def test_shape_preserved(self, rng):
        x = rng.uniform(-5, 5, (3, 4))
        bits = binary16_reference_bits(x)
        assert bits.shape == (3, 4) and bits.dtype == np.uint16

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            binary16_reference_bits(np.inf)


class TestDualityAudit:
    # the duality audit runs through the CLI; its finite-difference oracle
    # step is refused there, as a usage error, before any input is built
    @pytest.mark.parametrize("step", [0.0, -1e-5, float("nan"), float("inf")])
    def test_rejects_bad_fd_step(self, capsys, step):
        argv = ["audit", "--kind", "gapped_random", "--size", "20", "--beta-t", "12"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--fd-step={step}"])
        assert exc.value.code == 2
        assert "--fd-step must be finite and positive" in capsys.readouterr().err
