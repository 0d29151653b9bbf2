import numpy as np
import pytest

from regnear.errors import BadDimension, ShapeMismatch
from regnear.problems import (NoiseInfo, adaptive_gauss_legendre, add_noise,
                              build_deriv2, build_phillips, build_problem,
                              deriv2_entry_by_quadrature, relative_error)
from regnear.problems import TestProblem as ProblemInstance


class TestQuadrature:
    def test_polynomial_exact(self):
        val = adaptive_gauss_legendre(lambda x: x ** 2, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_oscillatory(self):
        val = adaptive_gauss_legendre(np.cos, 0.0, np.pi)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_kink(self):
        # |x - 0.3| is only piecewise smooth; halving must localize it
        val = adaptive_gauss_legendre(lambda x: np.abs(x - 0.3), 0.0, 1.0,
                                      tol=1e-12)
        exact = 0.5 * (0.3 ** 2 + 0.7 ** 2)
        assert val == pytest.approx(exact, abs=1e-10)

    def test_empty_interval(self):
        assert adaptive_gauss_legendre(np.exp, 1.0, 1.0) == 0.0
        assert adaptive_gauss_legendre(np.exp, 2.0, 1.0) == 0.0


class TestPhillips:
    def test_dimension_guard(self):
        with pytest.raises(BadDimension):
            build_phillips(3)

    def test_symmetric_toeplitz(self):
        p = build_phillips(12)
        assert np.array_equal(p.K, p.K.T)
        # convolution kernel: entries depend on the index offset only
        for d in range(1, 4):
            diag = np.diagonal(p.K, d)
            assert np.max(np.abs(diag - diag[0])) == 0.0

    def test_far_cells_exactly_zero(self):
        # kernel support is |tau - sigma| < 3; with h = 1.5 any offset of
        # three or more cells cannot overlap it
        p = build_phillips(8)
        assert np.array_equal(p.K[0, 3:], np.zeros(5))
        assert p.K[0, 2] != 0.0

    def test_quadrature_tolerance_stability(self):
        k_loose = build_phillips(8, quad_tol=1e-10).K[0, 0]
        k_tight = build_phillips(8, quad_tol=1e-13).K[0, 0]
        assert abs(k_loose - k_tight) <= 1e-9

    def test_solution_shape(self):
        n = 16
        p = build_phillips(n)
        h = 12.0 / n
        mids = -6.0 + (np.arange(1, n + 1) - 0.5) * h
        inside = np.abs(mids) < 3.0
        expected = np.where(inside,
                            np.sqrt(h) * (1.0 + np.cos(np.pi * mids / 3.0)) + 1.0,
                            1.0)
        np.testing.assert_allclose(p.x_hat, expected, atol=1e-14)
        assert np.array_equal(p.b_hat, p.K @ p.x_hat)
        assert np.array_equal(p.b, p.b_hat)
        assert p.noise is None and p.epsilon == 0.0

    def test_singular_value_decay(self):
        s = np.linalg.svd(build_phillips(200).K, compute_uv=False)
        assert s[40] / s[0] < 1e-3


class TestDeriv2:
    def test_dimension_guard(self):
        with pytest.raises(BadDimension):
            build_deriv2(3)

    def test_symmetric_and_negative(self):
        p = build_deriv2(10)
        assert np.array_equal(p.K, p.K.T)
        assert np.all(p.K < 0.0)

    def test_closed_forms_match_quadrature(self):
        n = 10
        K = build_deriv2(n).K
        # a corner block, the far corner, and a stretch of the diagonal
        cells = [(i, j) for i in range(3) for j in range(3)]
        cells += [(9, 9), (0, 9), (5, 5), (2, 7)]
        for i, j in cells:
            q = deriv2_entry_by_quadrature(n, i, j)
            assert K[i, j] == pytest.approx(q, abs=1e-10)

    def test_quadrature_entry_guards(self):
        with pytest.raises(BadDimension):
            deriv2_entry_by_quadrature(10, 10, 0)
        with pytest.raises(BadDimension):
            deriv2_entry_by_quadrature(0, 0, 0)

    def test_indefinite_direction(self):
        p = build_deriv2(12)
        ones = np.ones(12)
        assert ones @ p.K @ ones < 0.0

    def test_solution_shape(self):
        n = 10
        p = build_deriv2(n)
        h = 1.0 / n
        mids = (np.arange(1, n + 1) - 0.5) * h
        np.testing.assert_allclose(p.x_hat, np.sqrt(h) * np.exp(mids) + 1.0,
                                   atol=1e-14)
        assert np.array_equal(p.b_hat, p.K @ p.x_hat)

    def test_singular_value_decay(self):
        s = np.linalg.svd(build_deriv2(200).K, compute_uv=False)
        assert s[40] / s[0] < 1e-3


class TestDispatch:
    def test_by_name(self):
        assert build_problem("phillips", 8).name == "phillips"
        assert build_problem("deriv2", 8).name == "deriv2"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_problem("shaw", 8)


class TestNoise:
    def test_exact_relative_norm(self):
        p = build_phillips(16)
        for nu in (1e-2, 1e-3, 1e-4):
            noisy = add_noise(p, nu, seed=5)
            ratio = np.linalg.norm(noisy.noise.e) / np.linalg.norm(p.b_hat)
            assert ratio == pytest.approx(nu, rel=1e-14)
            np.testing.assert_allclose(noisy.b, p.b_hat + noisy.noise.e,
                                       atol=0.0)

    def test_seed_reproducibility(self):
        p = build_deriv2(12)
        a = add_noise(p, 1e-3, seed=42)
        b = add_noise(p, 1e-3, seed=42)
        assert np.array_equal(a.b, b.b)
        c = add_noise(p, 1e-3, seed=43)
        assert not np.array_equal(a.b, c.b)

    def test_zero_noise(self):
        p = build_phillips(8)
        clean = add_noise(p, 0.0, seed=1)
        assert np.array_equal(clean.b, p.b_hat)
        assert clean.epsilon == 0.0

    def test_epsilon_property(self):
        p = add_noise(build_phillips(8), 1e-2, seed=2)
        assert p.epsilon == pytest.approx(np.linalg.norm(p.noise.e))
        info = NoiseInfo(nu=0.5, seed=0, e=np.array([3.0, 4.0]))
        assert info.epsilon == 5.0

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            add_noise(build_phillips(8), -1e-3, seed=1)

    @pytest.mark.parametrize("nu", [np.inf, np.nan])
    def test_non_finite_level_rejected(self, nu):
        with pytest.raises(ValueError, match="finite"):
            add_noise(build_phillips(8), nu, seed=1)

    def test_original_untouched(self):
        p = build_phillips(8)
        b_before = p.b.copy()
        noisy = add_noise(p, 1e-2, seed=9)
        assert isinstance(noisy, ProblemInstance)
        assert np.array_equal(p.b, b_before)


class TestRelativeError:
    def test_exact_match(self):
        x = np.array([1.0, 2.0])
        assert relative_error(x, x) == 0.0

    def test_doubling(self):
        x = np.array([3.0, 4.0])
        assert relative_error(2.0 * x, x) == pytest.approx(1.0)

    def test_scaled_perturbation(self):
        x = np.array([1.0, 0.0, 0.0])
        pert = np.array([0.0, 0.01, 0.0])
        assert relative_error(x + pert, x) == pytest.approx(0.01)

    def test_shape_guard(self):
        with pytest.raises(ShapeMismatch):
            relative_error(np.ones(3), np.ones(4))
