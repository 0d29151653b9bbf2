import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regnear.errors import BadDimension, ShapeMismatch
from regnear.oracles import (adaptive_gauss_legendre, deriv2_entry_by_quadrature,
                             phillips_offset_by_quadrature)
from regnear.problems import (DENSE_MAX_N, NoiseInfo, _smooth_length, add_noise,
                              build_deriv2, build_phillips, build_problem,
                              phillips_offsets, relative_error, relative_errors)
from regnear.problems import TestProblem as ProblemInstance


def traced_peak(build):
    """Peak bytes traced while build() runs (numpy reports its arrays)."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 3000))
    @example(n=8)
    @example(n=200)
    @example(n=201)
    @example(n=2000)
    def test_far_cells_exactly_zero(self, n):
        # kernel support is |tau - sigma| < 3: the cell overlap of offset d
        # reaches it exactly when (d - 1) h < 3, that is 4 (d - 1) < n;
        # every other offset is exactly 0 and every one inside is positive
        offsets = phillips_offsets(n)
        d = np.arange(n)
        inside = 4 * (d - 1) < n
        assert np.all(offsets[~inside] == 0.0)
        assert np.all(offsets[inside] > 0.0)

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

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 64))
    @example(n=200)
    @example(n=201)
    @example(n=2000)
    @example(n=4001)
    def test_offsets_match_quadrature_oracle(self, n):
        # the closed form against adaptive quadrature per offset
        offsets = phillips_offsets(n)
        oracle = np.array([phillips_offset_by_quadrature(n, d) for d in range(n)])
        assert np.max(np.abs(offsets - oracle)) <= 2e-15 * np.max(np.abs(oracle))

    def test_matrix_row_is_the_offsets(self):
        assert np.array_equal(build_phillips(40).K[0], phillips_offsets(40))

    def test_oracle_guards(self):
        with pytest.raises(BadDimension):
            phillips_offset_by_quadrature(10, 10)
        assert phillips_offset_by_quadrature(8, 3) == 0.0  # beyond the support

    def test_builds_nothing_else_of_size_n_squared(self):
        n = 2000
        assert traced_peak(lambda: build_phillips(n)) <= 1.1 * 8 * n * n


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

    def test_off_diagonal_entries_match_entry_formula(self):
        # below the diagonal K[i, j] = h * mid_j * (mid_i - 1), mirrored above
        n = 37
        h = 1.0 / n
        mids = (np.arange(1, n + 1) - 0.5) * h
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(i):
                expected[i, j] = expected[j, i] = h * mids[j] * (mids[i] - 1.0)
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(build_deriv2(n).K[off], expected[off])

    def test_in_place_symmetrization_is_bit_equal(self):
        # the row-block copy gives the bits of the lower triangle plus its
        # transpose, with the closed-form diagonal
        for n in range(4, 301):
            h = 1.0 / n
            mids = (np.arange(1, n + 1) - 0.5) * h
            lower = np.tril(np.outer(mids - 1.0, h * mids), -1)
            expected = lower + lower.T
            alpha = np.arange(n) * h
            beta = alpha + h
            np.fill_diagonal(expected,
                             (beta + alpha) * (beta ** 2 + alpha ** 2) / 4.0
                             - (beta ** 2 + alpha * beta + alpha ** 2) / 3.0
                             - alpha ** 2 * (beta + alpha) / 2.0
                             + alpha ** 2)
            assert np.array_equal(build_deriv2(n).K, expected), n

    def test_builds_nothing_else_of_size_n_squared(self):
        n = 2000
        assert traced_peak(lambda: build_deriv2(n)) <= 1.1 * 8 * n * n

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


class TestOperator:
    """K as an operator: dense at or below DENSE_MAX_N, structured above."""

    @pytest.mark.parametrize("name", ["phillips", "deriv2"])
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(4, 3000), seed=st.integers(0, 2**32 - 1))
    @example(n=DENSE_MAX_N - 1, seed=1)
    @example(n=DENSE_MAX_N, seed=2)
    @example(n=DENSE_MAX_N + 1, seed=3)
    @example(n=2001, seed=4)  # the phillips support edge inside a cell
    @example(n=4001, seed=5)
    def test_matvec_matches_dense_K(self, name, n, seed):
        p = build_problem(name, n)
        x = np.random.default_rng(seed).standard_normal(n)
        y = p.K @ x
        assert np.linalg.norm(p.op.matvec(x) - y) <= 1e-13 * np.linalg.norm(y)

    # The worst errors measured over the sampled rows, relative to
    # |K_i| |x|, were 7.8e-18 (Gaussian x) and 3.7e-16 (x_hat) for
    # phillips, and 3.7e-17 and 3.6e-14 for deriv2, whose cumulative sums
    # lose more on a smooth x as n grows (6.7e-15 at n = 1e5, 3.6e-14 at
    # 1e6).  Each bound leaves at least 5x headroom above those.
    SAMPLED_ROW_BOUND = {("phillips", "gauss"): 1e-16, ("phillips", "x_hat"): 2e-15,
                         ("deriv2", "gauss"): 5e-16, ("deriv2", "x_hat"): 2e-13}

    @staticmethod
    def sampled_row(name, n, i):
        """Row i of K in O(n), from the closed forms: the Toeplitz
        offsets of phillips, the generators u, v and the diagonal of
        deriv2."""
        if name == "phillips":
            return phillips_offsets(n)[np.abs(i - np.arange(n))]
        h = 1.0 / n
        mids = (np.arange(1, n + 1) - 0.5) * h
        u, v = mids - 1.0, h * mids
        a, b = i * h, (i + 1) * h
        row = np.empty(n)
        row[:i] = u[i] * v[:i]
        row[i + 1:] = v[i] * u[i + 1:]
        row[i] = ((b + a) * (b * b + a * a) / 4.0 - (b * b + a * b + a * a) / 3.0
                  - a * a * (b + a) / 2.0 + a * a)
        return row

    @pytest.mark.parametrize("name", ["phillips", "deriv2"])
    @pytest.mark.parametrize("n, drawn", [(10**5, 8), (10**6, 2)])
    def test_structured_product_at_scale(self, name, n, drawn):
        # rows 0 and n - 1 and a few drawn ones, each against its exact
        # sum (math.fsum of the rounded terms)
        p = build_problem(name, n)
        rows = [0, n - 1, *np.random.default_rng(7).integers(1, n - 1, drawn).tolist()]
        for kind, x in (("gauss", np.random.default_rng(8).standard_normal(n)),
                        ("x_hat", p.x_hat)):
            y = p.op.matvec(x)
            for i in rows:
                terms = self.sampled_row(name, n, i) * x
                error = abs(y[i] - math.fsum(terms.tolist()))
                assert error <= self.SAMPLED_ROW_BOUND[name, kind] * np.abs(terms).sum()

    @pytest.mark.parametrize("n", [321, 2000, 2001, 10**5, 10**6])
    def test_fft_length_is_the_least_5_smooth_one(self, n):
        # phillips' circulant embedding needs n + w - 1 points; its length
        # is the least of every 2^a 3^b 5^c up to 2^21 at or above that,
        # enumerated here apart from the loop in _smooth_length
        size = n + int(np.count_nonzero(phillips_offsets(n))) - 1
        smooth = {2**a * 3**b * 5**c for a in range(22) for b in range(14) for c in range(10)}
        assert _smooth_length(size) == min(m for m in smooth if m >= size)

    @pytest.mark.parametrize("name", ["phillips", "deriv2"])
    @pytest.mark.parametrize("n", [DENSE_MAX_N + 1, 2000, 2001])
    def test_b_hat_is_K_x_hat(self, name, n):
        p = build_problem(name, n)
        y = p.K @ p.x_hat
        assert np.linalg.norm(p.b_hat - y) <= 1e-13 * np.linalg.norm(y)
        assert p.op.matvec_count == 0  # b_hat is not a counted product

    @pytest.mark.parametrize("name", ["phillips", "deriv2"])
    def test_dense_only_up_to_the_crossover(self, name):
        small = build_problem(name, DENSE_MAX_N)
        assert small.K is small.K  # stored
        large = build_problem(name, DENSE_MAX_N + 1)
        assert large.K is not large.K  # assembled on each read
        assert np.array_equal(large.K, large.K)

    @pytest.mark.parametrize("name", ["phillips", "deriv2"])
    def test_build_and_noise_hold_no_dense_K(self, name):
        n = 2000
        # first-use imports (numpy.fft, the noise generator) are not the
        # build's nor the noise's
        add_noise(build_problem(name, DENSE_MAX_N + 1), 1e-3, 11)
        assert traced_peak(lambda: build_problem(name, n)) < 2**20
        base = build_problem(name, n)
        assert traced_peak(lambda: add_noise(base, 1e-3, 11)) < 2**20
        assert add_noise(base, 1e-3, 11).op is base.op


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

    def test_zero_noise_is_positive_zeros(self):
        # nu = 0 stores +0.0 entries: scaling the draw by 0 would give
        # -0.0 wherever the draw is negative
        p = build_phillips(8)
        for seed in (1, 2, 3):
            e = add_noise(p, 0.0, seed).noise.e
            assert np.array_equal(e, np.zeros(8)) and not np.signbit(e).any()

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

    @settings(max_examples=100, deadline=None)
    @given(problem=st.sampled_from(["phillips", "deriv2"]),
           nu=st.floats(1e-8, 1e150), seed=st.integers(0, 2**32 - 1))
    def test_noise_bits_follow_the_rescaling(self, problem, nu, seed):
        # e = raw (nu ||b_hat|| / ||raw||), evaluated in that order
        p = build_problem(problem, 12)
        raw = np.random.Generator(np.random.Philox(seed)).standard_normal(12)
        e = raw * (nu * np.linalg.norm(p.b_hat) / np.linalg.norm(raw))
        noisy = add_noise(p, nu, seed)
        assert np.array_equal(noisy.noise.e, e)
        assert noisy.epsilon == float(np.linalg.norm(e))

    @pytest.mark.parametrize("nu", [1e200, 1e300, 1.7e308])
    def test_unsquarable_noise_norm_rejected(self, nu):
        # ||e|| = nu ||b_hat|| at or past sqrt(float max): its square, which
        # epsilon takes, would overflow
        with pytest.raises(ValueError, match=re.escape(f"noise level {nu!r}")):
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
        # a non-vector x_k is refused, not read as a block or a scalar
        for x_k, x_hat in ((np.ones(3), np.ones(4)), (np.ones((3, 1)), np.ones(3)),
                           (1.0, np.ones(1))):
            with pytest.raises(ShapeMismatch):
                relative_error(x_k, x_hat)

    def test_error_whose_square_overflows(self):
        # an iterate near the noise guard: ||x_k - x_hat||^2 overflows,
        # ||x_k - x_hat|| does not
        x_hat = np.ones(40)
        assert relative_error(x_hat + 7e153, x_hat) == pytest.approx(7e153, rel=1e-15)

    def test_zero_reference_is_refused(self):
        # no error is relative to x_hat = 0: a ValueError that says so,
        # where dividing by its norm would raise ZeroDivisionError
        with pytest.raises(ValueError, match="zero reference"):
            relative_error(np.ones(3), np.zeros(3))
        with pytest.raises(ValueError, match="zero reference"):
            relative_errors(np.ones((3, 2)), np.zeros(3))

    def test_block_shape_guard(self):
        for X, x_hat in ((np.ones((3, 2)), np.ones(4)), (np.ones(3), np.ones(3)),
                         (np.ones((3, 2)), np.ones((3, 1)))):
            with pytest.raises(ShapeMismatch):
                relative_errors(X, x_hat)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 60), s=st.integers(1, 6),
           exps=st.lists(st.sampled_from([0, -3, 3, 121, 150, 153, 200, -121, -200, -300]),
                         min_size=6, max_size=6),
           hat_exp=st.sampled_from([0, 5, -5, 200, -200]), seed=st.integers(0, 2**32 - 1))
    @example(n=40, s=2, exps=[153, 153, 0, 0, 0, 0], hat_exp=0, seed=0)
    def test_block_errors_are_each_columns_error(self, n, s, exps, hat_exp, seed):
        # bit for bit, with columns past 2**400 (1.2e121 and up), near the
        # noise guard and below 2**-400
        rng = np.random.default_rng(seed)
        x_hat = rng.standard_normal(n) * 10.0 ** hat_exp
        X = rng.standard_normal((n, s)) * 10.0 ** np.array(exps[:s], dtype=float)
        errors = relative_errors(X, x_hat)
        assert errors.tolist() == [relative_error(X[:, j], x_hat) for j in range(s)]

    def test_block_errors_of_iterates_near_the_noise_guard(self):
        # the iterates of deriv2's table at --noise 1e153, which reach
        # 7.4e153: each row's relative_error is relative_error of its x
        from regnear.pipeline import run_block
        from regnear.regops import regularizer_from_name
        from regnear.transform import factor_transform
        base = build_problem("deriv2", 40)
        probs = [add_noise(base, 1e153, seed) for seed in (1, 2)]
        factors = [factor_transform(base.op, regularizer_from_name(name, 40, 1e-6))
                   for name in ("I", "L1dP1", "P2L2tP2")]
        rows = [r for block in run_block(probs, factors, 1.01) for r in block]
        assert max(np.abs(r.x).max() for r in rows) > 1e153
        for r in rows:
            assert r.relative_error == relative_error(r.x, base.x_hat)
