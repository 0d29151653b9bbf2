"""Iterative solver tests against brute-force Krylov and dense oracles."""
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regnear import solver
from regnear.errors import OutOfRange, ShapeMismatch
from regnear.linalg import NEAR_SINGULAR_TOL, RANK_TOL, frobenius_norm, singular_triangles
from oracles import NoRoot, SingularSystem, discrepancy_mu_solve, tikhonov_direct_oracle
from regnear.problems import add_noise, build_problem
from regnear.regops import regularizer_from_name
from regnear.solver import (RRGMRESResult, SolverConfig, StopReason, rrgmres_block,
                            rrgmres_solve)
from regnear.transform import LinearOperator, prepare_context


class RecordingOperator:
    """Matrix action that remembers every vector it was applied to."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.shape = self.a.shape
        self.inputs = []

    def matvec(self, v):
        self.inputs.append(np.array(v, dtype=float))
        return self.a @ v


class ScaledOperator:
    """op times 2**j times factor, as an operator."""

    def __init__(self, op, j, factor=1.0):
        self.op, self.j, self.factor, self.shape = op, j, factor, op.shape

    def matvec(self, x):
        return self.factor * np.ldexp(self.op.matvec(x), self.j)


def krylov_brute_force(a, b, k):
    """Least-squares minimizer over span{Ab, A^2 b, ..., A^k b}."""
    cols = []
    v = b
    for _ in range(k):
        v = a @ v
        cols.append(v)
    mk = np.column_stack(cols)
    y, *_ = np.linalg.lstsq(a @ mk, b, rcond=None)
    return mk @ y


# graded upper-triangular operators whose rotated triangles turn singular
SINGULAR_RULE_CASES = [
    # step 2 rotates in a diagonal entry of 5e-13 below an entry of
    # 1.3e4: the rule compares the diagonal with the largest entry, not
    # with itself
    ([[1e-7, 1.3e4, 2e3], [0.0, 1e-7, 120.0], [0.0, 0.0, 1e-8]],
     [-1.4e-6, -3.9e-4, 7.8e-8]),
    # a diagonal entry of 5e-12 at step 4 is followed by 0.18 at step 5:
    # only the running minimum keeps the triangle singular
    ([[1e-6, 780.0, 1.1e5, -1.3, -16.0], [0.0, 1e-8, 9.2e4, 1800.0, -1.5],
      [0.0, 0.0, 1e-9, -9.4e4, -0.36], [0.0, 0.0, 0.0, 1.0, 1.0],
      [0.0, 0.0, 0.0, 0.0, 0.1]],
     [0.012, -3.7e-7, 9.1e-8, -7e-5, -0.87]),
]


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.eta == 1.01
        assert cfg.epsilon == 0.0
        assert cfg.max_iter == 100

    @pytest.mark.parametrize("kwargs", [
        {"eta": 1.0}, {"eta": 0.5}, {"epsilon": -1.0},
        {"max_iter": 0}, {"max_iter": -5}, {"eta": np.nan},
        {"eta": np.inf}, {"epsilon": np.nan}, {"epsilon": np.inf},
        {"max_iter": np.nan}, {"max_iter": np.inf}, {"max_iter": 2.5}, {"max_iter": True},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_max_iter_may_be_a_numpy_integer(self):
        res = rrgmres_solve(LinearOperator.from_matrix(np.eye(4, k=-1) + np.eye(4)),
                            np.ones(4), SolverConfig(epsilon=0.0, max_iter=np.int64(2)))
        assert (res.k, res.stop_reason) == (2, StopReason.MAX_ITER)


def _hessenberg_residual(h, beta):
    """Residual and minimizer of ||beta e1 - h y|| for (k+1, k) Hessenberg h,
    by the solver's own rotations and least-squares rule.

    h is rotated into a triangle R with right-hand side g; the residual
    is hypot(g[k], ||R y - g[:k]||), and the misfit term is nonzero only
    when R is near singular and y is the minimum-norm least-squares solution.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] + 1:
        raise ShapeMismatch(f"expected (k+1, k) Hessenberg block, got {h.shape}")
    k = h.shape[1]
    r = h.copy()
    g = np.zeros(k + 1)
    g[0] = float(beta)
    rot = np.zeros((2, k))
    for j in range(k):
        solver._rotate_in(rot, r[:j + 2, j], g)
    y, misfit = solver._least_squares(r[None, :k, :k], g[None, :k])
    return float(np.hypot(g[k], misfit[0])), y[0]


class TestHessenbergResidual:
    def test_exact_solve(self):
        res, y = _hessenberg_residual(np.array([[1.0], [0.0]]), 1.0)
        assert res == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(y, [1.0], atol=1e-15)

    def test_two_by_one(self):
        # min over y of ||(1,0) - y(1,1)||: y = 1/2, residual 1/sqrt(2)
        res, y = _hessenberg_residual(np.array([[1.0], [1.0]]), 1.0)
        assert res == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)
        np.testing.assert_allclose(y, [0.5], atol=1e-14)

    def test_degenerate_zero_columns(self):
        res, y = _hessenberg_residual(np.zeros((1, 0)), 2.0)
        assert res == pytest.approx(2.0)
        assert y.shape == (0,)

    def test_against_lstsq(self):
        rng = np.random.default_rng(101)
        for k in (2, 4, 6):
            h = np.triu(rng.standard_normal((k + 1, k)), -1)
            beta = float(rng.standard_normal())
            res, y = _hessenberg_residual(h, beta)
            c = np.zeros(k + 1)
            c[0] = beta
            y_ref, *_ = np.linalg.lstsq(h, c, rcond=None)
            np.testing.assert_allclose(y, y_ref, atol=1e-10)
            assert res == pytest.approx(np.linalg.norm(h @ y_ref - c), abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(shapes=st.lists(st.sampled_from(["keep", "zero_sub", "zero_col", "repeat"]),
                           min_size=1, max_size=7),
           seed=st.integers(0, 2**32 - 1))
    def test_rank_deficient_against_lstsq(self, shapes, seed):
        # zero subdiagonal entries, zero columns and repeated columns make
        # the rotated triangle singular (or split it into blocks); the
        # fallback on the triangle must give the minimum-norm solution of
        # the unrotated problem and its residual
        rng = np.random.default_rng(seed)
        k = len(shapes)
        h = np.triu(rng.standard_normal((k + 1, k)), -1)
        for j, shape in enumerate(shapes):
            if shape == "zero_sub":
                h[j + 1, j] = 0.0
            elif shape == "zero_col":
                h[:, j] = 0.0
            elif shape == "repeat" and j:
                # an earlier column keeps the Hessenberg pattern
                h[:, j] = h[:, int(rng.integers(j))]
        beta = float(rng.standard_normal())
        res, y = _hessenberg_residual(h, beta)
        c = np.zeros(k + 1)
        c[0] = beta
        y_ref, *_ = np.linalg.lstsq(h, c, rcond=RANK_TOL)
        scale = max(1.0, np.linalg.norm(y_ref))
        np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-10 * scale)
        assert res == pytest.approx(np.linalg.norm(h @ y_ref - c), abs=1e-10 * scale)

    def test_shape_guard(self):
        with pytest.raises(ShapeMismatch):
            _hessenberg_residual(np.eye(3), 1.0)
        with pytest.raises(ShapeMismatch):
            _hessenberg_residual(np.ones((3, 1)), 1.0)


class TestLeastSquares:
    """_least_squares on triangles that its rule reads as near singular,
    where it takes LAPACK's minimum-norm solution."""

    def test_minimal_norm_on_rank_one(self):
        y, misfit = solver._least_squares(np.array([[[1.0, 0.0], [0.0, 0.0]]]),
                                          np.array([[5.0, 7.0]]))
        np.testing.assert_allclose(y[0], [5.0, 0.0], atol=1e-14)
        assert misfit[0] == pytest.approx(7.0, rel=1e-14)

    def test_consistent_singular_system_orthogonal_to_nullspace(self):
        # first-difference triangle with zero last row; null space = constants
        n = 5
        a = np.zeros((n, n))
        idx = np.arange(n - 1)
        a[idx, idx] = 0.5
        a[idx, idx + 1] = -0.5
        rng = np.random.default_rng(3)
        b = a @ rng.standard_normal(n)  # guaranteed in range(a)
        y, misfit = solver._least_squares(a[None], b[None])
        assert np.linalg.norm(a @ y[0] - b) <= 1e-12
        assert misfit[0] <= 1e-12
        assert abs(np.sum(y[0])) <= 1e-10


class TestRRGMRES:
    def test_initial_residual_already_small(self):
        op = LinearOperator.from_matrix(np.eye(3))
        b = np.full(3, 1e-12)
        res = rrgmres_solve(op, b, SolverConfig(epsilon=1.0))
        assert res.stop_reason is StopReason.INITIAL_RESIDUAL_OK
        assert res.k == 0
        assert np.array_equal(res.z, np.zeros(3))
        assert res.solve_matvecs == 0
        assert res.residuals == [pytest.approx(np.linalg.norm(b))]

    def test_zero_data_with_zero_epsilon_needs_no_product(self):
        # ||b|| = 0 meets the threshold eta * 0 = 0 with equality
        op = LinearOperator.from_matrix(np.eye(3))
        res = rrgmres_solve(op, np.zeros(3), SolverConfig(epsilon=0.0))
        assert res.stop_reason is StopReason.INITIAL_RESIDUAL_OK
        assert res.k == 0 and res.solve_matvecs == 0
        assert op.matvec_count == 0

    def test_residual_equal_to_threshold_meets_discrepancy(self):
        # A z = (z1, 0) cannot fit b2 = 1, so the step-1 residual is
        # exactly 1.0, equal to eta * epsilon = 2 * 0.5; the basis breaks
        # down at the same step, but the discrepancy test decides the stop
        res = rrgmres_solve(LinearOperator.from_matrix(np.diag([1.0, 0.0])),
                            np.array([1.0, 1.0]),
                            SolverConfig(eta=2.0, epsilon=0.5))
        assert res.k == 1 and res.residual == 1.0
        assert res.stop_reason is StopReason.DISCREPANCY_MET

    def test_identity_recovers_data_in_one_step(self):
        rng = np.random.default_rng(102)
        b = rng.standard_normal(7)
        res = rrgmres_solve(LinearOperator.from_matrix(np.eye(7)), b,
                            SolverConfig(epsilon=0.0))
        assert res.k == 1
        np.testing.assert_allclose(res.z, b, atol=1e-14)
        assert res.residual <= 1e-12 * np.linalg.norm(b)
        # epsilon 0 makes the discrepancy test unreachable; the basis
        # stops growing instead
        assert res.stop_reason is StopReason.BREAKDOWN

    def test_identity_with_positive_epsilon(self):
        rng = np.random.default_rng(103)
        b = rng.standard_normal(7)
        res = rrgmres_solve(LinearOperator.from_matrix(np.eye(7)), b,
                            SolverConfig(epsilon=1e-10))
        assert res.stop_reason is StopReason.DISCREPANCY_MET
        assert res.k == 1
        assert res.residual <= 1.01e-10

    def test_zero_operator_breaks_down_immediately(self):
        res = rrgmres_solve(LinearOperator.from_matrix(np.zeros((4, 4))),
                            np.ones(4), SolverConfig(epsilon=0.0))
        assert res.stop_reason is StopReason.BREAKDOWN
        assert res.k == 0
        assert np.array_equal(res.z, np.zeros(4))

    def test_shift_operator_unreachable_data(self):
        # range-restricted space never contains e1, so the residual
        # plateaus at 1 and the basis runs out
        s = np.zeros((5, 5))
        s[np.arange(1, 5), np.arange(4)] = 1.0
        b = np.eye(5)[:, 0]
        res = rrgmres_solve(LinearOperator.from_matrix(s), b,
                            SolverConfig(epsilon=0.0))
        assert res.stop_reason is StopReason.BREAKDOWN
        assert res.residual == pytest.approx(1.0, rel=1e-12)

    def test_max_iter_stop(self):
        rng = np.random.default_rng(104)
        a = rng.standard_normal((20, 20))
        b = rng.standard_normal(20)
        res = rrgmres_solve(LinearOperator.from_matrix(a), b,
                            SolverConfig(epsilon=0.0, max_iter=4))
        assert res.stop_reason is StopReason.MAX_ITER
        assert res.k == 4
        assert res.solve_matvecs == 5  # seed plus one per iteration

    def test_brute_force_krylov_oracle(self):
        for n, seed in ((8, 1), (12, 2), (15, 3)):
            gen = np.random.default_rng(seed)
            a = gen.standard_normal((n, n)) / np.sqrt(n)
            b = gen.standard_normal(n)
            res = rrgmres_solve(LinearOperator.from_matrix(a), b,
                                SolverConfig(epsilon=0.0, max_iter=5),
                                keep_iterates=True)
            assert res.k == 5
            for k in range(1, 6):
                zk = res.iterates[k - 1]
                z_ref = krylov_brute_force(a, b, k)
                denom = max(np.linalg.norm(z_ref), 1.0)
                assert np.linalg.norm(zk - z_ref) <= 1e-8 * denom

    def test_logged_residual_matches_explicit(self):
        rng = np.random.default_rng(106)
        a = rng.standard_normal((14, 14)) / 4.0
        b = rng.standard_normal(14)
        res = rrgmres_solve(LinearOperator.from_matrix(a), b,
                            SolverConfig(epsilon=0.0, max_iter=6),
                            keep_iterates=True)
        bnorm = np.linalg.norm(b)
        for logged, zk in zip(res.residuals[1:], res.iterates):
            explicit = np.linalg.norm(a @ zk - b)
            assert abs(logged - explicit) <= 1e-8 * bnorm

    def test_residual_monotonicity(self):
        rng = np.random.default_rng(107)
        for trial in range(5):
            a = rng.standard_normal((10, 10))
            b = rng.standard_normal(10)
            res = rrgmres_solve(LinearOperator.from_matrix(a), b,
                                SolverConfig(epsilon=0.0, max_iter=8))
            r = res.residuals
            for prev, cur in zip(r, r[1:]):
                assert cur <= prev + 1e-12 * np.linalg.norm(b)

    def test_basis_stays_orthonormal(self):
        # every vector handed to the operator after the seed is a basis
        # vector; reorthogonalization must keep them mutually orthogonal
        rng = np.random.default_rng(108)
        a = rng.standard_normal((20, 20)) / 4.0
        b = rng.standard_normal(20)
        op = RecordingOperator(a)
        rrgmres_solve(op, b, SolverConfig(epsilon=0.0, max_iter=10))
        basis = np.column_stack(op.inputs[1:])
        gram = basis.T @ basis
        assert np.linalg.norm(gram - np.eye(basis.shape[1])) <= 1e-10

    def test_solve_matvecs_counts_each_step(self):
        # a run stopped at step m made m + 1 products, the seed A b
        # included, and solve_matvecs is the operator's own count
        rng = np.random.default_rng(109)
        a = rng.standard_normal((9, 9))
        b = rng.standard_normal(9)
        for m in range(1, 5):
            op = LinearOperator.from_matrix(a)
            res = rrgmres_solve(op, b, SolverConfig(epsilon=0.0, max_iter=m))
            assert (res.k, res.solve_matvecs, op.matvec_count) == (m, m + 1, m + 1)

    def test_counts_calls_of_its_operator_only(self):
        # an operator's own counter (here: products with K, two per call)
        # does not enter the solver's count
        rng = np.random.default_rng(111)
        k_op = LinearOperator.from_matrix(rng.standard_normal((9, 9)))

        class SquaredK:
            shape = (9, 9)

            def matvec(self, v):
                return k_op.matvec(k_op.matvec(v))

            @property
            def matvec_count(self):
                return k_op.matvec_count

        res = rrgmres_solve(SquaredK(), rng.standard_normal(9),
                            SolverConfig(epsilon=0.0, max_iter=4))
        assert (res.k, res.solve_matvecs) == (4, 5)
        assert k_op.matvec_count == 10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected_before_any_product(self, bad):
        rng = np.random.default_rng(112)
        op = RecordingOperator(rng.standard_normal((6, 6)))
        b = rng.standard_normal(6)
        b[0] = bad
        with pytest.raises(ValueError, match="finite"):
            rrgmres_solve(op, b, SolverConfig(epsilon=0.1))
        assert op.inputs == []

    def test_a_power_of_two_scales_the_result_bit_for_bit(self):
        # b 2^j with epsilon 2^j stops at the same step for the same
        # reason, with z, the residuals and every kept iterate scaled by 2^j,
        # bit for bit.  From j = 600 the squares of b overflow, and
        # from j = -600 they underflow; such a column runs scaled back
        # into range, alone or as one column of a block beside columns
        # that need no scaling
        prob = add_noise(build_problem("deriv2", 200), 1e-3, seed=11)
        ctx = prepare_context(prob.K, prob.b, regularizer_from_name("L1dP1", 200))
        js = (-900, -600, -300, -40, 0, 40, 300, 500, 600, 900)
        cfgs = [SolverConfig(epsilon=float(np.ldexp(prob.epsilon, j))) for j in js]
        B = np.repeat(ctx.solver_rhs[:, None], len(js), axis=1)
        ref = rrgmres_solve(ctx, ctx.solver_rhs, cfgs[js.index(0)], True)
        refs = [ref] * len(js) + rrgmres_block(ctx, B, [cfgs[js.index(0)]] * len(js), True)
        assert ref.stop_reason is StopReason.DISCREPANCY_MET and ref.k >= 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = [rrgmres_solve(ctx, np.ldexp(ctx.solver_rhs, j), cfg, True)
                    for j, cfg in zip(js, cfgs)] + rrgmres_block(ctx, np.ldexp(B, js), cfgs, True)
        for j, res, ref in zip(js * 2, runs, refs):
            assert (res.k, res.stop_reason) == (ref.k, ref.stop_reason), j
            assert np.array_equal(res.z, np.ldexp(ref.z, j)), j
            assert res.residuals == [float(np.ldexp(r, j)) for r in ref.residuals], j
            assert np.array_equal(res.iterates, np.ldexp(ref.iterates, j)), j

    def test_a_power_of_two_on_the_operator_scales_the_result_bit_for_bit(self):
        # A 2^j stops at the same step for the same reason, with the same
        # matvecs and residuals, and with z and every kept iterate scaled by
        # 2^-j, bit for bit.  From |j| = 600 the squares of the products
        # overflow or underflow; such a column runs with its products
        # scaled back into range, alone or as one operator group of a
        # block beside groups that need no scaling
        prob = add_noise(build_problem("deriv2", 200), 1e-3, seed=11)
        ctx = prepare_context(prob.K, prob.b, regularizer_from_name("L1dP1", 200))
        cfg = SolverConfig(epsilon=prob.epsilon)
        js = (-600, -300, -50, 0, 50, 300, 600)
        ops = [ScaledOperator(ctx, j) for j in js]
        ref = rrgmres_solve(ctx, ctx.solver_rhs, cfg, True)
        assert ref.stop_reason is StopReason.DISCREPANCY_MET and ref.k >= 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = [rrgmres_solve(op, ctx.solver_rhs, cfg, True) for op in ops]
            runs += rrgmres_block(ops, [ctx.solver_rhs[:, None]] * len(js), [cfg] * len(js),
                                  True)
            big = rrgmres_solve(ScaledOperator(ctx, 0, 1e200), ctx.solver_rhs, cfg)
        for j, res in zip(js * 2, runs):
            assert (res.k, res.stop_reason, res.solve_matvecs) == (
                ref.k, ref.stop_reason, ref.solve_matvecs), j
            assert res.residuals == ref.residuals, j
            assert np.array_equal(res.z, np.ldexp(ref.z, -j)), j
            assert np.array_equal(res.iterates, np.ldexp(ref.iterates, -j)), j
        # 1e200 is no power of two: its products round apart from A's,
        # and the ill-posed problem amplifies that rounding
        assert (big.k, big.stop_reason) == (ref.k, ref.stop_reason)
        assert np.linalg.norm(1e200 * big.z - ref.z) <= 1e-6 * np.linalg.norm(ref.z)

    def test_a_small_operator_is_not_a_vanished_one(self):
        # A b of a well-conditioned operator scaled by 2^-50 is about
        # 1e-15 ||b||: the test of a vanishing A b read it as 0 and
        # stopped at k = 0 by BREAKDOWN with z = 0.  A b vanishes only
        # where it is 0, so the run is A's, to the bit
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        ref = rrgmres_solve(LinearOperator.from_matrix(a), b, SolverConfig())
        res = rrgmres_solve(LinearOperator.from_matrix(np.ldexp(a, -50)), b, SolverConfig())
        assert (ref.k, ref.stop_reason) == (6, StopReason.BREAKDOWN)
        assert (res.k, res.stop_reason, res.solve_matvecs) == (
            ref.k, ref.stop_reason, ref.solve_matvecs)
        assert np.array_equal(res.z, np.ldexp(ref.z, 50))

    @pytest.mark.parametrize("bad, call", [(np.inf, 3), (np.nan, None)],
                             ids=["inf-on-the-third-call", "always-nan"])
    def test_a_non_finite_product_is_rejected_where_it_enters(self, bad, call):
        # an operator whose product has an infinite entry at its third
        # call, or a NaN at every call, fails with ValueError naming the
        # product, before any arithmetic on it can warn
        rng = np.random.default_rng(113)
        a = rng.standard_normal((6, 6))
        calls = []

        class Faulty:
            shape = (6, 6)

            def matvec(self, x):
                calls.append(x)
                y = a @ x
                if call in (None, len(calls)):
                    y[0] = bad
                return y

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="operator product contains non-finite"):
                rrgmres_solve(Faulty(), rng.standard_normal(6), SolverConfig(epsilon=0.0))
        assert len(calls) == (call or 1)

    def test_a_tiny_rhs_with_a_large_epsilon_stops_at_once(self):
        # b scaled up by 2**996 takes epsilon with it, past the float
        # range: the threshold is inf, which ||b|| meets, as it does
        # unscaled, and no overflow warning is raised on the way
        a = LinearOperator.from_matrix(np.diag(np.arange(1.0, 6.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = rrgmres_solve(a, np.full(5, 1e-300), SolverConfig(epsilon=1e10))
        assert (res.k, res.stop_reason) == (0, StopReason.INITIAL_RESIDUAL_OK)
        assert res.residual == pytest.approx(np.sqrt(5.0) * 1e-300, rel=1e-15, abs=0)
        assert a.matvec_count == 0

    def test_a_rhs_whose_squares_overflow_is_solved(self):
        # ||b||^2 of 5e400 made ||b|| inf, and A b looked like a vanished
        # direction: k = 0, BREAKDOWN and residual inf.  It runs scaled
        # to the end of its five-dimensional Krylov space, as b = 1 does
        a = LinearOperator.from_matrix(np.diag(np.arange(1.0, 6.0)))
        one = rrgmres_solve(a, np.ones(5), SolverConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = rrgmres_solve(a, np.full(5, 1e200), SolverConfig())
            capped = rrgmres_solve(a, np.full(5, 1e200), SolverConfig(max_iter=4))
            with pytest.raises(OutOfRange, match="residual"):
                # ||b|| itself, 2.2e308, is beyond the float range
                rrgmres_solve(a, np.full(5, 1e308), SolverConfig())
        assert (big.k, big.stop_reason) == (one.k, one.stop_reason) == (5, StopReason.BREAKDOWN)
        np.testing.assert_allclose(big.z, 1e200 * one.z, rtol=1e-13)
        np.testing.assert_allclose(big.residuals[:5], 1e200 * np.array(one.residuals[:5]),
                                   rtol=1e-13)
        assert (capped.k, capped.stop_reason) == (4, StopReason.MAX_ITER)
        assert np.isfinite(capped.residual) and capped.residual > 1e199

    def test_discrepancy_stop_obeys_threshold(self):
        rng = np.random.default_rng(110)
        a = rng.standard_normal((12, 12)) + 4.0 * np.eye(12)
        x = rng.standard_normal(12)
        b = a @ x
        eps = 1e-3 * np.linalg.norm(b)
        res = rrgmres_solve(LinearOperator.from_matrix(a), b,
                            SolverConfig(epsilon=eps))
        assert res.stop_reason is StopReason.DISCREPANCY_MET
        assert res.residual <= 1.01 * eps
        # earlier iterations were above the threshold
        for r in res.residuals[:-1]:
            assert r > 1.01 * eps

    @pytest.mark.parametrize("problem,reg", [("phillips", "I"),
                                             ("phillips", "P2L2tP2"),
                                             ("phillips", "L1dP1"),
                                             ("deriv2", "I")])
    def test_stop_does_not_depend_on_scale_of_rhs(self, problem, reg):
        # scaling b and epsilon together scales the whole problem; the
        # breakdown test must not fire early when ||A b|| grows with b
        prob = add_noise(build_problem(problem, 40), 1e-3, seed=1)
        runs = {}
        for scale in (1e-12, 1.0, 1e12):
            ctx = prepare_context(prob.K, scale * prob.b,
                                  regularizer_from_name(reg, 40))
            runs[scale] = rrgmres_solve(ctx, ctx.solver_rhs,
                                        SolverConfig(epsilon=scale * prob.epsilon))
        ref = runs[1.0]
        assert ref.stop_reason is StopReason.DISCREPANCY_MET
        for scale, res in runs.items():
            assert (res.k, res.stop_reason) == (ref.k, ref.stop_reason), scale
            np.testing.assert_allclose(res.z / scale, ref.z, rtol=1e-8,
                                       atol=1e-8 * np.linalg.norm(ref.z))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), rest=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1))
    def test_breakdown_on_an_invariant_block(self, d, rest, seed):
        # A is block diagonal and b lives on its well-conditioned leading
        # d x d block, so the range-restricted space fills that block in
        # d steps and the next direction vanishes; the breakdown step
        # must still give the least-squares iterate and its residual
        rng = np.random.default_rng(seed)
        n = d + rest
        a = np.zeros((n, n))
        a[:d, :d] = 2.0 * np.eye(d) + 0.5 * rng.standard_normal((d, d)) / np.sqrt(d)
        a[d:, d:] = rng.standard_normal((rest, rest))
        b = np.zeros(n)
        b[:d] = rng.standard_normal(d)
        res = rrgmres_solve(LinearOperator.from_matrix(a), b,
                            SolverConfig(epsilon=0.0), keep_iterates=True)
        assert res.k == d
        # with epsilon 0 only an exactly zero residual meets the discrepancy
        assert (res.stop_reason is StopReason.BREAKDOWN
                or (res.stop_reason is StopReason.DISCREPANCY_MET
                    and res.residual == 0.0))
        bnorm = np.linalg.norm(b)
        for k, (z, logged) in enumerate(zip(res.iterates, res.residuals[1:]), 1):
            ref = krylov_brute_force(a, b, k)
            assert np.linalg.norm(z - ref) <= 1e-8 * np.linalg.norm(ref)
            assert abs(logged - np.linalg.norm(a @ z - b)) <= 1e-8 * bnorm
        assert np.array_equal(res.z, res.iterates[-1])

    @pytest.mark.parametrize("epsilon", [0.0, 1.2])
    def test_singular_triangle_reports_the_iterate_residual(self, epsilon):
        # A b = e1 and A e1 = 0: the first step breaks down with a zero
        # triangle, so z = 0 and ||A z - b|| = ||b|| = sqrt(2); the part
        # of b along e1 that the triangle cannot fit counts too, and
        # epsilon 1.2 (threshold 1.212) is not met
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        res = rrgmres_solve(LinearOperator.from_matrix(a), np.ones(2),
                            SolverConfig(epsilon=epsilon))
        assert res.stop_reason is StopReason.BREAKDOWN
        assert res.k == 1
        assert res.residual == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert res.residuals[-1] == res.residual
        np.testing.assert_array_equal(res.z, np.zeros(2))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 6), rest=st.integers(0, 3),
           frac=st.floats(0.0, 1.2), seed=st.integers(0, 2**32 - 1))
    def test_residual_is_that_of_the_iterate_on_a_singular_space(
            self, d, rest, frac, seed):
        # A is block diagonal: a d x d weighted down-shift, which maps its
        # last unit vector to zero, and a diagonal block of distinct
        # eigenvalues.  The range-restricted space comes to hold that null
        # vector, and the rotated triangle turns singular.  Every logged
        # residual must still be ||A z_k - b||, so the discrepancy
        # principle stops only on an iterate that meets it.  The entries
        # of b are bounded away from 0, which keeps every diagonal ratio
        # of the triangle far from RANK_TOL on either side
        rng = np.random.default_rng(seed)
        n = d + rest
        a = np.zeros((n, n))
        a[np.arange(1, d), np.arange(d - 1)] = rng.uniform(0.5, 2.0, d - 1)
        a[d:, d:] = np.diag(rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], rest,
                                       replace=False))
        b = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
        bnorm = np.linalg.norm(b)
        cfg = SolverConfig(epsilon=frac * bnorm / 1.01)
        res = rrgmres_solve(LinearOperator.from_matrix(a), b, cfg,
                            keep_iterates=True)
        for z, logged in zip(res.iterates, res.residuals[1:]):
            assert abs(logged - np.linalg.norm(a @ z - b)) <= 1e-8 * bnorm
        if res.stop_reason is StopReason.DISCREPANCY_MET:
            assert np.linalg.norm(a @ res.z - b) <= cfg.eta * cfg.epsilon + 1e-12 * bnorm

    @pytest.mark.parametrize("a, b", SINGULAR_RULE_CASES,
                             ids=["largest-entry", "smallest-diagonal"])
    def test_singular_rule_reads_the_whole_triangle(self, a, b):
        # graded upper-triangular A, whose rotated triangle is singular
        # by the ratio of its smallest diagonal entry to its largest entry
        # so far; every logged residual is that of its iterate
        a, b = np.array(a), np.array(b)
        res = rrgmres_solve(LinearOperator.from_matrix(a), b,
                            SolverConfig(epsilon=0.0, max_iter=12),
                            keep_iterates=True)
        bnorm = np.linalg.norm(b)
        for z, logged in zip(res.iterates, res.residuals[1:]):
            assert abs(logged - np.linalg.norm(a @ z - b)) <= 1e-8 * bnorm

    def test_shape_guards(self):
        with pytest.raises(ShapeMismatch):
            rrgmres_solve(LinearOperator.from_matrix(np.ones((3, 2))),
                          np.ones(2), SolverConfig())
        with pytest.raises(ShapeMismatch):
            rrgmres_solve(LinearOperator.from_matrix(np.eye(3)), np.ones(4),
                          SolverConfig())

    def test_result_type(self):
        res = rrgmres_solve(LinearOperator.from_matrix(np.eye(2)),
                            np.array([1.0, 0.0]), SolverConfig(epsilon=1e-8))
        assert isinstance(res, RRGMRESResult)
        assert res.iterates is None  # not requested


def assert_block_equals_singles(a, B, cfgs, keep_iterates=False):
    """rrgmres_block on B against one rrgmres_solve per column: the same
    k, stop reason and solve_matvecs, and residuals, z (and
    iterates) to 1e-10 relative; the operator's count rises by the sum
    of the columns' counts."""
    op = LinearOperator.from_matrix(a)
    block = rrgmres_block(op, B, cfgs, keep_iterates=keep_iterates)
    assert op.matvec_count == sum(r.solve_matvecs for r in block)
    for j, (res, cfg) in enumerate(zip(block, cfgs)):
        ref = rrgmres_solve(LinearOperator.from_matrix(a), B[:, j], cfg,
                            keep_iterates=keep_iterates)
        assert (res.k, res.stop_reason, res.solve_matvecs) == (
            ref.k, ref.stop_reason, ref.solve_matvecs), j
        bnorm = np.linalg.norm(B[:, j])
        np.testing.assert_allclose(res.residuals, ref.residuals, rtol=0, atol=1e-10 * bnorm)
        assert_residuals_shape(res, B[:, j])
        assert_residuals_shape(ref, B[:, j])
        pairs = [(res.z, ref.z)]
        if keep_iterates:
            assert len(res.iterates) == len(ref.iterates) == res.k
            pairs += list(zip(res.iterates, ref.iterates))
        for z, z_ref in pairs:
            assert np.linalg.norm(z - z_ref) <= 1e-10 * max(np.linalg.norm(z_ref), 1e-300)
    return block


def assert_residuals_shape(res, b):
    """The residuals of a result: one per step m = 0..k, ||b|| first
    and the returned residual last."""
    assert len(res.residuals) == res.k + 1
    assert res.residuals[0] == pytest.approx(np.linalg.norm(b), rel=1e-15)
    assert res.residuals[-1] == res.residual


def draw_block(rng, n, kinds):
    """A, B and one config per column of B, for the column kinds drawn.

    A is well conditioned on its range and maps the last unit vector to
    zero.  Each column draws a kind: b with a discrepancy stop at its
    own step, ||b|| below eta * epsilon (k = 0), b along the null vector
    (A b = 0, a breakdown at k = 0), or epsilon 0 with a small cap
    (MAX_ITER); the columns leave the block at different steps.
    """
    a = 2.0 * np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    a[:, -1] = 0.0
    a[-1, :] = 0.0
    B = rng.standard_normal((n, len(kinds)))
    cfgs = []
    for j, kind in enumerate(kinds):
        bnorm = np.linalg.norm(B[:, j])
        if kind == "discrepancy":
            cfg = SolverConfig(epsilon=float(rng.uniform(1e-8, 0.5)) * bnorm)
        elif kind == "initial":
            cfg = SolverConfig(epsilon=2.0 * bnorm)
        elif kind == "null":
            B[:, j] = 0.0
            B[-1, j] = rng.uniform(0.5, 2.0)
            cfg = SolverConfig(epsilon=0.0)
        else:
            cfg = SolverConfig(epsilon=0.0, max_iter=int(rng.integers(1, min(6, n - 1))))
        cfgs.append(cfg)
    return a, B, cfgs


KINDS = st.sampled_from(["discrepancy", "initial", "null", "max_iter"])


class TestRRGMRESBlock:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 40), kinds=st.lists(KINDS, min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_block_equals_singles(self, n, kinds, seed):
        a, B, cfgs = draw_block(np.random.default_rng(seed), n, kinds)
        block = assert_block_equals_singles(a, B, cfgs, keep_iterates=True)
        for kind, res in zip(kinds, block):
            if kind == "initial":
                assert (res.k, res.stop_reason) == (0, StopReason.INITIAL_RESIDUAL_OK)
            elif kind == "null":
                assert (res.k, res.stop_reason) == (0, StopReason.BREAKDOWN)
                assert res.solve_matvecs == 1
            elif kind == "max_iter":
                assert res.stop_reason is StopReason.MAX_ITER

    def test_log_shape_for_every_stop_reason(self):
        # one block whose columns leave by each of the four reasons, the
        # two k = 0 stops among them: A b = 0 breaks down after one product.
        # The discrepancy column lies in the range of A, on which A is
        # invertible, so its residual reaches the threshold no later than
        # a breakdown would
        kinds = ["initial", "null", "discrepancy", "max_iter"]
        a, B, cfgs = draw_block(np.random.default_rng(152), 12, kinds)
        B[-1, 2] = 0.0
        block = assert_block_equals_singles(a, B, cfgs)
        assert [res.stop_reason for res in block] == [
            StopReason.INITIAL_RESIDUAL_OK, StopReason.BREAKDOWN,
            StopReason.DISCREPANCY_MET, StopReason.MAX_ITER]
        assert [res.k for res in block[:2]] == [0, 0]
        assert block[1].residuals == [block[1].residual]
        assert block[1].solve_matvecs == 1

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(8, 30),
           groups=st.lists(st.tuples(st.lists(KINDS, min_size=1, max_size=4),
                                     st.sampled_from([None, 0, 1])),
                           min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_operator_groups_run_as_they_would_alone(self, n, groups, seed):
        # several operators in one call, each with its own block: every
        # block's results equal those of its operator alone, bit for bit,
        # and each operator's count rises by its own columns' sum.  A
        # group may carry a singular-rule triangle as an extra column: the
        # graded operator sits in its operator's leading corner, cut off
        # from the rest, and b lives there
        rng = np.random.default_rng(seed)
        drawn = []
        for kinds, case in groups:
            a, B, cfgs = draw_block(rng, n, kinds)
            if case is not None:
                tri, b = map(np.array, SINGULAR_RULE_CASES[case])
                m = b.size
                a[:m], a[:, :m] = 0.0, 0.0
                a[:m, :m] = tri
                B = np.column_stack([B, np.concatenate([b, np.zeros(n - m)])])
                cfgs.append(SolverConfig(epsilon=0.0, max_iter=12))
            drawn.append((a, B, cfgs))
        ops = [LinearOperator.from_matrix(a) for a, _, _ in drawn]
        together = rrgmres_block(ops, [B for _, B, _ in drawn],
                                 [cfg for _, _, cfgs in drawn for cfg in cfgs])
        lo = 0
        for op, (a, B, cfgs) in zip(ops, drawn):
            mine = together[lo:lo + len(cfgs)]
            lo += len(cfgs)
            assert op.matvec_count == sum(r.solve_matvecs for r in mine)
            alone = rrgmres_block(LinearOperator.from_matrix(a), B, cfgs)
            for res, ref in zip(mine, alone, strict=True):
                assert (res.k, res.stop_reason, res.solve_matvecs, res.residual) == (
                    ref.k, ref.stop_reason, ref.solve_matvecs, ref.residual)
                assert res.residuals == ref.residuals
                assert np.array_equal(res.z, ref.z)
        assert lo == len(together)

    @pytest.mark.parametrize("a, b", SINGULAR_RULE_CASES,
                             ids=["largest-entry", "smallest-diagonal"])
    def test_singular_triangle_in_a_block(self, a, b):
        # the singular-rule operators with their b as one column of a
        # block, next to columns whose triangles stay regular
        a, b = np.array(a), np.array(b)
        rng = np.random.default_rng(7)
        B = np.column_stack([rng.standard_normal(b.size), b, a @ rng.standard_normal(b.size)])
        cfgs = [SolverConfig(epsilon=1e-3 * np.linalg.norm(B[:, 0])),
                SolverConfig(epsilon=0.0, max_iter=12),
                SolverConfig(epsilon=0.0, max_iter=2)]
        block = assert_block_equals_singles(a, B, cfgs, keep_iterates=True)
        bnorm = np.linalg.norm(b)
        for z, logged in zip(block[1].iterates, block[1].residuals[1:]):
            assert abs(logged - np.linalg.norm(a @ z - b)) <= 1e-8 * bnorm

    def test_storage_grows_past_many_chunks(self):
        # an orthogonal operator, 40 plane rotations whose 80 eigenvalues
        # are the roots of z^80 = -1: its Krylov matrices are Vandermonde
        # matrices on those roots, scaled by b's weight in each plane, so
        # the least-squares oracle stays well conditioned for all 70 steps
        # that epsilon 0 and max_iter 70 run
        rng = np.random.default_rng(150)
        a = np.zeros((80, 80))
        for j, theta in enumerate(np.pi * (2 * np.arange(40) + 1) / 80):
            c, s = np.cos(theta), np.sin(theta)
            a[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[c, -s], [s, c]]
        angle = rng.uniform(0.0, 2.0 * np.pi, 40)
        b = np.ravel(np.column_stack([np.cos(angle), np.sin(angle)])
                     * rng.uniform(0.5, 2.0, 40)[:, None])
        res = rrgmres_solve(LinearOperator.from_matrix(a), b,
                            SolverConfig(epsilon=0.0, max_iter=70),
                            keep_iterates=True)
        assert (res.k, res.stop_reason, res.solve_matvecs) == (70, StopReason.MAX_ITER, 71)
        bnorm = np.linalg.norm(b)
        for k, (zk, logged) in enumerate(zip(res.iterates, res.residuals[1:]), 1):
            z_ref = krylov_brute_force(a, b, k)
            assert np.linalg.norm(zk - z_ref) <= 1e-8 * max(np.linalg.norm(z_ref), 1.0)
            assert abs(logged - np.linalg.norm(a @ z_ref - b)) <= 1e-8 * bnorm
        assert np.array_equal(res.z, res.iterates[-1])

    def test_one_column_block_is_rrgmres_solve(self):
        # one call path: the one-column block gives rrgmres_solve's result
        # bit for bit, iterates included
        rng = np.random.default_rng(151)
        a = rng.standard_normal((12, 12)) + 4.0 * np.eye(12)
        b = rng.standard_normal(12)
        cfg = SolverConfig(epsilon=1e-6 * np.linalg.norm(b))
        for keep in (False, True):
            (res,) = assert_block_equals_singles(a, b[:, None], [cfg], keep)
            ref = rrgmres_solve(LinearOperator.from_matrix(a), b, cfg, keep)
            assert res.stop_reason is ref.stop_reason is StopReason.DISCREPANCY_MET
            assert (res.k, res.solve_matvecs, res.residuals, res.residual) == (
                ref.k, ref.solve_matvecs, ref.residuals, ref.residual)
            assert np.array_equal(res.z, ref.z)
            if keep:
                assert len(res.iterates) == len(ref.iterates) == res.k > 0
                assert all(np.array_equal(z, zr) for z, zr in zip(res.iterates, ref.iterates))
            else:
                assert res.iterates is ref.iterates is None

    def test_single_solve_hands_its_operator_one_column_blocks(self):
        # rrgmres_solve applies its operator as rrgmres_block does: every
        # operand is an n x 1 block, and each result is read as one
        rng = np.random.default_rng(152)
        op = RecordingOperator(rng.standard_normal((7, 7)) + 3.0 * np.eye(7))
        res = rrgmres_solve(op, rng.standard_normal(7), SolverConfig(epsilon=0.0, max_iter=5))
        assert res.solve_matvecs == len(op.inputs) == 6
        assert all(x.shape == (7, 1) for x in op.inputs)

    def test_guards(self):
        op = LinearOperator.from_matrix(np.eye(3))
        with pytest.raises(ShapeMismatch):
            rrgmres_block(op, np.ones(3), [SolverConfig()])
        with pytest.raises(ShapeMismatch):
            rrgmres_block(op, np.ones((4, 2)), [SolverConfig()] * 2)
        with pytest.raises(ShapeMismatch):
            rrgmres_block(op, np.ones((3, 2)), [SolverConfig()])
        with pytest.raises(ShapeMismatch):
            rrgmres_block(LinearOperator.from_matrix(np.ones((3, 2))),
                          np.ones((2, 1)), [SolverConfig()])
        B = np.ones((3, 2))
        B[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            rrgmres_block(op, B, [SolverConfig()] * 2)
        assert op.matvec_count == 0

    def test_operator_group_guards(self):
        ops = [LinearOperator.from_matrix(np.eye(3)), LinearOperator.from_matrix(2 * np.eye(3))]
        B = np.ones((3, 2))
        with pytest.raises(ShapeMismatch):  # a block short
            rrgmres_block(ops, [B], [SolverConfig()] * 2)
        with pytest.raises(ShapeMismatch):  # operators of two orders
            rrgmres_block([ops[0], LinearOperator.from_matrix(np.eye(4))],
                          [B, np.ones((4, 1))], [SolverConfig()] * 3)
        with pytest.raises(ShapeMismatch):  # no operator
            rrgmres_block([], [], [])
        with pytest.raises(ShapeMismatch):  # a config short
            rrgmres_block(ops, [B, B], [SolverConfig()] * 3)
        assert [op.matvec_count for op in ops] == [0, 0]
        res = rrgmres_block(ops, [B, B], [SolverConfig(epsilon=1e-9)] * 4)
        assert [op.matvec_count for op in ops] == [4, 4]
        for r, scale in zip(res, [1.0, 1.0, 0.5, 0.5]):
            assert (r.k, r.stop_reason) == (1, StopReason.DISCREPANCY_MET)
            np.testing.assert_allclose(r.z, scale * np.ones(3))


def draw_operator(rng, kind, n):
    """An operator, three right-hand sides and a config for each, for
    the kind drawn: a dense Gaussian matrix, a down-shift plus a tiny
    diagonal (its triangles come near the singular rule), or a
    SINGULAR_RULE_CASES operator with its b and two Gaussian columns."""
    if kind == "gaussian":
        a = rng.standard_normal((n, n))
    elif kind == "shift":
        a = np.eye(n, k=-1) + 10.0 ** rng.uniform(-14.0, -4.0) * np.diag(
            rng.standard_normal(n))
    else:
        a, b = map(np.array, SINGULAR_RULE_CASES[kind])
        n = b.size
    B = rng.standard_normal((n, 3))
    if kind in (0, 1):
        B[:, 0] = b
    return a, B, [SolverConfig(epsilon=0.0, max_iter=12)] * 3


def near_singular_system(d, extra, p, seed):
    """A d x d down-shift beside an extra x extra block 2I + 0.25 G, with
    a Gaussian b whose first entry is scaled by 10^-p; G and then b are
    drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    a = np.zeros((d + extra, d + extra))
    a[:d, :d] = np.eye(d, k=-1)
    a[d:, d:] = 2.0 * np.eye(extra) + 0.25 * rng.standard_normal((extra, extra))
    b = rng.standard_normal(d + extra)
    b[0] *= 10.0 ** -p
    return a, b


def spied_run(a, b, frac):
    """RRGMRES on (a, b) with epsilon = frac ||b|| / 1.01, keeping its
    iterates: its config, its result and the smallest ratio dmin/rmax
    of the rotated triangles it formed, each read as its step adds it."""
    ratios = []

    def spy(st, hcol):
        cleared = add_column(st, hcol)
        r = st.R[:, :st.k, :st.k]
        ratios.append(np.min(np.abs(np.diagonal(r, 0, -2, -1)).min(axis=-1)
                             / np.maximum(np.abs(r).max(axis=(-2, -1)), 1e-300)))
        return cleared

    add_column = solver._Columns.add_column
    cfg = SolverConfig(epsilon=frac * np.linalg.norm(b) / 1.01)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._Columns, "add_column", spy)
        res = rrgmres_solve(LinearOperator.from_matrix(a), b, cfg, keep_iterates=True)
    return cfg, res, min(ratios)


def assert_logs_the_iterate_residual(a, b, cfg, res):
    """Every logged residual is ||A z_k - b|| of the kept iterate to
    1e-8 ||b||, and a discrepancy stop returns an iterate that meets the
    threshold to that accuracy."""
    bnorm = np.linalg.norm(b)
    for z, logged in zip(res.iterates, res.residuals[1:]):
        assert abs(logged - np.linalg.norm(a @ z - b)) <= 1e-8 * bnorm
    if res.stop_reason is StopReason.DISCREPANCY_MET:
        assert np.linalg.norm(a @ res.z - b) <= cfg.eta * cfg.epsilon + 1e-8 * bnorm


class TestIterates:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "shift", 0, 1]), n=st.integers(4, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_every_kept_iterate_is_the_iterate_its_step_returns(self, kind, n, seed):
        # iterates[m - 1] of a run is, bit for bit, the z that the same
        # call returns when max_iter stops it at step m, alone and as
        # one column of a block
        a, B, cfgs = draw_operator(np.random.default_rng(seed), kind, n)
        op = LinearOperator.from_matrix(a)
        res = rrgmres_solve(op, B[:, 0], cfgs[0], keep_iterates=True)
        assert len(res.iterates) == res.k
        for m, zm in enumerate(res.iterates, 1):
            short = rrgmres_solve(op, B[:, 0], SolverConfig(epsilon=0.0, max_iter=m))
            assert short.k == m
            assert np.array_equal(zm, short.z), m
        block = rrgmres_block(op, B, cfgs, keep_iterates=True)
        for m in range(1, max(r.k for r in block) + 1):
            short = rrgmres_block(op, B, [SolverConfig(epsilon=0.0, max_iter=m)] * 3)
            for j, (r, s) in enumerate(zip(block, short)):
                if m <= r.k:
                    assert s.k == m
                    assert np.array_equal(r.iterates[m - 1], s.z), (m, j)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 30), seed=st.integers(0, 2**32 - 1))
    @example(n=5, seed=0)
    def test_a_singular_residual_forms_no_iterate(self, n, seed):
        # a basis combination is made twice per step, by the two
        # Gram-Schmidt passes, and once per step at which columns leave,
        # for their iterates; the misfit of a singular triangle's
        # residual forms none
        calls = []

        def counting(pieces, y):
            calls.append(y.shape)
            return combination(pieces, y)

        combination = solver._combination
        a, B, cfgs = draw_operator(np.random.default_rng(seed), "shift", n)
        op = LinearOperator.from_matrix(a)
        for run in (lambda: [rrgmres_solve(op, B[:, 0], cfgs[0])],
                    lambda: rrgmres_block(op, B, cfgs)):
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "_combination", counting)
                ks = [r.k for r in run()]
            assert len(calls) == 2 * max(ks) + len({k for k in ks if k >= 1}), ks

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "shift", 0, 1]), n=st.integers(4, 30),
           caps=st.lists(st.integers(1, 12), min_size=3, max_size=3),
           keep=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_a_triangle_is_solved_only_where_it_is_read(self, kind, n, caps, keep, seed):
        # at step k, the step's own _least_squares call ("misfit") solves
        # exactly the triangles that the R^-1 bound does not clear, and
        # _Columns.iterates ("iterate") calls it once on exactly the
        # triangles of step k of the columns that leave at k, and with
        # keep_iterates once more on their triangles of each step m < k;
        # back_substitute runs only inside _least_squares.  So a cleared
        # column that does not leave has no triangle solved, and an
        # uncleared one that leaves is solved twice, once for each
        steps = []  # per step: its cleared mask, R, g and the calls made
        under_way = []  # the spied calls under way

        def adding(state, hcol):
            cleared = add_column(state, hcol)
            k = state.k
            steps.append((cleared.copy(), state.R[:, :k, :k].copy(), state.g[:, :k].copy(), []))
            return cleared

        def forming(state, rows, m):
            under_way.append("iterate")
            try:
                return iterates(state, rows, m)
            finally:
                under_way.pop()

        def solving(R, g):
            path = "iterate" if under_way[-1:] == ["iterate"] else "misfit"
            steps[-1][3].append((path, g.shape[1],
                                 sorted(R[i].tobytes() + g[i].tobytes() for i in range(len(g)))))
            under_way.append("solve")
            try:
                return least_squares(R, g)
            finally:
                under_way.pop()

        def substituting(R, g):
            assert under_way[-1:] == ["solve"]
            return back_substitute(R, g)

        add_column, iterates = solver._Columns.add_column, solver._Columns.iterates
        least_squares, back_substitute = solver._least_squares, solver.back_substitute
        a, B, _ = draw_operator(np.random.default_rng(seed), kind, n)
        cfgs = [SolverConfig(epsilon=0.0, max_iter=cap) for cap in caps]
        op = LinearOperator.from_matrix(a)
        for run in (lambda: [rrgmres_solve(op, B[:, 0], cfgs[0], keep_iterates=keep)],
                    lambda: rrgmres_block(op, B, cfgs, keep_iterates=keep)):
            steps.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver._Columns, "add_column", adding)
                mp.setattr(solver._Columns, "iterates", forming)
                mp.setattr(solver, "_least_squares", solving)
                mp.setattr(solver, "back_substitute", substituting)
                ks = [r.k for r in run()]
            assert len(steps) == max(ks)
            for k, (cleared, R, g, calls) in enumerate(steps, 1):
                leaving = np.array([kk == k for kk in ks if kk >= k])

                def triangles(mask, m):
                    return sorted(R[i, :m, :m].tobytes() + g[i, :m].tobytes()
                                  for i in np.flatnonzero(mask))

                expected = [] if cleared.all() else [("misfit", k, triangles(~cleared, k))]
                if leaving.any():
                    expected += [("iterate", m, triangles(leaving, m))
                                 for m in (range(1, k + 1) if keep else [k])]
                assert calls == expected, (k, ks)
                idle = set(triangles(cleared & ~leaving, k))
                assert not idle & {t for _, m, ts in calls if m == k for t in ts}, (k, ks)

    def test_near_singular_triangle_logs_the_iterate_residual(self):
        # the 5 x 5 down-shift: step 4's triangle is regular by the rule,
        # but its iterate has entries near 4e19, and the logged 1.85e-3
        # stands for a true ||A z - b|| of 2660
        a = np.eye(5, k=-1)
        b = np.random.default_rng(568).standard_normal(5)
        res = rrgmres_solve(LinearOperator.from_matrix(a), b, SolverConfig(epsilon=0.0),
                            keep_iterates=True)
        bnorm = np.linalg.norm(b)
        for z, logged in zip(res.iterates, res.residuals[1:]):
            assert abs(logged - np.linalg.norm(a @ z - b)) <= 1e-8 * bnorm

    @pytest.mark.parametrize("p", [7, 8, 9, 10])
    def test_breakdown_step_logs_the_iterate_residual(self, p):
        # the 3 x 3 down-shift with b_0 scaled by 10^-p breaks down at
        # step 1 with a new direction small but not zero (hkk near 1e-15)
        # and y near 8e6: b's part along that direction belongs in g_1,
        # or the residual misses ||A z - b|| by about |y| hkk, 1.6e-8 ||b||
        # at p = 7
        a = np.eye(3, k=-1)
        b = np.random.default_rng(1).standard_normal(3)
        b[0] *= 10.0 ** -p
        res = rrgmres_solve(LinearOperator.from_matrix(a), b, SolverConfig(epsilon=0.0),
                            keep_iterates=True)
        assert res.stop_reason is StopReason.BREAKDOWN
        bnorm = np.linalg.norm(b)
        for z, logged in zip(res.iterates, res.residuals[1:]):
            assert abs(logged - np.linalg.norm(a @ z - b)) <= 1e-12 * bnorm

    @pytest.mark.parametrize("frac", [0.0, 0.4])
    def test_shift_beside_a_shifted_gaussian_block(self, frac):
        # a 4 x 4 down-shift beside the block 2I + 0.25 G: the residual
        # levels off at 0.478 ||b||, and step 7's triangle has a ratio of
        # 4.6e-13, where the run breaks down
        a, b = near_singular_system(4, 4, 0, 4251443)
        cfg, res, ratio = spied_run(a, b, frac)
        assert 1e-14 <= ratio <= 1e-8
        assert_logs_the_iterate_residual(a, b, cfg, res)

    @settings(max_examples=60, deadline=None)
    # d >= 4 and p in 2..4 reach the ratio band in about 60 % of draws;
    # d = 3, or p outside 2..4, in few enough that the filter rejects most
    @given(d=st.integers(4, 8), extra=st.sampled_from([0, 4]), p=st.integers(2, 4),
           frac=st.sampled_from([0.0, 0.0, 1e-6, 1e-3]), seed=st.integers(0, 2**32 - 1))
    # ratios 1.0e-10 and 7.6e-12, where back substitution logged residuals
    # 8386 ||b|| and 981 ||b|| below those of the iterates
    @example(d=6, extra=0, p=3, frac=0.0, seed=0)
    @example(d=7, extra=4, p=3, frac=0.0, seed=3)
    def test_near_singular_triangles_log_the_iterate_residual(self, d, extra, p, frac,
                                                              seed):
        # the down-shift's null vector enters the range-restricted space,
        # and a first entry of b scaled by 10^-p puts the smallest ratio
        # dmin/rmax of a rotated triangle anywhere from 1 to below 1e-14;
        # the draws that reach [1e-14, 1e-8] count
        a, b = near_singular_system(d, extra, p, seed)
        cfg, res, ratio = spied_run(a, b, frac)
        assume(1e-14 <= ratio <= 1e-8)
        assert_logs_the_iterate_residual(a, b, cfg, res)


U = np.finfo(float).eps / 2


def triangle_state(R):
    """A one-column solver state whose steps add the columns of the
    upper triangle R, with a positive diagonal, as Hessenberg columns
    with a zero subdiagonal: each rotation is the identity, so the
    state's R is R to the bit.  Returns the state and the masks that
    add_column returned, one per step."""
    k = R.shape[0]
    state = solver._Columns(1, [1], cols=np.arange(1), res=np.zeros((1, 1)))
    while state.g.shape[1] < k + 1:
        state.grow()
    cleared = []
    for j in range(k):
        hcol = np.zeros((j + 2, 1))
        hcol[:j + 1, 0] = R[:j + 1, j]
        cleared.append(bool(state.add_column(hcol)[0]))
    assert np.array_equal(state.R[0, :k, :k], R)
    return state, cleared


def random_triangle(rng, k, spread):
    """A k x k upper triangle with Gaussian entries above the diagonal
    and a positive diagonal spread over `spread` decades."""
    R = np.triu(rng.standard_normal((k, k)), 1)
    R[np.diag_indices(k)] = 10.0 ** -rng.uniform(0.0, spread, k)
    return R


def assert_inverse(R, X):
    """X, a kept R^-1 with finite entries, is within 4 k cond_F(R) u
    ||R^-1||_F of R^-1 wherever cond_F(R) u < 1/4; both are compared
    with R scaled by a power of two to a largest entry in [1/2, 1)."""
    k = R.shape[0]
    if not np.isfinite(X).all():
        return
    e = int(np.frexp(np.abs(R).max())[1])
    R, X = np.ldexp(R, -e), np.ldexp(X, e)
    with np.errstate(all="ignore"):
        inv = np.linalg.inv(R)
    kappa = np.linalg.norm(R) * np.linalg.norm(inv)
    if kappa * U < 0.25:
        assert np.linalg.norm(X - inv) <= 4 * k * kappa * U * np.linalg.norm(inv)


def assert_cleared_passes(R, g):
    """A triangle that the bound clears is regular by the rule, and
    _least_squares back-substitutes it, misfit 0, for its own g and for
    the g that makes y longest, R's smallest right singular vector
    times R."""
    assert not singular_triangles(R, NEAR_SINGULAR_TOL)
    v = np.linalg.svd(R)[2][-1]
    for rhs in (g, R @ v):
        y, misfit = solver._least_squares(R[None], rhs[None])
        assert misfit[0] == 0.0
        assert np.array_equal(y[0], solver.back_substitute(R, rhs))
        assert (NEAR_SINGULAR_TOL * float(np.abs(R).max()) * frobenius_norm(y[0])
                <= solver.MARGIN * 1.01 * frobenius_norm(rhs))


def spied_triangles(a, B, cfgs):
    """rrgmres_block on (a, B): every triangle it formed, with its g,
    its kept R^-1 and whether the bound cleared it."""
    seen = []

    def adding(state, hcol):
        cleared = add_column(state, hcol)
        k = state.k
        seen.extend(zip(state.R[:, :k, :k].copy(), state.g[:, :k].copy(),
                        state.Rinv[:, :k, :k].copy(), cleared))
        return cleared

    add_column = solver._Columns.add_column
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._Columns, "add_column", adding)
        rrgmres_block(LinearOperator.from_matrix(a), B, cfgs)
    return seen


def assert_same_results(res, ref):
    for r, q in zip(res, ref):
        assert (r.k, r.stop_reason, r.residuals) == (q.k, q.stop_reason, q.residuals)
        assert r.z.tobytes() == q.z.tobytes()
        assert [z.tobytes() for z in r.iterates] == [z.tobytes() for z in q.iterates]


class TestInverseBound:
    """R^-1 kept beside R, and the bound NEAR_SINGULAR_TOL rmax
    ||R^-1||_F <= MARGIN that spares a triangle its back substitution."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 24), spread=st.floats(0.0, 9.0), e=st.sampled_from([0, 0, 300, -990]),
           seed=st.integers(0, 2**32 - 1))
    def test_kept_inverse_on_random_triangles(self, k, spread, e, seed):
        # R^-1 is R^-1 to a cond(R) u-scaled tolerance; a clearing is
        # regular by the rule and passes the length test, down to
        # triangles scaled by 2**-990, where tol rmax underflows unscaled
        R = np.ldexp(random_triangle(np.random.default_rng(seed), k, spread), e)
        state, cleared = triangle_state(R)
        for m in range(1, k + 1):
            assert_inverse(R[:m, :m], state.Rinv[0, :m, :m])
            if cleared[m - 1]:
                assert_cleared_passes(R[:m, :m], np.ones(m))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(3, 8), extra=st.sampled_from([0, 4]), p=st.integers(0, 8),
           seed=st.integers(0, 2**32 - 1))
    @example(d=6, extra=0, p=3, seed=0)
    @example(d=7, extra=4, p=3, seed=3)
    def test_kept_inverse_on_the_near_singular_family(self, d, extra, p, seed):
        # the down-shift family of test_near_singular_triangles_log_the_
        # iterate_residual: its triangles come near the rule and past it
        a, b = near_singular_system(d, extra, p, seed)
        for R, g, X, cleared in spied_triangles(a, b[:, None], [SolverConfig()]):
            assert_inverse(R, X)
            if cleared:
                assert_cleared_passes(R, g)
            assert cleared or not np.isfinite(X).all() or (
                NEAR_SINGULAR_TOL * float(np.abs(R).max()) * frobenius_norm(X)
                > solver.MARGIN * 0.99)

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(2, 12), edge=st.floats(1.001 * solver.MARGIN, 4.0),
           seed=st.integers(0, 2**32 - 1))
    @example(k=2, edge=1.001 * solver.MARGIN, seed=66634)
    @example(k=5, edge=1.0, seed=0)
    @example(k=5, edge=1.0 + 1e-9, seed=0)
    def test_a_triangle_at_the_length_rules_edge_takes_the_full_path(self, k, edge, seed):
        # a last column delta e_k, delta = NEAR_SINGULAR_TOL rmax / edge,
        # puts the length test's ratio, NEAR_SINGULAR_TOL rmax ||y|| /
        # ||g||, at edge for g = delta e_k, whose y is e_k: above MARGIN,
        # up to the test's edge at 1 and past it, the bound never clears
        # the triangle, whose misfit _least_squares then reads, by back
        # substitution or, past the edge, the minimum-norm solution.  (At
        # MARGIN itself the bound may round to MARGIN and clear it, which
        # the length test, at half its edge, allows; a 1 x 1 triangle's
        # ratio is NEAR_SINGULAR_TOL.)
        rng = np.random.default_rng(seed)
        R = np.triu(rng.uniform(-1.0, 1.0, (k, k)), 1) + np.diag(rng.uniform(1.0, 2.0, k))
        R[:, k - 1] = 0.0
        R[k - 1, k - 1] = NEAR_SINGULAR_TOL * np.abs(R).max() / edge
        g = R[:, k - 1].copy()
        state, cleared = triangle_state(R)
        assert not cleared[-1]
        y = solver.back_substitute(R, g)
        assert np.array_equal(y, np.eye(k)[k - 1])
        ratio = NEAR_SINGULAR_TOL * np.abs(R).max() / g[k - 1]
        assert ratio == pytest.approx(edge, rel=1e-12)
        misfit = solver._least_squares(R[None], g[None])[1][0]
        assert misfit == 0.0 or edge > 1.0 - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "shift", 0, 1, "near"]), n=st.integers(4, 30),
           caps=st.lists(st.integers(1, 12), min_size=3, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_the_bound_moves_no_bit(self, kind, n, caps, seed):
        # with MARGIN = 0 the bound clears no triangle, and every step
        # solves every triangle; the results, kept iterates included, are
        # the same to the bit
        rng = np.random.default_rng(seed)
        if kind == "near":
            a, b = near_singular_system(int(rng.integers(3, 9)), int(rng.choice([0, 4])),
                                        int(rng.integers(0, 9)), seed)
            B = np.column_stack([b, rng.standard_normal((b.size, 2))])
        else:
            a, B, _ = draw_operator(rng, kind, n)
        cfgs = [SolverConfig(epsilon=0.0, max_iter=cap) for cap in caps]
        op = LinearOperator.from_matrix(a)
        res = rrgmres_block(op, B, cfgs, keep_iterates=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "MARGIN", 0.0)
            ref = rrgmres_block(op, B, cfgs, keep_iterates=True)
        assert_same_results(res, ref)

    def test_a_zero_column_makes_no_warning(self):
        # a nilpotent operator sends the basis to zero: R gets a zero
        # column and R^-1 an infinite entry, quietly (RuntimeWarnings are
        # errors here), and the triangle takes the full path
        seen = spied_triangles(np.eye(3, k=-1), np.eye(3)[:, 1:2], [SolverConfig()])
        assert any(not np.isfinite(X).all() for _, _, X, _ in seen)
        assert not any(cleared for _, _, X, cleared in seen if not np.isfinite(X).all())


class TestTikhonovOracle:
    def test_balanced_identity(self):
        b = np.array([2.0, 4.0, -6.0])
        np.testing.assert_allclose(tikhonov_direct_oracle(np.eye(3), np.eye(3),
                                                          b, 1.0),
                                   b / 2.0, atol=1e-14)

    def test_zero_penalty_matrix(self):
        b = np.array([1.0, -2.0])
        np.testing.assert_allclose(
            tikhonov_direct_oracle(np.eye(2), np.zeros((2, 2)), b, 7.0), b,
            atol=1e-14)

    def test_diagonal_hand_computation(self):
        k = np.diag([1.0, 0.1])
        x = tikhonov_direct_oracle(k, np.eye(2), np.array([1.0, 1.0]), 0.01)
        np.testing.assert_allclose(x, [1.0 / 1.01, 5.0], rtol=1e-14)

    def test_overlapping_null_spaces(self):
        k = np.diag([1.0, 0.0])
        with pytest.raises(SingularSystem):
            tikhonov_direct_oracle(k, k, np.ones(2), 1.0)

    def test_input_guards(self):
        with pytest.raises(ValueError):
            tikhonov_direct_oracle(np.eye(2), np.eye(2), np.ones(2), -1.0)
        with pytest.raises(ShapeMismatch):
            tikhonov_direct_oracle(np.eye(2), np.eye(3), np.ones(2), 1.0)
        with pytest.raises(ShapeMismatch):
            tikhonov_direct_oracle(np.eye(2), np.eye(2), np.ones(3), 1.0)

    def test_residual_monotone_in_mu(self):
        rng = np.random.default_rng(111)
        k = rng.standard_normal((8, 8))
        b = rng.standard_normal(8)
        prev = -1.0
        for mu in np.logspace(-8, 4, 25):
            x = tikhonov_direct_oracle(k, np.eye(8), b, mu)
            r = np.linalg.norm(k @ x - b)
            assert r >= prev - 1e-12
            prev = r


class TestDiscrepancyMuSearch:
    def test_scalar_closed_form(self):
        # residual of the identity problem is ||b|| mu/(1+mu); target 1
        # with ||b|| = 2 pins mu = 1
        b = np.array([2.0, 0.0, 0.0])
        mu, x = discrepancy_mu_solve(np.eye(3), np.eye(3), b,
                                     epsilon=1.0 / 1.01, eta=1.01)
        assert mu == pytest.approx(1.0, rel=1e-6)
        np.testing.assert_allclose(x, b / 2.0, rtol=1e-6)

    def test_self_consistency(self):
        rng = np.random.default_rng(112)
        k = rng.standard_normal((10, 10))
        b = rng.standard_normal(10)
        eps = 0.3 * np.linalg.norm(b)
        mu, x = discrepancy_mu_solve(k, np.eye(10), b, epsilon=eps)
        assert abs(np.linalg.norm(k @ x - b) - 1.01 * eps) <= 1e-6 * eps

    def test_no_root_above_data_norm(self):
        b = np.array([1.0, 0.0])
        with pytest.raises(NoRoot):
            discrepancy_mu_solve(np.eye(2), np.eye(2), b, epsilon=50.0)

    def test_no_root_below_attainable_residual(self):
        # the rank-deficient operator cannot fit the second component
        k = np.diag([1.0, 0.0])
        with pytest.raises(NoRoot):
            discrepancy_mu_solve(k, np.eye(2), np.array([0.0, 1.0]),
                                 epsilon=0.5)

    def test_epsilon_guard(self):
        with pytest.raises(ValueError):
            discrepancy_mu_solve(np.eye(2), np.eye(2), np.ones(2), epsilon=0.0)
