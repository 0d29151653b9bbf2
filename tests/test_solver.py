"""Iterative solver tests against brute-force Krylov and dense oracles."""
import io

import numpy as np
import pytest

from regnear.errors import NoRoot, ShapeMismatch, SingularSystem
from regnear.solver import (IterationLog, RRGMRESResult, SolverConfig,
                            StopReason, discrepancy_mu_solve,
                            hessenberg_residual, rrgmres_solve,
                            tikhonov_direct_oracle)
from regnear.transform import LinearOperator


class RecordingOperator:
    """Matrix action that remembers every vector it was applied to."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.shape = self.a.shape
        self.inputs = []

    def matvec(self, v):
        self.inputs.append(np.array(v, dtype=float))
        return self.a @ v


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


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.eta == 1.01
        assert cfg.epsilon == 0.0
        assert cfg.max_iter == 100
        assert cfg.breakdown_tol == 1e-14

    @pytest.mark.parametrize("kwargs", [
        {"eta": 1.0}, {"eta": 0.5}, {"epsilon": -1.0},
        {"max_iter": 0}, {"breakdown_tol": -1e-3}, {"breakdown_tol": 1.0},
        {"eta": np.inf}, {"epsilon": np.nan}, {"epsilon": np.inf},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestHessenbergResidual:
    def test_exact_solve(self):
        res, y = hessenberg_residual(np.array([[1.0], [0.0]]), 1.0)
        assert res == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(y, [1.0], atol=1e-15)

    def test_two_by_one(self):
        # min over y of ||(1,0) - y(1,1)||: y = 1/2, residual 1/sqrt(2)
        res, y = hessenberg_residual(np.array([[1.0], [1.0]]), 1.0)
        assert res == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)
        np.testing.assert_allclose(y, [0.5], atol=1e-14)

    def test_degenerate_zero_columns(self):
        res, y = hessenberg_residual(np.zeros((1, 0)), 2.0)
        assert res == pytest.approx(2.0)
        assert y.shape == (0,)

    def test_against_lstsq(self):
        rng = np.random.default_rng(101)
        for k in (2, 4, 6):
            h = np.triu(rng.standard_normal((k + 1, k)), -1)
            beta = float(rng.standard_normal())
            res, y = hessenberg_residual(h, beta)
            c = np.zeros(k + 1)
            c[0] = beta
            y_ref, *_ = np.linalg.lstsq(h, c, rcond=None)
            np.testing.assert_allclose(y, y_ref, atol=1e-10)
            assert res == pytest.approx(np.linalg.norm(h @ y_ref - c), abs=1e-10)

    def test_shape_guard(self):
        with pytest.raises(ShapeMismatch):
            hessenberg_residual(np.eye(3), 1.0)
        with pytest.raises(ShapeMismatch):
            hessenberg_residual(np.ones((3, 1)), 1.0)


class TestRRGMRES:
    def test_initial_residual_already_small(self):
        op = LinearOperator.from_matrix(np.eye(3))
        b = np.full(3, 1e-12)
        res = rrgmres_solve(op, b, SolverConfig(epsilon=1.0))
        assert res.stop_reason is StopReason.INITIAL_RESIDUAL_OK
        assert res.k == 0
        assert np.array_equal(res.z, np.zeros(3))
        assert res.solve_matvecs == 0
        assert res.log.entries == [(0, pytest.approx(np.linalg.norm(b)), 0)]

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
        for (k, logged, _), zk in zip(res.log.entries[1:], res.iterates):
            explicit = np.linalg.norm(a @ zk - b)
            assert abs(logged - explicit) <= 1e-8 * bnorm

    def test_residual_monotonicity(self):
        rng = np.random.default_rng(107)
        for trial in range(5):
            a = rng.standard_normal((10, 10))
            b = rng.standard_normal(10)
            res = rrgmres_solve(LinearOperator.from_matrix(a), b,
                                SolverConfig(epsilon=0.0, max_iter=8))
            r = res.log.residuals()
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

    def test_matvec_log_column(self):
        rng = np.random.default_rng(109)
        a = rng.standard_normal((9, 9))
        b = rng.standard_normal(9)
        res = rrgmres_solve(LinearOperator.from_matrix(a), b,
                            SolverConfig(epsilon=0.0, max_iter=4))
        assert [mv for _, _, mv in res.log.entries] == [0, 2, 3, 4, 5]

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
        for _, r, _ in res.log.entries[:-1]:
            assert r > 1.01 * eps

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


class TestIterationLog:
    def test_csv_golden(self):
        log = IterationLog()
        log.record(0, 1.5, 0)
        log.record(1, 0.25, 2)
        buf = io.StringIO()
        log.write_csv(buf)
        assert buf.getvalue() == "k,residual,matvecs\n0,1.5,0\n1,0.25,2\n"

    def test_csv_to_path(self, tmp_path):
        log = IterationLog()
        log.record(0, 2.0, 0)
        path = str(tmp_path / "log.csv")
        log.write_csv(path)
        with open(path) as f:
            assert f.read() == "k,residual,matvecs\n0,2,0\n"


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
