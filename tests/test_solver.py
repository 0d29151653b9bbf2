"""Iterative solver tests against brute-force Krylov and dense oracles."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regnear import solver
from regnear.errors import NoRoot, ShapeMismatch, SingularSystem
from regnear.linalg import RANK_TOL
from regnear.problems import add_noise, build_problem
from regnear.regops import regularizer_from_name
from regnear.solver import (RRGMRESResult, SolverConfig, StopReason,
                            discrepancy_mu_solve, hessenberg_residual,
                            rrgmres_block, rrgmres_solve,
                            tikhonov_direct_oracle)
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
        res, y = hessenberg_residual(h, beta)
        c = np.zeros(k + 1)
        c[0] = beta
        y_ref, *_ = np.linalg.lstsq(h, c, rcond=RANK_TOL)
        scale = max(1.0, np.linalg.norm(y_ref))
        np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-10 * scale)
        assert res == pytest.approx(np.linalg.norm(h @ y_ref - c), abs=1e-10 * scale)

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
        assert res.solve_matvecs == 5
        assert [mv for _, _, mv in res.log.entries] == [0, 2, 3, 4, 5]
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
        for k, (z, (_, logged, _)) in enumerate(zip(res.iterates,
                                                    res.log.entries[1:]), 1):
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
        assert res.log.entries[-1][1] == res.residual
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
        for z, (_, logged, _) in zip(res.iterates, res.log.entries[1:]):
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
        for z, (_, logged, _) in zip(res.iterates, res.log.entries[1:]):
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
    k, stop reason and matvec columns, and logged residuals, z (and
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
        assert [(k, mv) for k, _, mv in res.log.entries] == [
            (k, mv) for k, _, mv in ref.log.entries]
        bnorm = np.linalg.norm(B[:, j])
        np.testing.assert_allclose(res.log.residuals(), ref.log.residuals(),
                                   rtol=0, atol=1e-10 * bnorm)
        assert_log_shape(res, B[:, j])
        assert_log_shape(ref, B[:, j])
        pairs = [(res.z, ref.z)]
        if keep_iterates:
            assert len(res.iterates) == len(ref.iterates) == res.k
            pairs += list(zip(res.iterates, ref.iterates))
        for z, z_ref in pairs:
            assert np.linalg.norm(z - z_ref) <= 1e-10 * max(np.linalg.norm(z_ref), 1e-300)
    return block


def assert_log_shape(res, b):
    """The log of a result: one entry (m, residual, matvecs) per step
    m = 0..k, matvecs m + 1 from step 1 on (A b is the one extra
    product), ||b|| first and the returned residual last."""
    assert len(res.log.entries) == res.k + 1
    for m, (step, _, matvecs) in enumerate(res.log.entries):
        assert (step, matvecs) == (m, m + (m > 0))
    assert res.log.entries[0][1] == pytest.approx(np.linalg.norm(b), rel=1e-15)
    assert res.log.entries[-1][1] == res.residual


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
        assert block[1].log.entries == [(0, block[1].residual, 0)]
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
                assert res.log.entries == ref.log.entries
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
        for z, (_, logged, _) in zip(block[1].iterates, block[1].log.entries[1:]):
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
        for k, (zk, (_, logged, mv)) in enumerate(zip(res.iterates, res.log.entries[1:]), 1):
            z_ref = krylov_brute_force(a, b, k)
            assert np.linalg.norm(zk - z_ref) <= 1e-8 * max(np.linalg.norm(z_ref), 1.0)
            assert abs(logged - np.linalg.norm(a @ z_ref - b)) <= 1e-8 * bnorm
            assert mv == k + 1
        assert np.array_equal(res.z, res.iterates[-1])

    def test_one_column_block_is_rrgmres_solve(self):
        rng = np.random.default_rng(151)
        a = rng.standard_normal((12, 12)) + 4.0 * np.eye(12)
        b = rng.standard_normal(12)
        cfg = SolverConfig(epsilon=1e-6 * np.linalg.norm(b))
        (res,) = assert_block_equals_singles(a, b[:, None], [cfg])
        assert res.stop_reason is StopReason.DISCREPANCY_MET

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

    @pytest.mark.xfail(strict=True, reason="a rotated triangle just above the singular "
                       "rule back-substitutes to an iterate whose residual the log does "
                       "not report (ROADMAP item 5)")
    def test_near_singular_triangle_logs_the_iterate_residual(self):
        # the 5 x 5 down-shift: step 4's triangle is regular by the rule,
        # but its iterate has entries near 4e19, and the logged 1.85e-3
        # stands for a true ||A z - b|| of 2660
        a = np.eye(5, k=-1)
        b = np.random.default_rng(568).standard_normal(5)
        res = rrgmres_solve(LinearOperator.from_matrix(a), b, SolverConfig(epsilon=0.0),
                            keep_iterates=True)
        bnorm = np.linalg.norm(b)
        for z, (_, logged, _) in zip(res.iterates, res.log.entries[1:]):
            assert abs(logged - np.linalg.norm(a @ z - b)) <= 1e-8 * bnorm


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
