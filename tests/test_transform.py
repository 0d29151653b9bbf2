"""Standard-form transformation: splitting, operator actions, back maps.

Dense assemblies of the transformed operator serve as oracles; the
contexts under test only ever apply operator actions.
"""
import numpy as np
import pytest

from regnear.errors import RankDeficient, ShapeMismatch, SingularCore
from regnear.linalg import thin_qr
from regnear.nearness import NullSpaceBasis
from regnear.problems import add_noise, build_phillips
from regnear.regops import (Mode, ProjectedRegularizer, RegularizerKind,
                            compose_regularizer, regularizer_from_name)
from regnear.solver import SolverConfig, rrgmres_solve, tikhonov_direct_oracle
from regnear.transform import (LinearOperator, StandardFormContext, apply_k2,
                               apply_pk_dagger, back_transform, k2_operator,
                               prepare_context,
                               tikhonov_minimizer_via_transform)


def unit_vector_reg(n, j, mode=Mode.RIGHT, core=None):
    """Regularizer whose null space is the j-th coordinate direction."""
    v = np.zeros((n, 1))
    v[j, 0] = 1.0
    basis = NullSpaceBasis(n=n, ell=1, V=v)
    return ProjectedRegularizer(n=n, Ltilde=np.eye(n) if core is None else core,
                                basis=basis, mode=mode,
                                kind=RegularizerKind.L1_DELTA)


class TestLinearOperator:
    def test_from_matrix_and_count(self):
        a = np.arange(6.0).reshape(2, 3)
        op = LinearOperator.from_matrix(a)
        assert op.shape == (2, 3)
        assert op.matvec_count == 0
        np.testing.assert_allclose(op.matvec(np.array([1.0, 0.0, 1.0])),
                                   a @ [1.0, 0.0, 1.0])
        op.matvec(np.zeros(3))
        assert op.matvec_count == 2

    def test_linearity(self):
        rng = np.random.default_rng(61)
        a = rng.standard_normal((5, 4))
        op = LinearOperator.from_matrix(a)
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        lhs = op.matvec(2.0 * u - 3.0 * v)
        rhs = 2.0 * op.matvec(u) - 3.0 * op.matvec(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)

    def test_shape_errors(self):
        op = LinearOperator.from_matrix(np.eye(3))
        with pytest.raises(ShapeMismatch):
            op.matvec(np.ones(4))
        with pytest.raises(ShapeMismatch):
            LinearOperator((0, 3), lambda v: v)
        with pytest.raises(ShapeMismatch):
            LinearOperator.from_matrix(np.ones(3))


class TestPrepare:
    def test_identity_operator_unit_basis(self):
        # K = I: the split reduces to plain orthogonal projection onto v
        rng = np.random.default_rng(62)
        n = 5
        b = rng.standard_normal(n)
        reg = unit_vector_reg(n, 2)
        ctx = prepare_context(LinearOperator.from_matrix(np.eye(n)), b, reg)
        v = reg.basis.V[:, 0]
        np.testing.assert_allclose(ctx.x0, v * (v @ b), atol=1e-14)
        np.testing.assert_allclose(ctx.b1, b - v * (v @ b), atol=1e-14)
        np.testing.assert_allclose(np.abs(ctx.Q[:, 0]), np.abs(v), atol=1e-14)
        np.testing.assert_allclose(ctx.R, [[1.0]], atol=1e-14)

    def test_empty_split(self):
        rng = np.random.default_rng(63)
        b = rng.standard_normal(4)
        reg = compose_regularizer(RegularizerKind.IDENTITY, 4, Mode.IDENTITY)
        ctx = prepare_context(LinearOperator.from_matrix(np.eye(4)), b, reg)
        assert ctx.ell == 0
        assert np.array_equal(ctx.x0, np.zeros(4))
        assert np.array_equal(ctx.b1, b)
        assert ctx.prepare_matvecs == 0

    @pytest.mark.parametrize("name,expected", [
        ("I", 0), ("L10", 1), ("L1dP1", 1), ("L20", 2), ("L2tP2", 2),
        ("P2L2tP2", 4),  # nested split pays the basis transform twice
    ])
    def test_prepare_matvec_cost(self, name, expected):
        rng = np.random.default_rng(64)
        n = 9
        K = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal(n)
        op = LinearOperator.from_matrix(K)
        ctx = prepare_context(op, b, regularizer_from_name(name, n))
        assert ctx.prepare_matvecs == expected
        assert op.matvec_count == expected

    def test_violated_null_condition(self):
        # constant vectors sit in the null space of both the operator and
        # the regularizer, so the split has nothing of KV to factor; the
        # integer difference rows cancel the basis exactly in floating point
        n = 6
        reg = regularizer_from_name("L1dP1", n)
        K = np.zeros((n, n))
        idx = np.arange(n - 1)
        K[idx, idx] = 1.0
        K[idx, idx + 1] = -1.0
        with pytest.raises(RankDeficient):
            prepare_context(LinearOperator.from_matrix(K), np.ones(n), reg)

    def test_shape_guards(self):
        reg = regularizer_from_name("L1dP1", 5)
        with pytest.raises(ShapeMismatch):
            prepare_context(LinearOperator.from_matrix(np.eye(5)), np.ones(4), reg)
        with pytest.raises(ShapeMismatch):
            prepare_context(LinearOperator.from_matrix(np.eye(6)), np.ones(6), reg)

    def test_singular_core_rejected(self):
        core = np.eye(5)
        core[2, 2] = 0.0
        with pytest.raises(SingularCore):
            unit_vector_reg(5, 0, core=core)

    def test_singular_core_with_nonzero_diagonal_rejected(self):
        # the diagonal alone looks healthy; elimination exposes the
        # dependent rows of the leading 2 x 2 block of ones
        core = np.eye(5)
        core[:2, :2] = 1.0
        with pytest.raises(SingularCore):
            unit_vector_reg(5, 0, core=core)
        with pytest.raises(SingularCore):
            unit_vector_reg(5, 0, core=core + 1e-15 * np.eye(5))

    def test_core_solve_shape_guard(self):
        reg = regularizer_from_name("L1dP1", 5)
        ctx = prepare_context(LinearOperator.from_matrix(np.eye(5) * 2.0),
                              np.ones(5), reg)
        with pytest.raises(ShapeMismatch):
            ctx.core_solve(np.ones(4))


class TestProjectedPseudoinverse:
    def test_trivial_without_split(self):
        reg = compose_regularizer(RegularizerKind.IDENTITY, 4, Mode.IDENTITY)
        op = LinearOperator.from_matrix(np.eye(4))
        ctx = prepare_context(op, np.ones(4), reg)
        before = op.matvec_count
        w = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(apply_pk_dagger(ctx, w), w)
        assert op.matvec_count == before  # no product with K

    def test_dense_assembly_oracle(self):
        rng = np.random.default_rng(71)
        m, n = 9, 7
        K = rng.standard_normal((m, n))
        reg = unit_vector_reg(n, 3)
        ctx = prepare_context(LinearOperator.from_matrix(K), rng.standard_normal(m),
                              reg)
        V = reg.basis.V
        pk = np.eye(n) - V @ np.linalg.solve(ctx.R, ctx.Q.T @ K)
        for _ in range(5):
            w = rng.standard_normal(n)
            np.testing.assert_allclose(apply_pk_dagger(ctx, w), pk @ w, atol=1e-12)

    def test_range_restriction(self):
        # K applied after the oblique projector lands outside range(Q)
        rng = np.random.default_rng(72)
        n = 8
        K = rng.standard_normal((n, n))
        reg = regularizer_from_name("L2tP2", n)
        ctx = prepare_context(LinearOperator.from_matrix(K), rng.standard_normal(n),
                              reg)
        for _ in range(20):
            w = rng.standard_normal(n)
            kx = K @ apply_pk_dagger(ctx, w)
            assert np.max(np.abs(ctx.Q.T @ kx)) <= 1e-10 * np.linalg.norm(K)

    def test_annihilates_basis_direction(self):
        rng = np.random.default_rng(73)
        n = 7
        K = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        reg = regularizer_from_name("L1dP1", n)
        ctx = prepare_context(LinearOperator.from_matrix(K), rng.standard_normal(n),
                              reg)
        w = reg.basis.V[:, 0]
        out = apply_pk_dagger(ctx, w)
        assert np.linalg.norm(K @ out) <= 1e-10 * np.linalg.norm(K)

    def test_costs_one_matvec(self):
        rng = np.random.default_rng(74)
        n = 6
        op = LinearOperator.from_matrix(rng.standard_normal((n, n)) + 3 * np.eye(n))
        ctx = prepare_context(op, rng.standard_normal(n),
                              regularizer_from_name("L1dP1", n))
        before = op.matvec_count
        apply_pk_dagger(ctx, rng.standard_normal(n))
        assert op.matvec_count == before + 1


def assemble_k2(K, ctx, reg):
    """Dense reference for the transformed operator, mode by mode."""
    n = K.shape[1]
    if reg.mode is Mode.IDENTITY:
        return K.copy()
    if reg.mode is Mode.PLAIN:
        core_inv = np.linalg.pinv(reg.Ltilde)
    else:
        core_inv = np.linalg.inv(reg.Ltilde)
    k1 = K - ctx.Q @ (ctx.Q.T @ K) if ctx.ell else K.copy()
    m = k1 @ core_inv
    if reg.mode is not Mode.TWO_SIDED:
        return m
    q2, _ = thin_qr(m @ reg.basis.V)
    return m - q2 @ (q2.T @ m)


class TestTransformedOperator:
    def test_identity_mode_passthrough(self):
        rng = np.random.default_rng(81)
        b = rng.standard_normal(5)
        reg = compose_regularizer(RegularizerKind.IDENTITY, 5, Mode.IDENTITY)
        ctx = prepare_context(LinearOperator.from_matrix(np.eye(5)), b, reg)
        z = rng.standard_normal(5)
        np.testing.assert_allclose(apply_k2(ctx, z), z, atol=1e-15)

    def test_scalar_core_halves(self):
        # K = I, core 2I, no null space: the action is z/2
        n = 4
        reg = ProjectedRegularizer(n=n, Ltilde=2.0 * np.eye(n),
                                   basis=NullSpaceBasis.empty(n),
                                   mode=Mode.RIGHT,
                                   kind=RegularizerKind.L1_DELTA)
        ctx = prepare_context(LinearOperator.from_matrix(np.eye(n)), np.ones(n),
                              reg)
        z = np.array([2.0, -4.0, 6.0, 0.0])
        np.testing.assert_allclose(apply_k2(ctx, z), z / 2.0, atol=1e-15)

    @pytest.mark.parametrize("name", ["L1dP1", "L2tP2", "L10", "L20", "P2L2tP2"])
    def test_dense_assembly_oracle(self, name):
        rng = np.random.default_rng(82)
        m, n = 14, 11
        K = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        reg = regularizer_from_name(name, n)
        ctx = prepare_context(LinearOperator.from_matrix(K), b, reg)
        dense = assemble_k2(K, ctx, reg)
        scale = np.linalg.norm(dense)
        for _ in range(10):
            z = rng.standard_normal(n)
            np.testing.assert_allclose(apply_k2(ctx, z), dense @ z,
                                       atol=1e-10 * max(scale, 1.0))

    @pytest.mark.parametrize("name", ["I", "L1dP1", "L20", "P2L2tP2"])
    def test_one_matvec_per_application(self, name):
        rng = np.random.default_rng(83)
        n = 8
        op = LinearOperator.from_matrix(rng.standard_normal((n, n)) + 3 * np.eye(n))
        ctx = prepare_context(op, rng.standard_normal(n),
                              regularizer_from_name(name, n))
        before = op.matvec_count
        apply_k2(ctx, rng.standard_normal(n))
        assert op.matvec_count == before + 1

    def test_operator_adapter(self):
        rng = np.random.default_rng(84)
        n = 6
        op = LinearOperator.from_matrix(rng.standard_normal((n, n)) + 3 * np.eye(n))
        ctx = prepare_context(op, rng.standard_normal(n),
                              regularizer_from_name("L1dP1", n))
        a = k2_operator(ctx)
        assert a.shape == (n, n)
        z = rng.standard_normal(n)
        np.testing.assert_allclose(a.matvec(z.copy()), apply_k2(ctx, z), atol=1e-13)
        assert a.matvec_count == op.matvec_count

    def test_solver_rhs_selection(self):
        rng = np.random.default_rng(85)
        n = 9
        K = rng.standard_normal((n, n)) + 3 * np.eye(n)
        b = rng.standard_normal(n)
        right = prepare_context(LinearOperator.from_matrix(K), b,
                                regularizer_from_name("L2tP2", n))
        assert np.array_equal(right.solver_rhs, right.b1)
        nested = prepare_context(LinearOperator.from_matrix(K), b,
                                 regularizer_from_name("P2L2tP2", n))
        assert nested.inner is not None
        assert np.array_equal(nested.solver_rhs, nested.inner.b1)
        # the nested right-hand side re-projects the outer one
        q2 = nested.inner.Q
        np.testing.assert_allclose(nested.solver_rhs,
                                   nested.b1 - q2 @ (q2.T @ nested.b1),
                                   atol=1e-12)


class TestBackTransform:
    def test_zero_gives_exact_fit_component(self):
        rng = np.random.default_rng(91)
        n = 8
        K = rng.standard_normal((n, n)) + 3 * np.eye(n)
        b = rng.standard_normal(n)
        for name in ("L1dP1", "L10"):
            ctx = prepare_context(LinearOperator.from_matrix(K), b,
                                  regularizer_from_name(name, n))
            np.testing.assert_allclose(back_transform(ctx, np.zeros(n)), ctx.x0,
                                       atol=1e-14)

    def test_identity_mode_is_copy(self):
        reg = compose_regularizer(RegularizerKind.IDENTITY, 4, Mode.IDENTITY)
        ctx = prepare_context(LinearOperator.from_matrix(np.eye(4)), np.ones(4),
                              reg)
        z = np.array([1.0, 2.0, 3.0, 4.0])
        out = back_transform(ctx, z)
        assert np.array_equal(out, z)
        out[0] = 99.0
        assert z[0] == 1.0  # caller's array untouched

    def test_unit_core_without_split(self):
        reg = ProjectedRegularizer(n=3, Ltilde=np.eye(3),
                                   basis=NullSpaceBasis.empty(3),
                                   mode=Mode.RIGHT,
                                   kind=RegularizerKind.L1_DELTA)
        ctx = prepare_context(LinearOperator.from_matrix(2.0 * np.eye(3)),
                              np.ones(3), reg)
        z = np.array([1.0, -1.0, 2.0])
        np.testing.assert_allclose(back_transform(ctx, z), z, atol=1e-15)

    @pytest.mark.parametrize("name", ["I", "L1dP1", "L2tP2", "L10", "L20",
                                      "P2L2tP2"])
    def test_residual_identity(self, name):
        # ||K x - b|| for x = back_transform(z) equals the transformed
        # residual the solver sees, for any z, in every mode
        rng = np.random.default_rng(92)
        m, n = 13, 10
        K = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        reg = regularizer_from_name(name, n)
        ctx = prepare_context(LinearOperator.from_matrix(K), b, reg)
        for _ in range(5):
            z = rng.standard_normal(n)
            x = back_transform(ctx, z)
            lhs = np.linalg.norm(K @ x - b)
            rhs = np.linalg.norm(apply_k2(ctx, z) - ctx.solver_rhs)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, rhs))

    @pytest.mark.parametrize("name,cost", [("I", 0), ("L1dP1", 1), ("L10", 1),
                                           ("P2L2tP2", 2)])
    def test_back_matvec_cost(self, name, cost):
        rng = np.random.default_rng(93)
        n = 8
        op = LinearOperator.from_matrix(rng.standard_normal((n, n)) + 3 * np.eye(n))
        ctx = prepare_context(op, rng.standard_normal(n),
                              regularizer_from_name(name, n))
        before = op.matvec_count
        back_transform(ctx, rng.standard_normal(n))
        assert op.matvec_count == before + cost


class TestSquareSingularCoincidence:
    """The plain square regularizers act identically to their invertible
    right-projected counterparts: the core solves differ only by a
    null-space vector, which the downstream projector kills."""

    @pytest.mark.parametrize("plain,invertible", [("L10", "L1dP1"),
                                                  ("L20", "L2tP2")])
    def test_operator_and_back_map_agree(self, plain, invertible):
        prob = add_noise(build_phillips(30), 1e-2, seed=3)
        ctx_p = prepare_context(LinearOperator.from_matrix(prob.K), prob.b,
                                regularizer_from_name(plain, 30))
        ctx_r = prepare_context(LinearOperator.from_matrix(prob.K), prob.b,
                                regularizer_from_name(invertible, 30))
        np.testing.assert_allclose(ctx_p.b1, ctx_r.b1, atol=1e-14)
        rng = np.random.default_rng(94)
        scale = np.linalg.norm(prob.K)
        for _ in range(5):
            z = rng.standard_normal(30)
            np.testing.assert_allclose(apply_k2(ctx_p, z), apply_k2(ctx_r, z),
                                       atol=1e-10 * scale)
            np.testing.assert_allclose(back_transform(ctx_p, z),
                                       back_transform(ctx_r, z),
                                       atol=1e-9 * max(np.linalg.norm(z), 1.0))


class TestPenalizedEquivalence:
    def test_rejects_nonpositive_mu(self):
        reg = regularizer_from_name("L1dP1", 5)
        with pytest.raises(ValueError):
            tikhonov_minimizer_via_transform(np.eye(5), np.ones(5), reg, 0.0)

    def test_identity_mode_closed_form(self):
        b = np.array([2.0, -4.0, 6.0])
        reg = compose_regularizer(RegularizerKind.IDENTITY, 3, Mode.IDENTITY)
        x = tikhonov_minimizer_via_transform(np.eye(3), b, reg, 1.0)
        np.testing.assert_allclose(x, b / 2.0, atol=1e-12)

    @pytest.mark.parametrize("name", ["L1dP1", "L2tP2", "P2L2tP2", "L10", "L20"])
    @pytest.mark.parametrize("mu", [1e-2, 1.0])
    def test_matches_direct_normal_equations(self, name, mu):
        rng = np.random.default_rng(95)
        n = 12
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        K = u @ np.diag(np.logspace(0, -5, n)) @ v.T
        b = rng.standard_normal(n)
        reg = regularizer_from_name(name, n)
        x_direct = tikhonov_direct_oracle(K, reg.effective_matrix(), b, mu)
        x_trans = tikhonov_minimizer_via_transform(K, b, reg, mu)
        err = np.linalg.norm(x_trans - x_direct) / np.linalg.norm(x_direct)
        assert err <= 1e-8


class TestEndToEndCounting:
    def test_right_mode_totals(self):
        # one split product, k+1 inside the solver, one on the way back
        prob = add_noise(build_phillips(20), 1e-2, seed=1)
        op = LinearOperator.from_matrix(prob.K)
        ctx = prepare_context(op, prob.b, regularizer_from_name("L1dP1", 20))
        cfg = SolverConfig(epsilon=prob.epsilon, max_iter=3)
        res = rrgmres_solve(k2_operator(ctx), ctx.solver_rhs, cfg)
        back_transform(ctx, res.z)
        assert ctx.prepare_matvecs == 1
        assert res.solve_matvecs == res.k + 1
        assert op.matvec_count == res.k + 3
