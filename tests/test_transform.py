"""Standard-form transformation: splitting, operator actions, back maps.

Dense assemblies of the transformed operator serve as oracles; the
contexts under test only ever apply operator actions.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regnear.errors import RankDeficient, ShapeMismatch
from regnear.linalg import thin_qr
from oracles import tikhonov_direct_oracle, tikhonov_minimizer_via_transform
from regnear.problems import add_noise, build_phillips, build_problem
from regnear.regops import (REGULARIZER_NAMES, Mode, RegularizerKind, regularizer_from_name,
                            stencil_product)
from regnear.solver import SolverConfig, rrgmres_solve
from regnear.transform import (LinearOperator, StandardFormContext,
                               apply_pk_dagger, back_transform,
                               factor_transform, k2_operator, prepare_context,
                               project_rhs)


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
        reg = regularizer_from_name("L1dP1", n)
        ctx = prepare_context(LinearOperator.from_matrix(np.eye(n)), b, reg)
        v = reg.basis.V[:, 0]
        (Q, W), = ctx.splits
        np.testing.assert_allclose(ctx.x0s[0], v * (v @ b), atol=1e-14)
        np.testing.assert_allclose(ctx.solver_rhs, b - v * (v @ b), atol=1e-14)
        np.testing.assert_allclose(np.abs(Q[:, 0]), np.abs(v), atol=1e-14)
        V = reg.basis.V
        np.testing.assert_allclose(W @ Q.T, V @ np.linalg.pinv(V), atol=1e-14)

    def test_empty_split(self):
        rng = np.random.default_rng(63)
        b = rng.standard_normal(4)
        reg = regularizer_from_name("I", 4)
        ctx = prepare_context(LinearOperator.from_matrix(np.eye(4)), b, reg)
        assert reg.basis.ell == 0
        assert np.array_equal(ctx.x0s[0], np.zeros(4))
        assert np.array_equal(ctx.solver_rhs, b)
        assert ctx.prepare_matvecs == 0

    @pytest.mark.parametrize("name,expected", [
        ("I", 0), ("L10", 1), ("L1dP1", 1), ("L20", 2), ("L2tP2", 2),
        ("P2L2tP2", 4),  # the second split pays the basis transform again
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

    def test_regularizer_of_another_order(self):
        reg = regularizer_from_name("L1dP1", 6)
        with pytest.raises(ShapeMismatch, match="regularizer built for n=6, operator has n=5"):
            factor_transform(LinearOperator.from_matrix(np.eye(5)), reg)

    def test_core_solve_shape_guard(self):
        reg = regularizer_from_name("L1dP1", 5)
        with pytest.raises(ShapeMismatch):
            reg.core_solve(np.ones(4))


def columns_close(block, columns, rel, scales=None):
    """Each column of block against its 1-d counterpart, to rel relative
    to that column's scale (by default its norm)."""
    for j, col in enumerate(columns):
        scale = np.linalg.norm(col) if scales is None else scales[j]
        assert np.linalg.norm(block[:, j] - col) <= rel * scale, j


class TestBlockProducts:
    """A block of s columns through each product equals s vector
    products, column by column, and counts s."""

    @pytest.mark.parametrize("name", ["phillips", "deriv2"])
    @pytest.mark.parametrize("n", [200, 400, 401])
    def test_matmat_is_matvec_by_column(self, name, n):
        # n = 200 is dense K (one GEMM); 400 and 401 are the structured
        # products (FFT, cumulative sums), down axis 0
        op = build_problem(name, n).op
        X = np.random.default_rng(n).standard_normal((n, 5))
        Y = op.matvec(X)
        assert Y.shape == (n, 5) and op.matvec_count == 5
        columns_close(Y, [op.matvec(x) for x in X.T], 1e-13)
        assert op.matvec_count == 10
        op.matvec(X[:, :1])
        assert op.matvec_count == 11

    @pytest.mark.parametrize("caller", [
        lambda f, x: f.op.matvec(x),
        lambda f, x: f.reg.core_solve(x),
        apply_pk_dagger,
        lambda f, x: stencil_product(f.reg.kind, f.shape[1], x),
    ], ids=["LinearOperator", "core_solve", "apply_pk_dagger", "stencil_product"])
    def test_operand_shape_errors(self, caller):
        # every caller of checked_operand: a vector of length n and an
        # n x s block pass, any other shape raises before a product
        factor = factor_transform(LinearOperator.from_matrix(np.eye(4)),
                                  regularizer_from_name("L2tP2", 4))
        start = factor.matvec_count
        for bad in (np.float64(1.0), np.ones((4, 2, 1)), np.ones(3), np.ones((5, 2))):
            with pytest.raises(ShapeMismatch):
                caller(factor, bad)
        assert factor.matvec_count == start
        assert caller(factor, np.ones(4)).shape[1:] == ()
        assert caller(factor, np.ones((4, 3))).shape[1:] == (3,)

    @pytest.mark.parametrize("name", REGULARIZER_NAMES)
    @pytest.mark.parametrize("problem, n", [("phillips", 200), ("deriv2", 400),
                                            ("phillips", 401)])
    def test_factor_block_product_and_back_map(self, name, problem, n):
        base = build_problem(problem, n)
        factor = factor_transform(base.op, regularizer_from_name(name, n))
        rng = np.random.default_rng(n)
        Z = rng.standard_normal((n, 4))
        start = factor.matvec_count
        Y = factor.matvec(Z)
        assert factor.matvec_count - start == 4
        # the projections cancel most of K core^-1 z, whose norm is the
        # scale that rounding works at
        scales = [np.linalg.norm(base.op.matvec(factor.reg.core_solve(z))) for z in Z.T]
        columns_close(Y, [factor.matvec(z) for z in Z.T], 1e-14, scales)

        B = base.b_hat[:, None] + rng.standard_normal((n, 4))
        ctx = project_rhs(factor, B)
        singles = [project_rhs(factor, b) for b in B.T]
        # each split's x0, and what is left of b after the last split
        for piece, columns in zip(per_b_pieces(ctx), zip(*map(per_b_pieces, singles))):
            columns_close(piece, columns, 1e-14)
        start = factor.matvec_count
        X = back_transform(ctx, Z)
        per_column = (factor.matvec_count - start) // 4
        assert factor.matvec_count - start == 4 * per_column
        xs = []
        for c, z in zip(singles, Z.T):
            before = factor.matvec_count
            xs.append(back_transform(c, z))
            assert factor.matvec_count - before == per_column
        columns_close(X, xs, 1e-13)


def per_b_pieces(ctx):
    """The null-space component of each split, then solver_rhs."""
    return (*ctx.x0s, ctx.solver_rhs)


def split_arrays(factor):
    """Q and W of each split, in order."""
    return [a for pair in factor.splits for a in pair]


def same_arrays(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def assert_same_context(ctx, ref):
    """Bit-for-bit equality of the per-b pieces and the splits."""
    assert same_arrays(per_b_pieces(ctx), per_b_pieces(ref))
    assert same_arrays(split_arrays(ctx), split_arrays(ref))
    assert ctx.prepare_matvecs == ref.prepare_matvecs


class TestFactorOnce:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1),
           name=st.sampled_from(REGULARIZER_NAMES))
    def test_factor_does_not_depend_on_rhs(self, n, seed, name):
        rng = np.random.default_rng(seed)
        K = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        reg = regularizer_from_name(name, n)
        op = LinearOperator.from_matrix(K)
        factor = factor_transform(op, reg)
        assert len(factor.splits) == (2 if reg.mode is Mode.TWO_SIDED else 1)
        factored = [a.copy() for a in split_arrays(factor)]
        for _ in range(3):
            b = rng.standard_normal(n)
            before = op.matvec_count
            ctx = project_rhs(factor, b)
            assert op.matvec_count == before
            assert_same_context(ctx, prepare_context(K, b, reg))
            # a context serves as a factor for the next right-hand side
            assert_same_context(project_rhs(ctx, -b), project_rhs(factor, -b))
        assert same_arrays(split_arrays(factor), factored)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["I", "L10"])
    def test_non_finite_rhs_rejected_before_any_product(self, name, bad):
        rng = np.random.default_rng(66)
        n = 8
        reg = regularizer_from_name(name, n)
        b = rng.standard_normal(n)
        b[3] = bad
        op = LinearOperator.from_matrix(rng.standard_normal((n, n)) + 4.0 * np.eye(n))
        with pytest.raises(ValueError, match="finite"):
            prepare_context(op, b, reg)
        assert op.matvec_count == 0
        factor = factor_transform(op, reg)
        before = op.matvec_count
        with pytest.raises(ValueError, match="finite"):
            project_rhs(factor, b)
        assert op.matvec_count == before

    def test_shared_factor_counts_every_run(self):
        # the operator's count spans every context made from one factor,
        # while each context keeps the factor's own prepare count
        rng = np.random.default_rng(67)
        n = 10
        op = LinearOperator.from_matrix(rng.standard_normal((n, n)) + 4.0 * np.eye(n))
        factor = factor_transform(op, regularizer_from_name("P2L2tP2", n))
        contexts = [project_rhs(factor, rng.standard_normal(n)) for _ in range(2)]
        for ctx in contexts:
            ctx.matvec(rng.standard_normal(n))
            assert ctx.prepare_matvecs == 4
        assert contexts[0].matvec_count == op.matvec_count == 4 + 2

    def test_each_factor_counts_its_own_products(self):
        # two factors on one operator: the products through one leave the
        # other's counts alone, and the operator counts every product
        # through either
        rng = np.random.default_rng(68)
        n = 10
        op = LinearOperator.from_matrix(rng.standard_normal((n, n)) + 4.0 * np.eye(n))
        two = factor_transform(op, regularizer_from_name("P2L2tP2", n))
        one = factor_transform(op, regularizer_from_name("L20", n))
        assert (two.matvec_count, one.matvec_count, op.matvec_count) == (4, 2, 6)
        ctx = project_rhs(two, rng.standard_normal(n))
        ctx.matvec(rng.standard_normal((n, 3)))
        back_transform(ctx, rng.standard_normal(n))  # two products in two-sided mode
        assert (ctx.matvec_count, two.matvec_count) == (9, 9)
        assert (one.matvec_count, op.matvec_count) == (2, 11)
        one.matvec(rng.standard_normal(n))
        assert (two.matvec_count, one.matvec_count, op.matvec_count) == (9, 3, 12)
        assert (two.prepare_matvecs, one.prepare_matvecs) == (4, 2)


class TestSplit:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 40), extra_rows=st.integers(0, 20),
           seed=st.integers(0, 2**32 - 1), name=st.sampled_from(REGULARIZER_NAMES))
    def test_w_maps_to_q_and_x0_fits_best(self, n, extra_rows, seed, name):
        # each split is K W = Q (K1 W = Q for the second), and
        # x0 = W Q^T b fits b at least as well as any K V c
        rng = np.random.default_rng(seed)
        m = n + extra_rows
        K = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        reg = regularizer_from_name(name, n)
        ctx = prepare_context(K, b, reg)
        V = reg.basis.V
        (Q, W), *second = ctx.splits
        assert W.shape == V.shape
        assert (np.linalg.norm(K @ W - Q)
                <= 1e-10 * max(np.linalg.norm(Q), 1.0))
        assert len(second) == (reg.mode is Mode.TWO_SIDED)
        for Q2, W2 in second:
            k1 = (K - Q @ (Q.T @ K)) @ np.linalg.inv(reg.Ltilde)
            assert (np.linalg.norm(k1 @ W2 - Q2)
                    <= 1e-10 * max(np.linalg.norm(Q2), 1.0))
        x0 = ctx.x0s[0]
        np.testing.assert_allclose(V @ (V.T @ x0), x0,
                                   atol=1e-12 * max(np.linalg.norm(x0), 1.0))
        fit = np.linalg.norm(K @ x0 - b)
        c_best = V.T @ x0
        for c in (rng.standard_normal(reg.basis.ell),
                  c_best + 1e-3 * rng.standard_normal(reg.basis.ell)):
            assert fit <= np.linalg.norm(K @ (V @ c) - b) + 1e-12 * np.linalg.norm(b)


class TestProjectedPseudoinverse:
    def test_trivial_without_split(self):
        reg = regularizer_from_name("I", 4)
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
        reg = regularizer_from_name("L1dP1", n)
        ctx = prepare_context(LinearOperator.from_matrix(K), rng.standard_normal(m),
                              reg)
        V = reg.basis.V
        pk = np.eye(n) - V @ np.linalg.pinv(K @ V) @ K
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
            assert np.max(np.abs(ctx.splits[0][0].T @ kx)) <= 1e-10 * np.linalg.norm(K)

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
    if reg.kind is RegularizerKind.IDENTITY:
        return K.copy()
    if reg.mode is Mode.PLAIN:
        core_inv = np.linalg.pinv(reg.Ltilde)
    else:
        core_inv = np.linalg.inv(reg.Ltilde)
    q = ctx.splits[0][0]
    k1 = K - q @ (q.T @ K) if reg.basis.ell else K.copy()
    m = k1 @ core_inv
    if reg.mode is not Mode.TWO_SIDED:
        return m
    q2, _ = thin_qr(m @ reg.basis.V)
    return m - q2 @ (q2.T @ m)


class TestTransformedOperator:
    def test_identity_mode_passthrough(self):
        rng = np.random.default_rng(81)
        b = rng.standard_normal(5)
        reg = regularizer_from_name("I", 5)
        ctx = prepare_context(LinearOperator.from_matrix(np.eye(5)), b, reg)
        z = rng.standard_normal(5)
        np.testing.assert_allclose(ctx.matvec(z), z, atol=1e-15)

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
            np.testing.assert_allclose(ctx.matvec(z), dense @ z,
                                       atol=1e-10 * max(scale, 1.0))

    @pytest.mark.parametrize("name", ["I", "L1dP1", "L20", "P2L2tP2"])
    def test_one_matvec_per_application(self, name):
        rng = np.random.default_rng(83)
        n = 8
        op = LinearOperator.from_matrix(rng.standard_normal((n, n)) + 3 * np.eye(n))
        ctx = prepare_context(op, rng.standard_normal(n),
                              regularizer_from_name(name, n))
        before = op.matvec_count
        ctx.matvec(rng.standard_normal(n))
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
        np.testing.assert_allclose(a.matvec(z.copy()), ctx.matvec(z), atol=1e-13)
        assert a.matvec_count == op.matvec_count

    def test_solver_rhs_selection(self):
        rng = np.random.default_rng(85)
        n = 9
        K = rng.standard_normal((n, n)) + 3 * np.eye(n)
        b = rng.standard_normal(n)
        right = prepare_context(LinearOperator.from_matrix(K), b,
                                regularizer_from_name("L2tP2", n))
        (q, _), = right.splits
        assert np.array_equal(right.solver_rhs, b - q @ (q.T @ b))
        assert len(right.x0s) == 1
        two = prepare_context(LinearOperator.from_matrix(K), b,
                              regularizer_from_name("P2L2tP2", n))
        # the second split re-projects the first one's right-hand side
        (q1, _), (q2, _) = two.splits
        b1 = b - q1 @ (q1.T @ b)
        np.testing.assert_allclose(two.solver_rhs, b1 - q2 @ (q2.T @ b1),
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
            np.testing.assert_allclose(back_transform(ctx, np.zeros(n)), ctx.x0s[0],
                                       atol=1e-14)

    def test_identity_mode_is_copy(self):
        reg = regularizer_from_name("I", 4)
        ctx = prepare_context(LinearOperator.from_matrix(np.eye(4)), np.ones(4),
                              reg)
        z = np.array([1.0, 2.0, 3.0, 4.0])
        out = back_transform(ctx, z)
        assert np.array_equal(out, z)
        out[0] = 99.0
        assert z[0] == 1.0  # caller's array untouched

    def test_unit_core_without_split(self):
        reg = regularizer_from_name("I", 3)
        ctx = prepare_context(LinearOperator.from_matrix(2.0 * np.eye(3)),
                              np.ones(3), reg)
        z = np.array([1.0, -1.0, 2.0])
        np.testing.assert_allclose(back_transform(ctx, z), z, atol=1e-15)

    @pytest.mark.parametrize("name", ["I", "L1dP1", "L2tP2", "L10", "L20",
                                      "P2L2tP2"])
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 40), extra_rows=st.integers(0, 20),
           seed=st.integers(0, 2**32 - 1))
    def test_residual_identity(self, name, n, extra_rows, seed):
        # ||K x - b|| for x = back_transform(z) equals the transformed
        # residual the solver sees, for any z, in every mode
        rng = np.random.default_rng(seed)
        m = n + extra_rows
        K = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        reg = regularizer_from_name(name, n)
        ctx = prepare_context(LinearOperator.from_matrix(K), b, reg)
        for _ in range(5):
            z = rng.standard_normal(n)
            x = back_transform(ctx, z)
            lhs = np.linalg.norm(K @ x - b)
            rhs = np.linalg.norm(ctx.matvec(z) - ctx.solver_rhs)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, rhs))

    @pytest.mark.parametrize("name", REGULARIZER_NAMES)
    def test_z_must_have_the_layout_of_the_right_hand_side(self, name):
        # a context of one b takes a vector, and one of an m x s block an
        # n x s block: an n x n block once had x0 added along its rows,
        # an n x 3 block raised numpy's broadcasting error, and a vector
        # given to a block context came back as an n x s array
        rng = np.random.default_rng(96)
        n = 6
        op = LinearOperator.from_matrix(rng.standard_normal((n, n)) + 3 * np.eye(n))
        factor = factor_transform(op, regularizer_from_name(name, n))
        one = project_rhs(factor, rng.standard_normal(n))
        block = project_rhs(factor, rng.standard_normal((n, 3)))
        before = op.matvec_count
        for ctx, z in ((one, np.ones((n, n))), (one, np.ones((n, 3))),
                       (block, np.ones(n)), (block, np.ones((n, 2)))):
            with pytest.raises(ShapeMismatch):
                back_transform(ctx, z)
        assert op.matvec_count == before
        assert back_transform(one, np.ones(n)).shape == (n,)
        assert back_transform(block, np.ones((n, 3))).shape == (n, 3)

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
        np.testing.assert_allclose(ctx_p.solver_rhs, ctx_r.solver_rhs, atol=1e-14)
        rng = np.random.default_rng(94)
        scale = np.linalg.norm(prob.K)
        for _ in range(5):
            z = rng.standard_normal(30)
            np.testing.assert_allclose(ctx_p.matvec(z), ctx_r.matvec(z),
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
        reg = regularizer_from_name("I", 3)
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
