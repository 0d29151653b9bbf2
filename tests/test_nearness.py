"""Nearest-matrix operations under a prescribed null space.

The closed-form answers frozen here were computed by hand from the
projector formulas; the property tests check optimality directly against
random feasible competitors.
"""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regnear.errors import (BadDimension, NotSymmetric, OutOfRange, RankDeficient,
                            ShapeMismatch)
from regnear.linalg import frobenius_norm, scale_exponents
from regnear.nearness import (_LARGE, NullSpaceBasis, distance_from_products,
                              nearest_symmetric_with_nullspace,
                              nearest_with_nullspace, nearness_distance)
from oracles import (DependentVectors, build_projector, make_projector_closed,
                     nearest_two_vector)
from regnear.regops import (RegularizerKind, make_nullspace_basis,
                            make_regularization_matrix, stencil_product)


# both symmetric-variant entry points share one square-and-symmetric check
SYMMETRIC_OPS = (nearest_symmetric_with_nullspace,
                 lambda a, basis: nearness_distance(a, basis, symmetric=True))
SYMMETRIC_IDS = ("nearest", "distance")


def random_basis(rng, n, ell):
    q, _ = np.linalg.qr(rng.standard_normal((n, ell)))
    return NullSpaceBasis(q)


class TestNullSpaceBasis:
    def test_empty(self):
        b = NullSpaceBasis.empty(5)
        assert b.ell == 0 and b.V.shape == (5, 0)

    def test_from_vectors_orthonormalizes(self):
        raw = np.column_stack([np.ones(4), np.arange(4.0)])
        b = NullSpaceBasis.from_vectors(raw)
        np.testing.assert_allclose(b.V.T @ b.V, np.eye(2), atol=1e-12)
        # raw span must be reproducible from V
        np.testing.assert_allclose(b.V @ (b.V.T @ raw), raw, atol=1e-12)

    def test_from_vectors_dependent(self):
        raw = np.column_stack([np.ones(4), 2.0 * np.ones(4)])
        with pytest.raises(RankDeficient):
            NullSpaceBasis.from_vectors(raw)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(RankDeficient):
            NullSpaceBasis(np.ones((3, 1)))

    def test_rejects_full_space(self):
        with pytest.raises(BadDimension):
            NullSpaceBasis(np.eye(2))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeMismatch, match="2-d"):
            NullSpaceBasis(np.ones(4) / 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite(self, bad):
        # a NaN compares false with the orthonormality tolerance, and an
        # inf is not a reason to read the columns as dependent
        V = np.ones((3, 1)) / np.sqrt(3.0)
        V[0, 0] = bad
        with pytest.raises(ValueError, match="basis contains non-finite entries"):
            NullSpaceBasis(V)

    def test_entries_whose_squares_overflow_are_not_orthonormal(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for V in ([[1.7e308], [0.0]], [[1e200, 1e200], [1e200, -1e200], [0.0, 0.0]]):
                with pytest.raises(RankDeficient, match="orthonormal"):
                    NullSpaceBasis(np.array(V))

    def test_empty_rejects_a_negative_order(self):
        with pytest.raises(BadDimension, match="-1"):
            NullSpaceBasis.empty(-1)

    def test_from_vectors_rejects_three_dimensions(self):
        with pytest.raises(ShapeMismatch, match="2-d"):
            NullSpaceBasis.from_vectors(np.ones((3, 1, 1)))
        with pytest.raises(ShapeMismatch, match="2-d"):
            NullSpaceBasis.from_vectors(np.float64(1.0))

    def test_from_vectors_reads_a_vector_as_one_column(self):
        # as build_projector reads it: the constants, not a 1 x 5 row
        b = NullSpaceBasis.from_vectors(np.ones(5))
        np.testing.assert_allclose(b.V, make_nullspace_basis("N1", 5).V, rtol=0, atol=1e-15)

    def test_vectors_near_the_float_maximum(self):
        # vectors with an entry near the float maximum are orthonormalized
        # scaled by one power of two: a column of two 1.7e308, whose norm
        # overflowed, read as dependent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = NullSpaceBasis.from_vectors([[1.7e308], [1.7e308], [0.0]])
            mixed = NullSpaceBasis.from_vectors([[1e300, 1.0], [1.0, 1.7e308], [0.0, 1.0]])
        np.testing.assert_allclose(np.abs(pair.V[:, 0]), [2 ** -0.5, 2 ** -0.5, 0.0],
                                   rtol=1e-15)
        np.testing.assert_allclose(np.abs(mixed.V.T @ mixed.V), np.eye(2), atol=1e-15)
        # the unit vectors along the two columns lie in span(V)
        for col in (np.array([1.0, 1e-300, 0.0]), np.array([1e-308, 1.0, 1e-308])):
            np.testing.assert_allclose(mixed.V @ (mixed.V.T @ col), col, atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 400), data=st.data())
    def test_from_vectors_keeps_the_span_of_its_input(self, n, data):
        # Householder QR leaves its input in span(Q) to rounding, so
        # thin_qr is the one check a basis needs: either it finds the
        # columns dependent, or they lie in span(V).  Columns are drawn
        # dependent to within 1e-13 and scaled by up to 10^300 either way
        ell = data.draw(st.integers(1, min(n - 1, 5)), label="ell")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        raw = rng.standard_normal((n, ell))
        for j in range(1, ell):
            gap = data.draw(st.sampled_from([None, 0.0, 1e-16, 1e-15, 1e-14, 1e-13]))
            if gap is not None:
                raw[:, j] = raw[:, :j] @ rng.standard_normal(j) + gap * rng.standard_normal(n)
        powers = data.draw(st.lists(st.integers(-300, 300), min_size=ell, max_size=ell))
        raw = raw * 10.0 ** np.array(powers, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                V = NullSpaceBasis.from_vectors(raw).V
            except RankDeficient as exc:
                assert str(exc) == "input columns are numerically dependent"
                return
            r = np.ldexp(raw, -scale_exponents(raw, _LARGE))
            assert frobenius_norm(r - V @ (V.T @ r)) <= 1e-10 * frobenius_norm(r)


class TestBuildProjector:
    def test_ones_n2(self):
        p = build_projector(np.ones(2))
        np.testing.assert_allclose(p, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_empty_gives_identity(self):
        assert np.array_equal(build_projector(np.zeros((4, 0))), np.eye(4))

    def test_two_column_non_orthonormal(self):
        # complement of span{ones, [1,2,3]} is span{[1,-2,1]}
        v = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        expected = np.array([[1.0, -2.0, 1.0],
                             [-2.0, 4.0, -2.0],
                             [1.0, -2.0, 1.0]]) / 6.0
        np.testing.assert_allclose(build_projector(v), expected, atol=1e-14)

    def test_projector_invariants(self):
        rng = np.random.default_rng(14)
        for n, ell in ((5, 1), (8, 2), (9, 3)):
            v = rng.standard_normal((n, ell))
            p = build_projector(v)
            np.testing.assert_allclose(p, p.T, atol=1e-12 * n)
            np.testing.assert_allclose(p @ p, p, atol=1e-10 * n)
            assert np.max(np.abs(p @ v)) <= 1e-10

    def test_dependent_columns(self):
        v = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(RankDeficient):
            build_projector(v)

    def test_too_many_columns(self):
        with pytest.raises(ShapeMismatch):
            build_projector(np.ones((2, 3)))


def l1_delta_matrix(n, delta):
    a = np.zeros((n, n))
    idx = np.arange(n - 1)
    a[idx, idx] = 0.5
    a[idx, idx + 1] = -0.5
    a[n - 1, n - 1] = delta / 2.0
    return a


def l2_tilde_matrix(n):
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = 0.5
    a[idx[:-1], idx[:-1] + 1] = -0.25
    a[idx[1:], idx[1:] - 1] = -0.25
    return a


class TestNearestWithNullspace:
    def test_fixed_point_when_already_feasible(self):
        rng = np.random.default_rng(21)
        basis = random_basis(rng, 6, 2)
        a = rng.standard_normal((4, 6))
        feasible = a - (a @ basis.V) @ basis.V.T
        out = nearest_with_nullspace(feasible, basis)
        np.testing.assert_allclose(out, feasible, atol=1e-13)

    def test_first_difference_last_row(self):
        # constants null space touches only the corner row: it becomes
        # (1/2) [-d/n, ..., -d/n, (1-1/n) d]
        for n, delta in ((5, 1.0), (9, 0.1)):
            a = l1_delta_matrix(n, delta)
            basis = NullSpaceBasis(np.ones((n, 1)) / np.sqrt(n))
            ahat = nearest_with_nullspace(a, basis)
            np.testing.assert_allclose(ahat[:-1], a[:-1], atol=1e-15)
            expected_last = np.full(n, -delta / n / 2.0)
            expected_last[-1] = (1.0 - 1.0 / n) * delta / 2.0
            np.testing.assert_allclose(ahat[-1], expected_last, atol=1e-15)

    def test_row_demeaning(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((3, 3))
        basis = NullSpaceBasis(np.ones((3, 1)) / np.sqrt(3.0))
        ahat = nearest_with_nullspace(a, basis)
        np.testing.assert_allclose(ahat, a - a.mean(axis=1, keepdims=True),
                                   atol=1e-14)

    def test_annihilation_and_idempotence(self):
        rng = np.random.default_rng(23)
        basis = random_basis(rng, 7, 2)
        a = rng.standard_normal((5, 7))
        ahat = nearest_with_nullspace(a, basis)
        assert np.max(np.abs(ahat @ basis.V)) <= 1e-10 * frobenius_norm(a)
        np.testing.assert_allclose(nearest_with_nullspace(ahat, basis), ahat,
                                   atol=1e-12)

    def test_residual_orthogonality_and_optimality(self):
        rng = np.random.default_rng(24)
        basis = random_basis(rng, 6, 2)
        p = build_projector(basis.V)
        a = rng.standard_normal((4, 6))
        ahat = nearest_with_nullspace(a, basis)
        d = frobenius_norm(a - ahat)
        for _ in range(50):
            b = rng.standard_normal((4, 6)) @ p
            ip = np.vdot(a - ahat, b)
            assert abs(ip) <= 1e-9 * max(frobenius_norm(a) * frobenius_norm(b), 1.0)
            assert d <= frobenius_norm(a - b) + 1e-12

    def test_shape_error(self):
        basis = NullSpaceBasis(np.ones((3, 1)) / np.sqrt(3.0))
        with pytest.raises(ShapeMismatch):
            nearest_with_nullspace(np.ones((2, 4)), basis)

    @pytest.mark.parametrize("op", [nearest_with_nullspace, nearness_distance],
                             ids=["nearest", "distance"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, op, bad):
        # neither a NaN result nor a RuntimeWarning from a - (a V) V^T:
        # the matrix is refused at the boundary
        a = np.eye(3)
        a[1, 2] = bad
        basis = NullSpaceBasis(np.ones((3, 1)) / np.sqrt(3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix contains non-finite entries"):
                op(a, basis)

    @pytest.mark.parametrize("op", [nearest_with_nullspace, nearness_distance,
                                    *SYMMETRIC_OPS],
                             ids=["nearest", "distance", *(f"symmetric-{i}" for i in SYMMETRIC_IDS)])
    def test_rejects_a_vector(self, op):
        basis = NullSpaceBasis(np.ones((3, 1)) / np.sqrt(3.0))
        with pytest.raises(ShapeMismatch, match="expected a matrix"):
            op(np.ones(3), basis)


class TestNearestTwoVector:
    def test_coordinate_pair_zeroes_columns(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 5))
        e1 = np.eye(5)[:, 0]
        e2 = np.eye(5)[:, 1]
        ahat = nearest_two_vector(a, e1, e2)
        assert np.max(np.abs(ahat[:, :2])) <= 1e-14
        np.testing.assert_allclose(ahat[:, 2:], a[:, 2:], atol=1e-14)

    def test_agrees_with_orthonormalized_route(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal((4, 4))
        v1 = np.array([1.0, 0.0, 1.0, 0.0])
        v2 = np.array([1.0, 1.0, 0.0, 0.0])
        via_formula = nearest_two_vector(a, v1, v2)
        via_projector = a @ build_projector(np.column_stack([v1, v2]))
        np.testing.assert_allclose(via_formula, via_projector, atol=1e-12)
        basis = NullSpaceBasis.from_vectors(np.column_stack([v1, v2]))
        np.testing.assert_allclose(via_formula, nearest_with_nullspace(a, basis),
                                   atol=1e-12)

    def test_tridiagonal_with_affine_nullspace(self):
        n = 8
        a = l2_tilde_matrix(n)
        ahat = nearest_two_vector(a, np.ones(n), np.arange(1.0, n + 1.0))
        assert np.max(np.abs(ahat @ np.ones(n))) <= 1e-12
        assert np.max(np.abs(ahat @ np.arange(1.0, n + 1.0))) <= 1e-11

    def test_dependent_vectors(self):
        with pytest.raises(DependentVectors):
            nearest_two_vector(np.eye(3), np.ones(3), 2.0 * np.ones(3))

    def test_shape_error(self):
        with pytest.raises(ShapeMismatch):
            nearest_two_vector(np.eye(3), np.ones(3), np.ones(4))


class TestNearestSymmetric:
    def test_fixed_point(self):
        rng = np.random.default_rng(41)
        basis = random_basis(rng, 5, 1)
        p = build_projector(basis.V)
        s = rng.standard_normal((5, 5))
        a = p @ (s + s.T) @ p
        np.testing.assert_allclose(nearest_symmetric_with_nullspace(a, basis), a,
                                   atol=1e-12)

    def test_last_coordinate_basis_zeroes_row_and_column(self):
        rng = np.random.default_rng(42)
        s = rng.standard_normal((4, 4))
        a = s + s.T
        basis = NullSpaceBasis(np.eye(4)[:, 3:])
        ahat = nearest_symmetric_with_nullspace(a, basis)
        assert np.max(np.abs(ahat[3, :])) <= 1e-14
        assert np.max(np.abs(ahat[:, 3])) <= 1e-14
        np.testing.assert_allclose(ahat[:3, :3], a[:3, :3], atol=1e-14)

    def test_equals_projector_sandwich(self):
        rng = np.random.default_rng(43)
        basis = random_basis(rng, 6, 2)
        p = build_projector(basis.V)
        s = rng.standard_normal((6, 6))
        a = s + s.T
        np.testing.assert_allclose(nearest_symmetric_with_nullspace(a, basis),
                                   p @ a @ p, atol=1e-12)

    def test_result_is_symmetric_and_annihilates(self):
        rng = np.random.default_rng(44)
        basis = random_basis(rng, 7, 2)
        s = rng.standard_normal((7, 7))
        a = s + s.T
        ahat = nearest_symmetric_with_nullspace(a, basis)
        np.testing.assert_allclose(ahat, ahat.T, atol=1e-12)
        assert np.max(np.abs(ahat @ basis.V)) <= 1e-10

    def test_optimality_among_symmetric_feasible(self):
        rng = np.random.default_rng(45)
        basis = random_basis(rng, 5, 1)
        p = build_projector(basis.V)
        s = rng.standard_normal((5, 5))
        a = s + s.T
        ahat = nearest_symmetric_with_nullspace(a, basis)
        d = frobenius_norm(a - ahat)
        for _ in range(50):
            m = rng.standard_normal((5, 5))
            b = p @ (m + m.T) @ p
            assert abs(np.vdot(a - ahat, b)) <= 1e-9 * max(
                frobenius_norm(a) * frobenius_norm(b), 1.0)
            assert d <= frobenius_norm(a - b) + 1e-12

    @pytest.mark.parametrize("symmetric_op", SYMMETRIC_OPS, ids=SYMMETRIC_IDS)
    def test_rejects_asymmetric(self, symmetric_op):
        basis = NullSpaceBasis(np.ones((3, 1)) / np.sqrt(3.0))
        with pytest.raises(NotSymmetric):
            symmetric_op(np.triu(np.ones((3, 3))), basis)

    @pytest.mark.parametrize("symmetric_op", SYMMETRIC_OPS, ids=SYMMETRIC_IDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite(self, symmetric_op, bad):
        # one bad entry in an asymmetric matrix: a NaN makes every norm
        # NaN, an inf makes the scale infinite, and neither may pass as
        # symmetric.  Both are refused as non-finite, before symmetry is
        # read, as by the plain variant
        a = np.triu(np.ones((3, 3)))
        a[0, 1] = bad
        basis = NullSpaceBasis(np.ones((3, 1)) / np.sqrt(3.0))
        with pytest.raises(ValueError, match="non-finite"):
            symmetric_op(a, basis)

    @pytest.mark.parametrize("symmetric_op", SYMMETRIC_OPS, ids=SYMMETRIC_IDS)
    def test_rejects_a_tiny_asymmetry(self, symmetric_op):
        # the squares of a - a^T underflow to 0 unscaled: a is read in
        # the scale where they do not
        a = np.zeros((3, 3))
        a[0, 1] = 1e-301
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSymmetric):
                symmetric_op(a, NullSpaceBasis(np.ones((3, 1)) / np.sqrt(3.0)))

    @pytest.mark.parametrize("symmetric_op", SYMMETRIC_OPS, ids=SYMMETRIC_IDS)
    def test_rejects_rectangular(self, symmetric_op):
        basis = NullSpaceBasis(np.ones((3, 1)) / np.sqrt(3.0))
        with pytest.raises(ShapeMismatch):
            symmetric_op(np.ones((2, 3)), basis)


class TestNearnessDistance:
    def test_first_difference_closed_form(self):
        for n, delta in ((10, 1.0), (25, 0.1)):
            a = l1_delta_matrix(n, delta)
            basis = NullSpaceBasis(np.ones((n, 1)) / np.sqrt(n))
            assert nearness_distance(a, basis) == pytest.approx(
                delta / (2.0 * np.sqrt(n)), rel=1e-12)

    def test_zero_for_feasible(self):
        rng = np.random.default_rng(51)
        basis = random_basis(rng, 5, 2)
        a = rng.standard_normal((4, 5))
        feasible = nearest_with_nullspace(a, basis)
        assert nearness_distance(feasible, basis) <= 1e-12

    def test_matches_explicit_subtraction(self):
        rng = np.random.default_rng(52)
        for n in (4, 9):
            a = l2_tilde_matrix(n)
            basis = NullSpaceBasis.from_vectors(
                np.column_stack([np.ones(n), np.arange(1.0, n + 1.0)]))
            d_sym = nearness_distance(a, basis, symmetric=True)
            p = build_projector(basis.V)
            assert d_sym == pytest.approx(frobenius_norm(a - p @ a @ p), abs=1e-12)
            d_gen = nearness_distance(a, basis)
            assert d_gen == pytest.approx(
                frobenius_norm(a - nearest_with_nullspace(a, basis)), abs=1e-12)
            # right projection can only do better than the sandwich
            assert d_gen < d_sym

    def test_empty_basis(self):
        assert nearness_distance(np.eye(3), NullSpaceBasis.empty(3)) == 0.0

    @pytest.mark.parametrize("symmetric_op", SYMMETRIC_OPS, ids=SYMMETRIC_IDS)
    @pytest.mark.parametrize("bad, error", [(0.5, NotSymmetric), (np.nan, ValueError)],
                             ids=["asymmetric", "nan"])
    def test_empty_basis_still_checks_symmetry(self, symmetric_op, bad, error):
        # an empty basis leaves nothing to project, but the symmetric
        # variant must still refuse what it would refuse with a basis
        a = np.eye(3)
        a[0, 1] = bad
        with pytest.raises(error):
            symmetric_op(a, NullSpaceBasis.empty(3))

    def test_a_zero_product_beside_a_tiny_one_is_scaled(self):
        # a V is exactly 0 and a^T V is 2**-600, whose square underflows:
        # both products take the exponent of their joint largest entry
        a = np.zeros((3, 3))
        a[0, 0], a[2, 0] = 1.0, 2.0 ** -600
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = nearness_distance(a, NullSpaceBasis(np.eye(3)[:, 2:]), symmetric=True)
        assert d == 2.0 ** -600

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                                   max_side=6),
                      elements=st.one_of(st.just(-0.0), st.floats(-1e300, 1e300))))
    @example(a=np.array([[-0.0, 2.0, -0.0], [1.0, -0.0, 3.0], [-5.0, 4.0, 1e300]]))
    def test_empty_basis_takes_the_general_path(self, a):
        # A - (A V) V^T with V of n x 0 subtracts exact zeros: a copy of
        # A to the bit, -0.0 kept, and a distance of 0.0
        basis = NullSpaceBasis.empty(a.shape[1])
        out = nearest_with_nullspace(a, basis)
        assert out.tobytes() == a.tobytes() and not np.shares_memory(out, a)
        assert nearness_distance(a, basis) == 0.0
        if a.shape[0] == a.shape[1]:
            # the symmetric variant keeps the -0.0 entries of the upper
            # triangle mirrored into a symmetric matrix too, which its
            # general formula's + V (V^T A V) V^T would turn into +0.0
            sym = np.where(np.triu(np.ones(a.shape, dtype=bool)), a, a.T)
            out = nearest_symmetric_with_nullspace(sym, basis)
            assert out.tobytes() == sym.tobytes() and not np.shares_memory(out, sym)
            assert nearness_distance(sym, basis, symmetric=True) == 0.0

    def test_stencil_products_give_the_dense_bits(self):
        # the distances table passes the stencil product L2_TILDE V as
        # both a V and a^T V; over the table's default orders it must
        # reproduce the dense route to the last bit
        for n in range(4, 401):
            a = make_regularization_matrix(RegularizerKind.L2_TILDE, n)
            basis = make_nullspace_basis("N2", n)
            lv = stencil_product(RegularizerKind.L2_TILDE, n, basis.V)
            assert distance_from_products(basis.V, lv, lv) == nearness_distance(
                a, basis, symmetric=True), n
            assert distance_from_products(basis.V, lv) == nearness_distance(
                a, basis), n


class TestNearnessProperties:
    """The closed forms and the optimality of A P and P A P over n, delta
    and the seed, with the bases of the catalog and random ones."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 80), delta=st.floats(1e-3, 1e3),
           which=st.sampled_from(["1", "2"]), seed=st.integers(0, 2**32 - 1))
    def test_distances_match_dense_projector(self, n, delta, which, seed):
        l1 = make_regularization_matrix(RegularizerKind.L1_DELTA, n, delta)
        basis = make_nullspace_basis("N" + which, n)
        p = make_projector_closed("P" + which, n)
        if which == "1":
            # only the corner row of L1delta sees the constants
            assert nearness_distance(l1, basis) == pytest.approx(
                delta / (2.0 * np.sqrt(n)), rel=1e-10)
        a = l1 + np.random.default_rng(seed).standard_normal((n, n))
        sym = a + a.T
        tol = 1e-10 * max(1.0, frobenius_norm(sym))
        assert abs(nearness_distance(a, basis) - frobenius_norm(a - a @ p)) <= tol
        d_sym = nearness_distance(sym, basis, symmetric=True)
        assert abs(d_sym - frobenius_norm(sym - p @ sym @ p)) <= tol
        # ||A - P A P||^2 = 2 ||A V||^2 - ||V^T A V||^2 for symmetric A
        av = sym @ basis.V
        formula = np.sqrt(2.0 * frobenius_norm(av) ** 2
                          - frobenius_norm(basis.V.T @ av) ** 2)
        assert abs(d_sym - formula) <= tol

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 30), ell=st.integers(1, 2), delta=st.floats(1e-3, 1e3),
           scale=st.floats(1e-3, 1e2), seed=st.integers(0, 2**32 - 1))
    def test_projections_beat_feasible_competitors(self, n, ell, delta, scale, seed):
        rng = np.random.default_rng(seed)
        basis = random_basis(rng, n, ell)
        p = build_projector(basis.V)
        a = (make_regularization_matrix(RegularizerKind.L1_DELTA, n, delta)
             + rng.standard_normal((n, n)))
        slack = 1e-12 * frobenius_norm(a)
        ap = nearest_with_nullspace(a, basis)
        # A P + M P annihilates the basis for every M
        m = scale * rng.standard_normal((n, n))
        assert frobenius_norm(a - ap) <= frobenius_norm(a - (ap + m @ p)) + slack
        # P S P is symmetric and annihilates the basis for every symmetric S
        sym = a + a.T
        pap = nearest_symmetric_with_nullspace(sym, basis)
        w = scale * rng.standard_normal((n, n))
        s = sym + w + w.T
        assert frobenius_norm(sym - pap) <= frobenius_norm(sym - p @ s @ p) + slack

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 30), ell=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_symmetric_distance_never_below_general(self, n, ell, seed):
        # V spans an invariant subspace of A, so V^T A W = 0 and the two
        # distances are equal; the symmetric one is never below in floats
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * rng.standard_normal(n)) @ q.T
        a = 0.5 * (a + a.T)
        basis = NullSpaceBasis(q[:, :ell])
        d_gen = nearness_distance(a, basis)
        d_sym = nearness_distance(a, basis, symmetric=True)
        assert d_gen <= d_sym <= d_gen * (1.0 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(a=st.integers(3, 8).flatmap(lambda n: hnp.arrays(
               np.float64, (n, n), elements=st.one_of(st.just(0.0), st.floats(1e-3, 1e3),
                                                      st.floats(-1e3, -1e-3)))),
           ell=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    @example(a=np.array([[350.3744576367607, 350.3744576367607, 350.3744576367607, -999.0,
                          350.3744576367607],
                         [350.3744576367607, 350.3744576367607, 0.0, 350.3744576367607,
                          -682.0138881274131],
                         [350.3744576367607, 0.0, 350.3744576367607, 0.0, -299.98788364491315],
                         [-999.0, 350.3744576367607, 0.0, 350.3744576367607, 0.001],
                         [350.3744576367607, -682.0138881274131, -299.98788364491315, 0.001,
                          350.3744576367607]]), ell=2, seed=9902)
    def test_distance_is_homogeneous_across_both_thresholds(self, a, ell, seed):
        # a scaled by 2**j, below, between and above the scaling of the
        # products (linalg.LARGE = 2**400) and of a (2**1000), on both
        # sides: the distance scales by 2**j to the bit, with no numpy
        # warning.  The
        # example's symmetric distance moves at j = 500 where its squares
        # are taken by numpy's ** 2, which calls the C pow
        n = a.shape[0]
        basis = random_basis(np.random.default_rng(seed), n, ell) if ell else (
            NullSpaceBasis.empty(n))
        sym = np.where(np.triu(np.ones(a.shape, dtype=bool)), a, a.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m, symmetric in ((a, False), (sym, True)):
                d = nearness_distance(m, basis, symmetric=symmetric)
                for j in (-900, -600, -300, 0, 300, 500, 700, 900):
                    assert nearness_distance(np.ldexp(m, j), basis,
                                             symmetric=symmetric) == np.ldexp(d, j), (j, symmetric)


# any float, with the extremes drawn often: subnormals, signed zeros, the
# float maximum, NaN and the infinities
ANY_FLOAT = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-301, 1.7e308, -1.7e308, np.nan, np.inf, -np.inf]))
# the reasons for which the nearness boundary may refuse its input
REFUSALS = (ValueError, ShapeMismatch, NotSymmetric, RankDeficient, BadDimension, OutOfRange)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_boundary_refuses_or_answers_finitely(data):
    # whatever float matrix and basis arrive, each entry point either
    # returns a finite result, a matrix of finite entries or a finite
    # distance >= 0, or raises one of its reasons, never a numpy warning.
    # A square matrix is mirrored into a symmetric one half of the time,
    # so that the symmetric variants get past their symmetry check
    n = data.draw(st.integers(1, 6), label="n")
    m = data.draw(st.sampled_from([n, *range(1, 7)]), label="m")
    a = data.draw(hnp.arrays(np.float64, (m, n), elements=ANY_FLOAT), label="a")
    if m == n and data.draw(st.booleans(), label="mirror"):
        a = np.where(np.triu(np.ones(a.shape, dtype=bool)), a, a.T)
    how = data.draw(st.sampled_from(["empty", "vectors", "V"]), label="basis")
    raw = data.draw(hnp.arrays(np.float64, (n, data.draw(st.integers(1, 2))),
                               elements=ANY_FLOAT), label="raw")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            basis = (NullSpaceBasis.empty(n) if how == "empty" else
                     NullSpaceBasis.from_vectors(raw) if how == "vectors" else NullSpaceBasis(raw))
        except REFUSALS:
            return
        for op in (nearest_with_nullspace, nearest_symmetric_with_nullspace):
            try:
                out = op(a, basis)
            except REFUSALS:
                continue
            assert out.shape == a.shape and np.all(np.isfinite(out))
        for symmetric in (False, True):
            try:
                d = nearness_distance(a, basis, symmetric=symmetric)
            except REFUSALS:
                continue
            assert np.isfinite(d) and d >= 0.0
