import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regnear.errors import BadDimension, ShapeMismatch, SingularCore
from regnear.nearness import NullSpaceBasis, build_projector
from regnear.regops import (Mode, ProjectedRegularizer, REGULARIZER_NAMES,
                            RegularizerKind, compose_regularizer,
                            make_nullspace_basis, make_projector_closed,
                            make_regularization_matrix, regularizer_from_name)


class TestStencils:
    """Frozen n=3 forms for every catalog matrix."""

    def test_identity(self):
        assert np.array_equal(
            make_regularization_matrix(RegularizerKind.IDENTITY, 3), np.eye(3))

    def test_first_difference_rect(self):
        expected = 0.5 * np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        assert np.array_equal(
            make_regularization_matrix(RegularizerKind.L1_RECT, 3), expected)

    def test_second_difference_rect(self):
        expected = 0.25 * np.array([[-1.0, 2.0, -1.0]])
        assert np.array_equal(
            make_regularization_matrix(RegularizerKind.L2_RECT, 3), expected)

    def test_first_difference_delta(self):
        expected = 0.5 * np.array([[1.0, -1.0, 0.0],
                                   [0.0, 1.0, -1.0],
                                   [0.0, 0.0, 1.0]])
        assert np.array_equal(
            make_regularization_matrix(RegularizerKind.L1_DELTA, 3, delta=1.0),
            expected)
        half_delta = make_regularization_matrix(RegularizerKind.L1_DELTA, 3,
                                                delta=0.5)
        assert half_delta[2, 2] == 0.25

    def test_first_difference_zero_row(self):
        a = make_regularization_matrix(RegularizerKind.L1_ZERO, 4)
        assert np.array_equal(a[:3], make_regularization_matrix(
            RegularizerKind.L1_RECT, 4))
        assert np.array_equal(a[3], np.zeros(4))

    def test_second_difference_zero_rows(self):
        a = make_regularization_matrix(RegularizerKind.L2_ZERO, 5)
        assert np.array_equal(a[0], np.zeros(5))
        assert np.array_equal(a[4], np.zeros(5))
        assert np.array_equal(a[1:4], make_regularization_matrix(
            RegularizerKind.L2_RECT, 5))

    def test_second_difference_tilde(self):
        expected = 0.25 * np.array([[2.0, -1.0, 0.0],
                                    [-1.0, 2.0, -1.0],
                                    [0.0, -1.0, 2.0]])
        assert np.array_equal(
            make_regularization_matrix(RegularizerKind.L2_TILDE, 3), expected)

    def test_shapes(self):
        n = 7
        assert make_regularization_matrix(RegularizerKind.L1_RECT, n).shape == (6, 7)
        assert make_regularization_matrix(RegularizerKind.L2_RECT, n).shape == (5, 7)
        for kind in (RegularizerKind.L1_DELTA, RegularizerKind.L1_ZERO,
                     RegularizerKind.L2_ZERO, RegularizerKind.L2_TILDE):
            assert make_regularization_matrix(kind, n).shape == (7, 7)

    def test_exact_kernel_vectors(self):
        # integer stencils annihilate constants / affine sequences exactly
        n = 11
        l1 = make_regularization_matrix(RegularizerKind.L1_RECT, n)
        l2 = make_regularization_matrix(RegularizerKind.L2_RECT, n)
        assert np.array_equal(l1 @ np.ones(n), np.zeros(n - 1))
        assert np.array_equal(l2 @ np.arange(1.0, n + 1.0), np.zeros(n - 2))
        assert np.array_equal(l2 @ np.ones(n), np.zeros(n - 2))

    def test_dimension_guard(self):
        with pytest.raises(BadDimension):
            make_regularization_matrix(RegularizerKind.L1_RECT, 2)

    def test_delta_guard(self):
        with pytest.raises(ValueError):
            make_regularization_matrix(RegularizerKind.L1_DELTA, 5, delta=0.0)
        with pytest.raises(ValueError):
            make_regularization_matrix(RegularizerKind.L1_DELTA, 5, delta=-1.0)

    @pytest.mark.parametrize("delta", [np.inf, -np.inf, np.nan])
    def test_non_finite_delta_rejected(self, delta):
        for kind in RegularizerKind:
            with pytest.raises(ValueError, match="finite"):
                make_regularization_matrix(kind, 5, delta=delta)


class TestNullspaceBases:
    def test_constants_basis(self):
        b = make_nullspace_basis("N1", 4)
        assert np.array_equal(b.V, np.full((4, 1), 0.5))
        assert b.ell == 1

    def test_affine_basis_second_column(self):
        b = make_nullspace_basis("N2", 3)
        np.testing.assert_allclose(b.V[:, 1],
                                   np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0),
                                   atol=1e-15)

    def test_orthonormal_and_spanning(self):
        b = make_nullspace_basis("N2", 10)
        np.testing.assert_allclose(b.V.T @ b.V, np.eye(2), atol=1e-14)
        # raw vectors (ones, 1..n) must be recoverable from the span
        np.testing.assert_allclose(b.V @ (b.V.T @ b.raw), b.raw, atol=1e-12)

    def test_catalog_matrices_annihilate_their_bases(self):
        n = 10
        l1 = make_regularization_matrix(RegularizerKind.L1_RECT, n)
        l2 = make_regularization_matrix(RegularizerKind.L2_RECT, n)
        v1 = make_nullspace_basis("N1", n).V
        v2 = make_nullspace_basis("N2", n).V
        assert np.max(np.abs(l1 @ v1)) == 0.0
        assert np.max(np.abs(l2 @ v2)) <= 1e-15

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            make_nullspace_basis("N3", 5)
        with pytest.raises(BadDimension):
            make_nullspace_basis("N1", 2)


class TestClosedFormProjectors:
    def test_mean_removal_n2(self):
        np.testing.assert_allclose(make_projector_closed("P1", 2),
                                   [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_mean_removal_entries(self):
        n = 6
        p = make_projector_closed("P1", n)
        assert p[0, 0] == pytest.approx((n - 1) / n, abs=1e-15)
        assert p[2, 4] == pytest.approx(-1.0 / n, abs=1e-15)

    def test_trend_removal_degenerate_n2(self):
        # two points determine a line exactly, so nothing survives removal
        assert np.allclose(make_projector_closed("P2", 2), 0.0, atol=1e-14)

    def test_trend_removal_n3(self):
        expected = np.array([[1.0, -2.0, 1.0],
                             [-2.0, 4.0, -2.0],
                             [1.0, -2.0, 1.0]]) / 6.0
        np.testing.assert_allclose(make_projector_closed("P2", 3), expected,
                                   atol=1e-14)

    @pytest.mark.parametrize("n", [3, 10, 100, 200])
    def test_agreement_with_projector_builder(self, n):
        closed = make_projector_closed("P2", n)
        built = build_projector(
            np.column_stack([np.ones(n), np.arange(1.0, n + 1.0)]))
        assert np.max(np.abs(closed - built)) <= 1e-12
        closed1 = make_projector_closed("P1", n)
        built1 = build_projector(np.ones((n, 1)))
        assert np.max(np.abs(closed1 - built1)) <= 1e-12

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            make_projector_closed("P3", 5)
        with pytest.raises(BadDimension):
            make_projector_closed("P1", 1)


class TestComposition:
    def test_right_mode_first_difference(self):
        reg = compose_regularizer(RegularizerKind.L1_DELTA, 8, Mode.RIGHT)
        assert reg.delta == 1.0  # default per the conditioning discussion
        assert reg.basis.ell == 1
        eff = reg.effective_matrix()
        assert np.max(np.abs(eff @ reg.basis.V)) <= 1e-14
        np.testing.assert_allclose(
            eff, reg.Ltilde @ make_projector_closed("P1", 8), atol=1e-13)

    def test_two_sided_mode_is_symmetric_and_annihilates(self):
        reg = compose_regularizer(RegularizerKind.L2_TILDE, 12, Mode.TWO_SIDED)
        eff = reg.effective_matrix()
        assert np.linalg.norm(eff - eff.T) <= 1e-12
        assert np.max(np.abs(eff @ reg.basis.V)) <= 1e-13
        np.testing.assert_allclose(
            eff,
            make_projector_closed("P2", 12) @ reg.Ltilde
            @ make_projector_closed("P2", 12),
            atol=1e-12)

    def test_identity_mode(self):
        reg = compose_regularizer(RegularizerKind.IDENTITY, 5, Mode.IDENTITY)
        assert reg.basis.ell == 0
        assert np.array_equal(reg.effective_matrix(), np.eye(5))
        assert np.array_equal(reg.projector(), np.eye(5))

    def test_plain_mode_uses_matrix_as_is(self):
        reg = compose_regularizer(RegularizerKind.L2_ZERO, 6, Mode.PLAIN)
        assert np.array_equal(
            reg.effective_matrix(),
            make_regularization_matrix(RegularizerKind.L2_ZERO, 6))
        assert reg.basis.ell == 2  # split metadata still carried

    def test_mode_kind_mismatch(self):
        with pytest.raises(ValueError):
            compose_regularizer(RegularizerKind.L1_ZERO, 6, Mode.RIGHT)
        with pytest.raises(ValueError):
            compose_regularizer(RegularizerKind.L2_TILDE, 6, Mode.PLAIN)

    def test_singular_core_detected(self):
        with pytest.raises(SingularCore):
            compose_regularizer(RegularizerKind.L1_DELTA, 6, Mode.RIGHT,
                                delta=1e-20)

    def test_validation_of_fields(self):
        basis = NullSpaceBasis.empty(4)
        with pytest.raises(ShapeMismatch):
            ProjectedRegularizer(n=4, Ltilde=np.eye(3), basis=basis,
                                 mode=Mode.IDENTITY,
                                 kind=RegularizerKind.IDENTITY)
        with pytest.raises(ShapeMismatch):
            ProjectedRegularizer(n=5, Ltilde=np.eye(5),
                                 basis=NullSpaceBasis.empty(4),
                                 mode=Mode.IDENTITY,
                                 kind=RegularizerKind.IDENTITY)


class TestNameTable:
    def test_canonical_names(self):
        assert REGULARIZER_NAMES == ("I", "L10", "L1dP1", "L20", "L2tP2",
                                     "P2L2tP2")

    @pytest.mark.parametrize("name,kind,mode", [
        ("I", RegularizerKind.IDENTITY, Mode.IDENTITY),
        ("L10", RegularizerKind.L1_ZERO, Mode.PLAIN),
        ("L1dP1", RegularizerKind.L1_DELTA, Mode.RIGHT),
        ("L20", RegularizerKind.L2_ZERO, Mode.PLAIN),
        ("L2tP2", RegularizerKind.L2_TILDE, Mode.RIGHT),
        ("P2L2tP2", RegularizerKind.L2_TILDE, Mode.TWO_SIDED),
    ])
    def test_name_resolution(self, name, kind, mode):
        reg = regularizer_from_name(name, 10)
        assert reg.kind is kind
        assert reg.mode is mode
        assert reg.n == 10

    def test_delta_threading(self):
        reg = regularizer_from_name("L1dP1", 10, delta=0.25)
        assert reg.Ltilde[9, 9] == 0.125

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from([r for r in REGULARIZER_NAMES if r != "I"]),
           n=st.integers(4, 60), delta=st.floats(0.1, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_core_solve_matches_dense_inverse(self, name, n, delta, seed):
        reg = regularizer_from_name(name, n, delta)
        z = np.random.default_rng(seed).standard_normal(n)
        if reg.mode is Mode.PLAIN:
            expected = np.linalg.pinv(reg.Ltilde) @ z
        else:
            expected = np.linalg.solve(reg.Ltilde, z)
        assert (np.linalg.norm(reg.core_solve(z) - expected)
                <= 1e-10 * np.linalg.norm(expected))

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="L2tP2"):
            regularizer_from_name("L3", 10)
