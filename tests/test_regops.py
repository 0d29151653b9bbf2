import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgbtrf, dgbtrs

import regnear
from regnear import regops
from regnear.errors import BadDimension, RankDeficient, ShapeMismatch, SingularCore
from regnear.linalg import RANK_TOL
from regnear.oracles import build_projector, make_projector_closed
from regnear.regops import (Mode, ProjectedRegularizer, REGULARIZER_NAMES,
                            RegularizerKind, make_nullspace_basis,
                            make_regularization_matrix, regularizer_from_name,
                            stacked_n2_bases, stencil_product)


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

    @pytest.mark.parametrize("delta", [1e-3, 0.37, 1.0, 7.0, 1e3])
    def test_equals_eye_band_reference(self, delta):
        # every kind against its np.eye-band construction, bit for bit
        for kind in RegularizerKind:
            for n in range(3, 81):
                want = dense_kind(kind, n, delta)
                got = make_regularization_matrix(kind, n, delta)
                assert got.shape == want.shape, (kind, n)
                assert got.tobytes() == want.tobytes(), (kind, n)

    @pytest.mark.parametrize("n", [-5, 2])
    @pytest.mark.parametrize("kind", list(RegularizerKind))
    def test_bad_order_is_bad_dimension(self, kind, n):
        with pytest.raises(BadDimension):
            make_regularization_matrix(kind, n)
        with pytest.raises(BadDimension):
            stencil_product(kind, n, np.ones(2))


class TestStencilProduct:
    """L X from the stencil, against the assembled catalog matrix."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(list(RegularizerKind)), n=st.integers(3, 60),
           k=st.integers(0, 3), vector=st.booleans(),
           delta=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_equals_dense_product(self, kind, n, k, vector, delta, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal(n if vector else (n, k))
        dense = make_regularization_matrix(kind, n, delta) @ X
        got = stencil_product(kind, n, X, delta)
        assert got.shape == dense.shape
        scale = max(np.max(np.abs(dense), initial=0.0), 1e-300)
        assert np.max(np.abs(got - dense), initial=0.0) <= 1e-14 * scale

    def test_does_not_change_its_input(self):
        X = np.arange(12.0).reshape(6, 2)
        for kind in RegularizerKind:
            got = stencil_product(kind, 6, X)
            assert not np.shares_memory(got, X)
        assert np.array_equal(X, np.arange(12.0).reshape(6, 2))

    @pytest.mark.parametrize("X", [np.ones((5, 2)), np.ones(5), np.ones((7, 2, 1))],
                             ids=["rows", "vector", "3-d"])
    def test_shape_guard(self, X):
        with pytest.raises(ShapeMismatch):
            stencil_product(RegularizerKind.L2_TILDE, 6, X)

    def test_catalog_guards(self):
        with pytest.raises(BadDimension):
            stencil_product(RegularizerKind.L1_RECT, 2, np.ones(2))
        with pytest.raises(ValueError):
            stencil_product(RegularizerKind.L1_DELTA, 5, np.ones(5), delta=0.0)


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
        for n in (3, 10, 4097):
            b = make_nullspace_basis("N2", n)
            np.testing.assert_allclose(b.V.T @ b.V, np.eye(2), atol=1e-14)
            # the vectors (1, t), t = 1..n, must be recoverable from the span
            raw = np.column_stack((np.ones(n), np.arange(1.0, n + 1.0)))
            np.testing.assert_allclose(b.V @ (b.V.T @ raw), raw, atol=1e-12)

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


class TestStackedBases:
    @staticmethod
    def closed_form(n):
        """The N2 basis of order n by its formula, as its own arrays."""
        t = np.arange(1.0, n + 1.0)
        v1 = np.ones(n) / np.sqrt(n)
        v2 = (t - (n + 1.0) / 2.0) / np.sqrt(n * (n * n - 1.0) / 12.0)
        return np.column_stack([v1, v2])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(3, 3000), min_size=1, max_size=6))
    @example([3])
    @example([4096, 3, 5000])
    def test_each_basis_is_its_own_order_bit_for_bit(self, orders):
        V, starts = stacked_n2_bases(orders)
        assert V.shape == (sum(n + 1 for n in orders), 2) and V.flags.c_contiguous
        assert starts.tolist() == np.cumsum([0] + [n + 1 for n in orders[:-1]]).tolist()
        for n, s in zip(orders, starts.tolist()):
            own = V[s:s + n].tobytes()
            assert own == self.closed_form(n).tobytes()
            assert own == make_nullspace_basis("N2", n).V.tobytes()
            # N1 is N2's first column, read from the same closed form
            n1 = make_nullspace_basis("N1", n).V
            assert n1.flags.c_contiguous
            assert n1.tobytes() == V[s:s + n, :1].tobytes()
            # +0.0 on the zero row, as a stencil pads its edge
            assert V[s + n].tobytes() == bytes(16)

    def test_one_stencil_product_gives_each_orders_own(self):
        orders = [3, 4, 17, 5]
        V, starts = stacked_n2_bases(orders)
        LV = stencil_product(RegularizerKind.L2_TILDE, V.shape[0], V)
        for n, s in zip(orders, starts.tolist()):
            own = stencil_product(RegularizerKind.L2_TILDE, n,
                                  make_nullspace_basis("N2", n).V)
            assert LV[s:s + n].tobytes() == own.tobytes()

    @pytest.mark.parametrize("column", [0, 1], ids=["v1", "v2"])
    def test_checks_see_every_order(self, monkeypatch, column):
        # one entry of the third order's column v1 or v2 off by a part
        # in a million: the check of NullSpaceBasis catches it
        real = regops._stacked_n2

        def one_entry_off(orders):
            columns = real(orders)
            columns[column][columns[2][2] + 1] *= 1.0 + 1e-6
            return columns

        monkeypatch.setattr(regops, "_stacked_n2", one_entry_off)
        with pytest.raises(RankDeficient, match="orthonormal"):
            stacked_n2_bases([5, 6, 7, 8])

    def test_bad_order(self):
        with pytest.raises(BadDimension):
            stacked_n2_bases([5, 2, 7])
        with pytest.raises(BadDimension, match="at least one order"):
            stacked_n2_bases([])


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
        reg = regularizer_from_name("L1dP1", 8)
        assert reg.delta == 1.0  # default per the conditioning discussion
        assert reg.basis.ell == 1
        eff = reg.effective_matrix()
        assert np.max(np.abs(eff @ reg.basis.V)) <= 1e-14
        np.testing.assert_allclose(
            eff, reg.Ltilde @ make_projector_closed("P1", 8), atol=1e-13)

    def test_two_sided_mode_is_symmetric_and_annihilates(self):
        reg = regularizer_from_name("P2L2tP2", 12)
        eff = reg.effective_matrix()
        assert np.linalg.norm(eff - eff.T) <= 1e-12
        assert np.max(np.abs(eff @ reg.basis.V)) <= 1e-13
        np.testing.assert_allclose(
            eff,
            make_projector_closed("P2", 12) @ reg.Ltilde
            @ make_projector_closed("P2", 12),
            atol=1e-12)

    def test_identity_mode(self):
        reg = regularizer_from_name("I", 5)
        assert reg.basis.ell == 0
        assert np.array_equal(reg.effective_matrix(), np.eye(5))
        assert np.array_equal(build_projector(reg.basis.V), np.eye(5))
        # the solve is a new array in z's memory order: the products
        # downstream of it round by that order
        Z = np.asfortranarray(np.arange(15.0).reshape(5, 3))
        Y = reg.core_solve(Z)
        assert np.array_equal(Y, Z) and not np.shares_memory(Y, Z)
        assert Y.flags.f_contiguous and not Y.flags.c_contiguous

    def test_plain_mode_uses_matrix_as_is(self):
        reg = regularizer_from_name("L20", 6)
        assert np.array_equal(
            reg.effective_matrix(),
            make_regularization_matrix(RegularizerKind.L2_ZERO, 6))
        assert reg.basis.ell == 2  # split metadata still carried

    def test_singular_core_detected(self):
        with pytest.raises(SingularCore):
            regularizer_from_name("L1dP1", 6, delta=1e-20)

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(REGULARIZER_NAMES), n=st.integers(4, 60),
           delta=st.floats(0.1, 10.0))
    def test_effective_matrix_is_the_nearest_with_the_null_space(self, name, n,
                                                                delta):
        reg = regularizer_from_name(name, n, delta)
        eff = reg.effective_matrix()
        assert np.max(np.abs(eff @ reg.basis.V), initial=0.0) <= 1e-12
        if reg.mode in (Mode.RIGHT, Mode.TWO_SIDED) and reg.basis.ell:
            p = make_projector_closed(f"P{reg.basis.ell}", n)
            expected = reg.Ltilde @ p
            if reg.mode is Mode.TWO_SIDED:
                expected = p @ expected
            assert np.max(np.abs(eff - expected)) <= 1e-12
        else:
            assert np.array_equal(eff, reg.Ltilde)


class TestNameTable:
    def test_one_row_per_kind(self):
        # every kind the catalog names solves in closed form; the
        # rectangular kinds have no square core to solve with
        assert set(regops._KINDS) == set(RegularizerKind)
        rect = {RegularizerKind.L1_RECT, RegularizerKind.L2_RECT}
        assert {kind for kind, _, _ in regops._CATALOG.values()} == set(RegularizerKind) - rect
        assert {kind for kind, (_, _, solve) in regops._KINDS.items()
                if solve is None} == rect

    def test_canonical_names(self):
        assert REGULARIZER_NAMES == ("I", "L10", "L1dP1", "L20", "L2tP2",
                                     "P2L2tP2")

    @pytest.mark.parametrize("name,kind,mode", [
        ("I", RegularizerKind.IDENTITY, Mode.RIGHT),
        ("L10", RegularizerKind.L1_ZERO, Mode.PLAIN),
        ("L1dP1", RegularizerKind.L1_DELTA, Mode.RIGHT),
        ("L20", RegularizerKind.L2_ZERO, Mode.PLAIN),
        ("L2tP2", RegularizerKind.L2_TILDE, Mode.RIGHT),
        ("P2L2tP2", RegularizerKind.L2_TILDE, Mode.TWO_SIDED),
    ])
    def test_name_resolution(self, name, kind, mode):
        reg = regularizer_from_name(name, 10)
        assert reg.name == name
        assert reg.kind is kind
        assert reg.mode is mode
        assert reg.n == 10

    def test_delta_threading(self):
        reg = regularizer_from_name("L1dP1", 10, delta=0.25)
        assert reg.Ltilde[9, 9] == 0.125

    @pytest.mark.parametrize("name", REGULARIZER_NAMES)
    @pytest.mark.parametrize("n", [200, 400, 401])
    def test_core_solve_on_a_block_is_by_column(self, name, n):
        # the stencil solves are elementwise work and sequential cumulative
        # sums down axis 0, so a block solves bit for bit as its columns
        # do; PLAIN mode then projects out the basis with two products,
        # which a block rounds differently, and the projection removes
        # most of the solve's affine part (up to 2.5e-15 relative seen)
        reg = regularizer_from_name(name, n, 0.5)
        Z = np.random.default_rng(n).standard_normal((n, 6))
        Y = reg.core_solve(Z)
        assert Y.shape == Z.shape
        for j in range(Z.shape[1]):
            y = reg.core_solve(Z[:, j])
            if reg.mode is Mode.PLAIN:
                assert np.linalg.norm(Y[:, j] - y) <= 1e-14 * np.linalg.norm(y)
            else:
                assert np.array_equal(Y[:, j], y)

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(REGULARIZER_NAMES),
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


def dense_core(name, n, delta):
    """The catalog core of a named regularizer, from np.eye bands."""
    first = 0.5 * (np.eye(n) - np.eye(n, k=1))
    second = 0.25 * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    if name == "I":
        return np.eye(n)
    if name in ("L10", "L1dP1"):
        first[-1] = 0.0
        if name == "L1dP1":
            first[-1, -1] = delta / 2.0
        return first
    if name == "L20":
        second[[0, -1]] = 0.0
    return second


def dense_kind(kind, n, delta):
    """Any catalog kind from dense_core's np.eye bands: a rectangular kind
    is the rows of its square variant that the stencil fills."""
    name, rows = {
        RegularizerKind.IDENTITY: ("I", slice(None)),
        RegularizerKind.L1_RECT: ("L10", slice(0, -1)),
        RegularizerKind.L2_RECT: ("L20", slice(1, -1)),
        RegularizerKind.L1_DELTA: ("L1dP1", slice(None)),
        RegularizerKind.L1_ZERO: ("L10", slice(None)),
        RegularizerKind.L2_ZERO: ("L20", slice(None)),
        RegularizerKind.L2_TILDE: ("L2tP2", slice(None)),
    }[kind]
    return dense_core(name, n, delta)[rows]


class TestCoreOnDemand:
    """Catalog regularizers store no dense core and build it when read."""

    @pytest.mark.parametrize("name", REGULARIZER_NAMES)
    def test_holds_no_dense_core(self, name):
        tracemalloc.start()
        try:
            reg = regularizer_from_name(name, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert reg.basis.n == 2000

    @pytest.mark.parametrize("n", [3, 4, 17, 200])
    @pytest.mark.parametrize("delta", [0.37, 1.0, 2.5])
    def test_core_read_on_demand(self, n, delta):
        for name in REGULARIZER_NAMES:
            reg = regularizer_from_name(name, n, delta)
            assert np.array_equal(reg.Ltilde, dense_core(name, n, delta)), name

    @pytest.mark.parametrize("name,n,delta,error", [
        ("L20", 2, 1.0, BadDimension), ("I", 2, 1.0, BadDimension),
        ("I", -5, 1.0, BadDimension),
        ("L2tP2", 5, np.nan, ValueError), ("I", 5, np.inf, ValueError),
        ("L1dP1", 5, 0.0, ValueError), ("L1dP1", 5, -1.0, ValueError),
    ])
    def test_compose_checks_what_the_dense_core_checks(self, name, n, delta, error):
        with pytest.raises(error):
            regularizer_from_name(name, n, delta)


def banded_lu_solve(core, mode, V):
    """Reference core solve: LAPACK's banded LU of the dense core.

    In PLAIN mode the zero rows of the core are first replaced by unit
    rows, and the basis V is projected out of each solution.  A smallest
    pivot not above RANK_TOL times the largest entry raises SingularCore.
    """
    core = np.array(core, dtype=float)
    if mode is Mode.PLAIN:
        free = np.flatnonzero(~core.any(axis=1))
        core[free, free] = 1.0
    rows, cols = np.nonzero(core)
    kl = int(np.max(rows - cols, initial=0))
    ku = int(np.max(cols - rows, initial=0))
    ab = np.zeros((2 * kl + ku + 1, core.shape[0]))
    ab[kl + ku + rows - cols, cols] = core[rows, cols]
    lu, piv, _ = dgbtrf(ab, kl, ku)
    if not np.min(np.abs(lu[kl + ku])) > RANK_TOL * np.max(np.abs(ab)):
        raise SingularCore("banded LU met a numerically zero pivot")

    def solve(z):
        y = dgbtrs(lu, kl, ku, z, piv)[0]
        return y - V @ (V.T @ y) if mode is Mode.PLAIN else y
    return solve


class TestClosedFormSolves:
    """The catalog's closed-form core solves against the banded LU of
    the dense core."""

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(REGULARIZER_NAMES), n=st.integers(3, 300),
           delta=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_matches_banded_lu(self, name, n, delta, seed):
        reg = regularizer_from_name(name, n, delta)
        z = np.random.default_rng(seed).standard_normal(n)
        x = reg.core_solve(z)
        expected = banded_lu_solve(reg.Ltilde, reg.mode, reg.basis.V)(z)
        if name in ("I", "L10", "L1dP1"):
            # doubling is exact and the cumulative sum runs in sequence,
            # so the bidiagonal solve rounds as the back substitution does
            assert np.array_equal(x, expected)
        else:
            assert np.linalg.norm(x - expected) <= 1e-11 * np.linalg.norm(expected)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 40),
           threshold=st.sampled_from([RANK_TOL, 1 / RANK_TOL]),
           ulps=st.integers(-8, 8))
    @example(n=16, threshold=1e-20, ulps=0)
    def test_singular_for_the_same_delta(self, n, threshold, ulps):
        # delta a few ulps either side of where min(1/2, delta/2) meets
        # RANK_TOL * max(1/2, delta/2)
        delta = float(threshold)
        for _ in range(abs(ulps)):
            delta = np.nextafter(delta, np.inf if ulps > 0 else 0.0)
        core = make_regularization_matrix(RegularizerKind.L1_DELTA, n, delta)

        def singular(build):
            try:
                build()
            except SingularCore:
                return True
            return False

        closed = singular(lambda: regularizer_from_name("L1dP1", n, delta))
        banded = singular(lambda: banded_lu_solve(core, Mode.RIGHT, None))
        assert closed == banded


# Builds every named regularizer directly and solves with its core,
# with scipy blocked; exits with the number of scipy imports attempted.
_DIRECT_PAIRS = """
import sys

attempts = []


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            attempts.append(name)
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())

import numpy as np
from regnear.regops import REGULARIZER_NAMES, ProjectedRegularizer

n = 12
z = np.linspace(-1.0, 1.0, n)
for name in REGULARIZER_NAMES:
    reg = ProjectedRegularizer(name, n, 0.5)
    assert np.all(np.isfinite(reg.core_solve(z)))
print(attempts)
sys.exit(len(attempts))
"""


class TestDirectConstruction:
    """ProjectedRegularizer built directly is the catalog regularizer."""

    def test_every_pair_solves_without_scipy(self):
        src = os.path.dirname(os.path.dirname(regnear.__file__))
        run = subprocess.run([sys.executable, "-c", _DIRECT_PAIRS],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stdout + run.stderr

    @pytest.mark.parametrize("name", REGULARIZER_NAMES)
    def test_same_solve_as_composed(self, name):
        composed = regularizer_from_name(name, 30, delta=0.7)
        direct = ProjectedRegularizer(name, 30, 0.7)
        assert direct.kind is composed.kind and direct.mode is composed.mode
        assert np.array_equal(direct.basis.V, composed.basis.V)
        z = np.random.default_rng(31).standard_normal(30)
        assert np.array_equal(direct.core_solve(z), composed.core_solve(z))

    def test_fields_are_name_n_and_delta(self):
        assert [f.name for f in dataclasses.fields(ProjectedRegularizer)] == [
            "name", "n", "delta"]
