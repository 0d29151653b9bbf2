"""Kernel-level tests: QR, back substitution and the singular rule,
Frobenius norms, and the plain-text matrix format."""
import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regnear.errors import ParseError, RankDeficient, ShapeMismatch
from regnear.linalg import (RANK_TOL, back_substitute, column_norms, frobenius_norm,
                            read_matrix, singular_triangles, thin_qr, write_matrix,
                            write_vector)


def matrix_to_text(a) -> str:
    """The text that write_matrix writes for a."""
    buf = io.StringIO()
    write_matrix(buf, a)
    return buf.getvalue()


class TestThinQR:
    def test_already_orthonormal_column(self):
        q, r = thin_qr([[1.0], [0.0]])
        assert np.allclose(q, [[1.0], [0.0]], atol=0)
        assert np.allclose(r, [[1.0]], atol=0)

    def test_single_column_normalization(self):
        q, r = thin_qr([[3.0], [4.0]])
        np.testing.assert_allclose(q, [[0.6], [0.8]], atol=1e-15)
        np.testing.assert_allclose(r, [[5.0]], atol=1e-15)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((6, 2))
        q, r = thin_qr(a)
        assert q.shape == (6, 2) and r.shape == (2, 2)
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(q @ r, a, atol=1e-12 * np.linalg.norm(a))
        # sign convention: diagonal of R nonnegative
        assert np.all(np.diag(r) >= 0.0)
        assert np.allclose(np.tril(r, -1), 0.0, atol=0)

    def test_rank_deficient_columns(self):
        a = np.column_stack([np.ones(5), 2.0 * np.ones(5)])
        with pytest.raises(RankDeficient):
            thin_qr(a)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            thin_qr(np.ones((2, 3)))  # wide input
        with pytest.raises(ShapeMismatch):
            thin_qr(np.ones(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            thin_qr([[1.0], [np.nan]])

    def test_independent_columns_near_the_float_limit(self):
        # ||a||_F overflows for these entries; the rule reads R alone
        a = 1e200 * np.column_stack([np.ones(3), [1.0, 2.0, 3.0]])
        q, r = thin_qr(a)
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(q @ r, a, rtol=1e-12)
        with pytest.raises(RankDeficient):
            thin_qr(1e200 * np.column_stack([np.ones(3), 2.0 * np.ones(3)]))

    def test_orthogonal_columns_below_the_normal_range(self):
        # RANK_TOL times a largest entry of 1e-315 underflows; the rule is
        # read on R scaled by a power of two, where the two orthogonal
        # columns are independent
        q, r = thin_qr(1e-315 * np.eye(3)[:, :2])
        assert np.array_equal(q, np.eye(3)[:, :2])
        assert np.array_equal(r, 1e-315 * np.eye(2))
        with pytest.raises(RankDeficient):
            thin_qr(1e-315 * np.column_stack([np.ones(3), np.ones(3)]))


class TestTriangularSolve:
    # back_substitute checks nothing: its callers read the singular rule
    # (singular_triangles), and every triangle here is regular by it
    def test_scalar(self):
        np.testing.assert_allclose(back_substitute(np.array([[2.0]]), np.array([4.0])), [2.0])

    def test_hand_back_substitution(self):
        x = back_substitute(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([3.0, 1.0]))
        np.testing.assert_allclose(x, [2.0, 1.0], atol=1e-15)

    def test_remultiplication(self):
        rng = np.random.default_rng(7)
        r = np.triu(rng.standard_normal((5, 5))) + 3.0 * np.eye(5)
        c = rng.standard_normal(5)
        x = back_substitute(r, c)
        assert np.linalg.norm(r @ x - c) <= 1e-12 * np.linalg.norm(c)

    def test_empty_system(self):
        x = back_substitute(np.zeros((0, 0)), np.zeros(0))
        assert x.shape == (0,)

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 40])
    def test_stack_solves_each_as_alone(self, k):
        # each system of a stack gets the bits it gets alone
        rng = np.random.default_rng(k)
        r = np.triu(rng.standard_normal((5, k, k))) + 3.0 * np.eye(k)
        c = rng.standard_normal((5, k))
        x = back_substitute(r, c)
        assert x.shape == (5, k)
        for xi, ri, ci in zip(x, r, c):
            assert np.array_equal(xi, back_substitute(ri, ci))
        assert back_substitute(r[:0], c[:0]).shape == (0, k)

    def test_regular_triangle_below_the_normal_range(self):
        # entries of 1e-310 are subnormal: the rule reads the triangle
        # scaled, finds it regular, and back substitution solves it
        r = 1e-310 * np.array([[2.0, 1.0], [0.0, 4.0]])
        x = back_substitute(r, 1e-310 * np.array([4.0, 4.0]))
        np.testing.assert_allclose(x, [1.5, 1.0], rtol=1e-12)
        assert not singular_triangles(r)

    def test_zero_triangle_stays_singular(self):
        assert singular_triangles(np.zeros((3, 3)))
        assert singular_triangles(np.zeros((2, 2)), 1e-300)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 6), ratio=st.floats(1e-16, 1e-6), e=st.integers(-1060, 1000),
           seed=st.integers(0, 2**32 - 1))
    def test_a_power_of_two_leaves_the_verdict(self, k, ratio, e, seed):
        # a triangle scaled by 2**e, its entries still normal, gets the
        # verdict it gets unscaled, also where tol times its largest entry
        # would underflow; in [2**-400, 2**400] the rule reads it unscaled
        rng = np.random.default_rng(seed)
        r = np.triu(rng.uniform(0.5, 1.0, (k, k)))
        r[k - 1, k - 1] = ratio
        scaled = np.ldexp(r, e)
        assume(np.abs(r[r != 0]).min() * 2.0 ** e >= np.finfo(float).tiny)
        assume(np.isfinite(scaled).all())
        for tol in (RANK_TOL, 1e-8):
            assert singular_triangles(scaled, tol) == singular_triangles(r, tol)


class TestFrobenius:
    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            assert frobenius_norm(a + b) <= frobenius_norm(a) + frobenius_norm(b) + 1e-12

    def test_stencil_difference_norm(self):
        # tridiagonal second-difference matrix vs its zero-edge-row variant:
        # the rows differ by (1/4)[2,-1] and (1/4)[-1,2], squared norm 10/16
        for n in (3, 7, 12):
            lt = np.zeros((n, n))
            idx = np.arange(n)
            lt[idx, idx] = 0.5
            lt[idx[:-1], idx[:-1] + 1] = -0.25
            lt[idx[1:], idx[1:] - 1] = -0.25
            lz = lt.copy()
            lz[0, :] = 0.0
            lz[-1, :] = 0.0
            assert frobenius_norm(lt - lz) == pytest.approx(math.sqrt(10.0) / 4.0,
                                                            rel=1e-14)

    def test_norm_past_the_squarable_range(self):
        # the sum of squares overflows but the norm fits: scaled, it is
        # finite; where the squares underflow, scaled, it is not 0; in
        # between it is numpy's norm bit for bit
        assert frobenius_norm(np.full((2, 2), 1e200)) == pytest.approx(2e200, rel=1e-15)
        assert frobenius_norm(np.full((2, 2), 1e-200)) == pytest.approx(2e-200, rel=1e-15, abs=0)
        assert frobenius_norm(np.full(4, 1e308)) == np.inf
        a = np.random.default_rng(7).standard_normal((5, 3))
        assert frobenius_norm(a) == np.linalg.norm(a)
        # in every memory layout, as numpy ravels it in the order it is stored
        for b in (np.asfortranarray(a), a[::2, ::-1], a.T, a[:, 1], a[::-2, 0]):
            assert frobenius_norm(b) == np.linalg.norm(b)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 70), s=st.integers(1, 5),
           exps=st.lists(st.sampled_from([0, 3, -3, 130, -130, 154, 200, -200, 300, -300]),
                         min_size=5, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_column_norms_are_each_columns_norm(self, n, s, exps, seed):
        # bit for bit, columns past 2**400 and below 2**-400 included
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, s)) * 10.0 ** np.array(exps[:s], dtype=float)
        norms = column_norms(a)
        assert [float(v) for v in norms] == [frobenius_norm(a[:, j]) for j in range(s)]


class TestTextFormat:
    def test_matrix_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 3)) * np.logspace(0, -12, 3)
        path = str(tmp_path / "m.txt")
        write_matrix(path, a)
        back = read_matrix(path)
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(back, a)

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.5, -2.25, 1e-300])
        path = str(tmp_path / "v.txt")
        write_vector(path, v)
        assert np.array_equal(read_matrix(path), v[:, None])

    def test_header_format(self):
        text = matrix_to_text(np.eye(2))
        lines = text.strip().split("\n")
        assert lines[0] == "2 2"
        assert len(lines) == 3

    @pytest.mark.parametrize("text", [
        "oops\n",                 # header not two tokens
        "3\n",                    # one header token
        "1 1 1\n5\n",             # three header tokens over a valid row
        "2 x\n",                  # non-integer dimension
        "-1 2\n",                 # negative dimension
        "2 2\n1 2\n3\n",          # short row
        "1 2\n1 banana\n",        # non-numeric entry
        "1 1\nnan\n",             # non-finite value
        "2 2\n1 2\n3 4\n5 6\n",   # a row beyond the header's count
        "1 1\n1\n\nx\n",          # content after a blank line
        "1 1\n1_0\n",             # a digit separator in an entry
        "1_0 1\n" + "1\n" * 10,   # and in the header, over the ten rows it reads
        "1 1\n\u0661\n",          # a non-ASCII digit
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            read_matrix(io.StringIO(text))

    @pytest.mark.parametrize("data", [
        b"3 1\n1\n1\n\xff\n",        # a byte of no text in ASCII or UTF-8
        b"1 2\n1\xc2\xa02\n",         # a UTF-8 no-break space between two entries
    ], ids=["0xff", "no-break-space"])
    def test_a_file_is_read_as_ascii(self, data, tmp_path):
        # in any locale: the no-break space, which str.split takes for a
        # separator once decoded as UTF-8, is a parse error too
        path = tmp_path / "m.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError):
            read_matrix(str(path))

    def test_blank_lines_may_follow_the_rows(self):
        got = read_matrix(io.StringIO("2 1\n1\n2\n\n  \n"))
        assert np.array_equal(got, [[1.0], [2.0]])

    def test_write_rejects_nonfinite(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix(str(tmp_path / "bad.txt"), [[np.inf]])

    def test_write_vector_rejects_matrix(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            write_vector(str(tmp_path / "bad.txt"), np.eye(2))

    def test_write_rejects_more_than_two_dimensions(self, tmp_path):
        path = tmp_path / "bad.txt"
        with pytest.raises(ShapeMismatch):
            write_matrix(str(path), np.ones((1, 1, 1)))
        assert not path.exists()

    # the edges of the format: signed zero, the subnormals, the largest
    # double (about 1.8e308), and numbers whose 17th digit is needed
    _EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                    1.7976931348623157e308, -1.7976931348623157e308,
                                    0.1, 1 / 3])

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
                      elements=st.one_of(_EDGE_FLOATS,
                                         st.floats(allow_nan=False, allow_infinity=False))))
    @example(np.zeros((0, 3)))
    @example(np.zeros((3, 0)))
    @example(np.array([-0.0, 5e-324, 1.7976931348623157e308]))
    def test_text_is_each_entry_at_17_digits(self, a):
        # every shape the writer takes: a number, a vector (one row), a
        # matrix, 0 rows or 0 columns included
        rows, cols = np.atleast_2d(a).shape
        body = "".join(" ".join(f"{v:.17g}" for v in row) + "\n"
                       for row in np.atleast_2d(a).tolist())
        assert matrix_to_text(a) == f"{rows} {cols}\n{body}"
