"""Dense linear-algebra kernels, the counted operator, and the
plain-text matrix format.

Thin wrappers around LAPACK-backed numpy routines, with the error
policy this package promises: explicit exceptions instead of silent
NaNs or warnings.  back_substitute, a back substitution in numpy,
checks nothing: its caller reads the singular rule below on its
triangles first, and calls LAPACK's least squares (np.linalg.lstsq)
itself where that rule holds.

LinearOperator is the operator that counts its products, K's in the
pipeline; its matvec takes the operands that checked_operand, the one
check of an operand's shape, lets through.

Every array that comes from outside meets two rules, each defined here
once.  _as_float_array is the finiteness rule: a non-finite entry
raises ValueError.  scale_exponents is the range rule: an array whose
largest magnitude lies outside [1/limit, limit] is scaled by a power of
two into [1/2, 1) before any square is taken of it, and scaled_back
returns a result to the input's scale.  Scaling on both sides keeps
squares from overflowing and from underflowing (Blue, ACM TOMS 4, 1978,
on the norm of the reference BLAS).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import OutOfRange, ParseError, RankDeficient, ShapeMismatch

RANK_TOL = 1e-12
# sqrt(u), u the unit roundoff: a solution component along a singular
# value below this fraction of the largest is amplified past 1/sqrt(u),
# and so is the rounding that forming and applying it carries
NEAR_SINGULAR_TOL = float(np.sqrt(np.finfo(float).eps / 2))


def _as_float_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def checked_rhs(b, m: int, block: bool = False) -> np.ndarray:
    """b as a float vector of length m, or with block as an m x s block
    of right-hand sides, s >= 1; ShapeMismatch for another shape, and
    _as_float_array's ValueError for a non-finite entry."""
    b = checked_operand(b, m)
    if b.ndim != 1 + block or 0 in b.shape[1:]:
        raise ShapeMismatch(f"right-hand side has shape {b.shape}, expected "
                            + (f"({m}, s)" if block else f"({m},)"))
    return _as_float_array(b, "right-hand side")


def checked_operand(x, n: int) -> np.ndarray:
    """x as a float array, a vector of length n or an n x s block, for
    an operator that works down axis 0; ShapeMismatch for another
    shape."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ShapeMismatch(f"operand has shape {x.shape}, expected ({n},) or ({n}, s)")
    return x


class LinearOperator:
    """Matrix-vector products with a running count.

    The callable applies the operator along axis 0: to a vector, or to
    each column of a block.  matvec counts one product for a vector and
    one per column of a block.  An operator made on another's product,
    LinearOperator(op.shape, op.matvec), is a counting handle on op:
    each product through it counts on both.  The count is not
    thread-safe: concurrent products may be missed.
    """

    def __init__(self, shape: tuple[int, int], matvec: Callable[[np.ndarray], np.ndarray]):
        m, n = shape
        if m < 1 or n < 1:
            raise ShapeMismatch("operator shape must be positive")
        self.shape = (int(m), int(n))
        self._matvec = matvec
        self._count = 0

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "LinearOperator":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ShapeMismatch("from_matrix expects a 2-d array")
        return cls(a.shape, lambda v: a @ v)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """The operator on a vector v, or on each column of a block."""
        v = checked_operand(v, self.shape[1])
        self._count += 1 if v.ndim == 1 else v.shape[1]
        return np.asarray(self._matvec(v), dtype=float)

    @property
    def matvec_count(self) -> int:
        return self._count


def thin_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization of a tall matrix.

    Returns (Q, R) with Q of shape (m, k), R upper triangular (k, k),
    where k is the number of columns.  Raises RankDeficient when
    singular_triangles holds for R, and ShapeMismatch when the input
    has more columns than rows.
    """
    a = _as_float_array(a, "matrix")
    if a.ndim != 2:
        raise ShapeMismatch("thin_qr expects a 2-d array")
    m, k = a.shape
    if m < k:
        raise ShapeMismatch(f"thin_qr needs rows >= cols, got {m}x{k}")
    q, r = np.linalg.qr(a, mode="reduced")
    if singular_triangles(r):
        raise RankDeficient("input columns are numerically dependent")
    # fix the sign ambiguity: diagonal of R nonnegative
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


def triangle_is_singular(min_diag, max_entry, tol=RANK_TOL):
    """The package's rule for a numerically singular triangle: its
    smallest diagonal magnitude at or below tol times its largest entry
    magnitude.  Elementwise over arrays of triangles.  tol is RANK_TOL,
    or NEAR_SINGULAR_TOL where a triangle near that rule is not to be
    back-substituted.  The rule is read on each triangle scaled by the
    power of two of scale_exponents, so that tol times a tiny largest
    entry does not underflow: a triangle in [1/LARGE, LARGE] is read
    unscaled, and a zero triangle is singular."""
    e = scale_exponents(max_entry, axis=())
    return np.ldexp(min_diag, -e) <= tol * np.ldexp(max_entry, -e)


def singular_triangles(r, tol=RANK_TOL) -> np.ndarray:
    """triangle_is_singular for each triangle of the stack r, (..., k, k),
    read from its entries; an empty triangle is regular."""
    return triangle_is_singular(np.abs(np.diagonal(r, 0, -2, -1)).min(axis=-1, initial=np.inf),
                                np.abs(r).max(axis=(-2, -1), initial=0.0), tol)


def back_substitute(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Back substitution for the upper-triangular systems R x = c of a
    stack: r of shape (..., k, k) and c of (..., k), finite, and each R
    regular by singular_triangles, which is read by the caller; nothing
    is checked here.

    Row by row from the bottom: x_i = (c_i - R[i, i+1:] @ x[i+1:]) / R_ii,
    the dot one BLAS call per system, so each system of a stack is solved
    as it would be alone.
    """
    x = np.empty(c.shape)
    for i in range(r.shape[-1] - 1, -1, -1):
        dot = np.matmul(r[..., i:i + 1, i + 1:], x[..., i + 1:, None])[..., 0, 0]
        x[..., i] = (c[..., i] - dot) / r[..., i, i]
    return x


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (s, n) arrays, each one BLAS dot, the
    one np.linalg.norm takes of a vector with itself."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def frobenius_norm(a) -> float:
    """||a||_F of a finite array: column_norms of a raveled into one
    column.  It neither overflows nor underflows unless the norm itself
    lies beyond the float range, where it is inf.  For an array whose
    largest magnitude lies in [1/LARGE, LARGE] it is numpy's norm, bit
    for bit: numpy's norm too is the square root of one BLAS dot of the
    raveled array with itself."""
    return float(column_norms(np.ravel(a, order="K")[:, None])[0])


def column_norms(a) -> np.ndarray:
    """The norm of each column of the finite 2-d array a: each column
    scaled by its own power of two (scale_exponents), the square root of
    its one BLAS dot with itself, scaled back."""
    a = _as_float_array(a, "matrix")
    e = scale_exponents(a, axis=0)
    rows = np.ldexp(a.T, -e[:, None], order="C")
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(dots(rows, rows)), e)


# a magnitude that scale_exponents scales by default, above it and below
# its reciprocal: in between, the square of the largest entry is normal,
# and the squares of n entries, and of their products with an n x n
# matrix A, sum to a finite value for n ||A||^2 up to 2**224
LARGE = 2.0 ** 400


def scale_exponents(a, limit: float = LARGE, axis=None) -> np.ndarray:
    """The exponent e of 2, for a or for each slice of a along axis,
    that brings its largest magnitude into [1/2, 1) as np.ldexp(a, -e),
    where that magnitude lies outside [1/limit, limit], and 0 elsewhere,
    a zero array included.  Scaling by a power of two is exact for every
    entry that stays in the normal range, that is, within 2**-1021 of
    the largest; a computation made in that scale that is homogeneous in
    a gives the bits it would give unscaled, scaled by 2**-e, without
    the overflow or the underflow."""
    top = np.abs(a).max(axis=axis, initial=0.0)
    return np.where((top > limit) | (top < 1.0 / limit), np.frexp(top)[1], 0)


def scaled_back(x, e, what: str):
    """np.ldexp(x, e): what, computed from operands scaled by 2**-e
    (scale_exponents), back in their scale.  Raises OutOfRange when a
    finite entry leaves the float range."""
    with np.errstate(over="ignore"):
        out = np.ldexp(x, e)
    if np.any(np.isinf(out) & np.isfinite(x)):
        raise OutOfRange(f"{what} exceeds the float range")
    return out


# --- plain-text matrix format -------------------------------------------
#
# First line: "rows cols".  Then one line per row, whitespace-separated
# entries written with 17 significant digits so values round-trip exactly.


def plain_number(kind, text: str):
    """kind(text) for a number spelled in plain ASCII, and ValueError for
    any other text: int and float alone also read Python's digit
    separators, 1_0 as 10, and non-ASCII digits.  The one rule for a
    number read from text: a matrix file's header and entries, and the
    CLI's every numeric value."""
    if "_" in text or not text.isascii():
        raise ValueError(f"bad number {text!r}")
    return kind(text)


def write_matrix(f, a) -> None:
    """Write a matrix to an open text file or file path."""
    a = np.atleast_2d(_as_float_array(a, "matrix"))
    if a.ndim != 2:
        raise ShapeMismatch(f"write_matrix expects at most 2 dimensions, got {a.ndim}")
    if isinstance(f, (str, bytes)):
        with open(f, "w") as fh:
            write_matrix(fh, a)
        return
    # the whole text in one write: one % over a template of a row per
    # line, from Python floats
    rows, cols = a.shape
    row = " ".join(["%.17g"] * cols) + "\n"
    f.write(f"{rows} {cols}\n" + (row * rows) % tuple(a.ravel().tolist()))


def read_matrix(f) -> np.ndarray:
    """Read a matrix in the plain-text format; raises ParseError on bad input.

    The header fixes the row count: blank lines may follow the last
    row, anything else is bad input.  A path is read as ASCII text in
    every locale, and any other byte is bad input.
    """
    if isinstance(f, (str, bytes)):
        with open(f, encoding="ascii") as fh:
            try:
                return read_matrix(fh)
            except UnicodeDecodeError as exc:
                raise ParseError("a byte that is not ASCII in the matrix file") from None
    header = f.readline().split()
    if len(header) != 2:
        raise ParseError("expected header line 'rows cols'")
    try:
        rows, cols = plain_number(int, header[0]), plain_number(int, header[1])
    except ValueError as exc:
        raise ParseError(f"bad header: {header!r}") from exc
    if rows < 0 or cols < 0:
        raise ParseError("negative dimensions")
    data = []
    for i in range(rows):
        parts = f.readline().split()
        if len(parts) != cols:
            raise ParseError(f"row {i + 1}: expected {cols} entries, got {len(parts)}")
        try:
            data.append([plain_number(float, p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"row {i + 1}: non-numeric entry") from exc
    if f.read().strip():
        raise ParseError(f"content after the {rows} rows the header declares")
    out = np.array(data, dtype=float).reshape(rows, cols)
    if not np.all(np.isfinite(out)):
        raise ParseError("non-finite entry in matrix file")
    return out


def write_vector(f, v) -> None:
    """Write a vector as an n x 1 matrix file."""
    v = _as_float_array(v, "vector")
    if v.ndim != 1:
        raise ShapeMismatch("write_vector expects a 1-d array")
    write_matrix(f, v.reshape(-1, 1))
