"""Standard-form transformation for general-form regularized problems.

Folds a regularizer with known null space into the operator so the
iterative solver only ever sees a standard-form system.  The factored
pieces are computed once; afterwards every application of the
transformed operator costs exactly one product with K, and mapping a
transformed solution back costs one more (two for the two-sided
composition).

A split of an operator K against the null-space basis V is the pair
Q, W with K W = Q: Q R = K V is a thin QR and W = V R^-1.  It gives
both things the transformation needs from (K V)^+ = R^-1 Q^T: the
null-space component x0 = W Q^T b of the solution, and the oblique
projector y - W Q^T K y of the back map.  R is checked once, when the
split is made, and not kept: a factor holds each split as its Q and W
alone, and reads its shape from K and ell from the basis.  An empty
basis gives an empty Q and W, whose products are exact zeros.

Mode by mode:

* right-projected (core @ P): the null-space component is split off
  against the data by the split of K, and the invertible core is
  absorbed by a core solve per application;
* two-sided (P @ core @ P): the same first split and core solve, then a
  second split of the same shape for the projector left of the core.
  It is the split of K1, where K1 = (I - Q Q^T) K core^-1 is the
  operator after the first split, and it refits the null-space
  component against the data once more.  One factor holds both splits;
* plain singular square matrices: the split plus the minimal-norm
  pseudoinverse action of the full matrix, a solve with its
  invertible completion (zero rows replaced by unit rows) followed by
  the removal of the null-space component.

The two-sided refit trades the exact penalty bookkeeping for data fit,
which is the behaviour the iterative solver wants; oracles recovers the
exact fixed-mu minimizer through this transformation.

The work comes in two steps.  factor_transform(K, reg) does everything
that does not depend on the data: the split of K and, in two-sided
mode, the split of K1; the core's solve belongs to the regularizer.
It costs ell products with K (2*ell in two-sided mode) and
records that count.  project_rhs(factor, b) then computes the per-b
pieces, the null-space component x0 and the split-off right-hand side
b1 of each split, with no product with K, so one factor serves any
number of right-hand sides.  prepare_context(K, b, reg) is the two
steps in a row.

Each routine states its matrix-vector product cost.  The context is
itself the transformed operator (shape, matvec) handed to the solver,
and its matvec_count is the count of products with K that the wrapped
LinearOperator keeps.  That count runs across every context made from
one factor, so a driver that shares a factor counts one run as the
factor's prepare_matvecs plus the products the run itself makes.
The count is a plain integer, not thread-safe: products with one
operator are made from one thread at a time.

matvec is the one product method, of K and of the transformed operator
alike.  It works down axis 0, on a vector or on each column of an n x s
block, as the core's solve and back_transform do, and
linalg.checked_operand is the one check of that shape.  project_rhs of
an m x s block of right-hand sides gives a context whose x0, b1 and
solver_rhs are blocks.  A block product with K is one call (a GEMM when
K is dense), and LinearOperator.matvec counts it as s products, one per
column, so each column costs what it would alone and a driver reads a
column's share as the count's rise divided by s.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ShapeMismatch
from .linalg import checked_operand, checked_rhs, thin_qr
from .regops import Mode, ProjectedRegularizer


class LinearOperator:
    """Matrix-vector products with a running count.

    The callable applies the operator along axis 0: to a vector, or to
    each column of a block.  matvec counts one product for a vector and
    one per column of a block.  The count is not thread-safe:
    concurrent products may be missed.
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


@dataclass(eq=False)
class StandardFormFactor:
    """What factor_transform computes from (K, regularizer) alone: each
    split as its Q and W.  The shape is op.shape, and ell is
    reg.basis.ell."""

    reg: ProjectedRegularizer
    op: LinearOperator
    Q: np.ndarray            # m x ell, thin QR factor of K V
    W: np.ndarray            # n x ell, V R^-1, so that K W = Q
    Q2: Optional[np.ndarray]  # the second split, in two-sided mode: Q2 R2 = K1 V
    W2: Optional[np.ndarray]  # and V R2^-1, so that K1 W2 = Q2
    prepare_matvecs: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.op.shape

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """The transformed operator on z, a vector, or on each column of
        an n x s block.  Costs exactly one product with K per column."""
        t = _k1(self, z)
        if self.Q2 is None:
            return t
        return t - self.Q2 @ (self.Q2.T @ t)

    @property
    def matvec_count(self) -> int:
        """Products with K made so far through the wrapped operator.

        The count is cumulative: it spans every factor and context that
        shares the operator, so with one factor serving several
        right-hand sides it covers all of their runs.
        """
        return self.op.matvec_count


@dataclass(eq=False)
class StandardFormContext(StandardFormFactor):
    """A factor together with the per-b pieces project_rhs computed."""

    x0: np.ndarray           # null-space component of the solution
    b1: np.ndarray           # right-hand side with the range of K V removed
    x0_2: Optional[np.ndarray]  # x0 of the second split, when there is one
    solver_rhs: np.ndarray   # data vector the solver iterates on: b1, or
                             # b1 with the range of K1 V removed


def _as_operator(K) -> LinearOperator:
    return K if isinstance(K, LinearOperator) else LinearOperator.from_matrix(K)


def _k1(factor: StandardFormFactor, z: np.ndarray) -> np.ndarray:
    """(I - Q Q^T) K core^-1 z, the operator after the first split, for
    a vector z or on each column of a block.

    Costs exactly one product with K per column.
    """
    t = factor.op.matvec(factor.reg.core_solve(z))
    return t - factor.Q @ (factor.Q.T @ t)


def _split_factor(apply, V: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Q and W of one split: Q R = apply(V), made one column at a time
    with one application per column, and W = V R^-1, so apply(W) = Q.

    thin_qr has checked R, so W is formed once here and R is not kept.
    """
    kv = np.empty((m, V.shape[1]))
    for j, v in enumerate(V.T):
        kv[:, j] = apply(v)
    Q, R = thin_qr(kv)
    return Q, np.linalg.solve(R.T, V.T).T


def factor_transform(K, reg: ProjectedRegularizer) -> StandardFormFactor:
    """The factor step: all the work that does not depend on b.

    Costs ell products with K (2*ell in two-sided mode, whose second
    split transforms the basis once more through K1).
    """
    op = _as_operator(K)
    m, n = op.shape
    if reg.n != n:
        raise ShapeMismatch(f"regularizer built for n={reg.n}, operator has n={n}")

    start = op.matvec_count
    Q, W = _split_factor(op.matvec, reg.basis.V, m)
    factor = StandardFormFactor(reg=reg, op=op, Q=Q, W=W, Q2=None, W2=None,
                                prepare_matvecs=0)
    if reg.mode is Mode.TWO_SIDED:
        factor.Q2, factor.W2 = _split_factor(
            lambda v: _k1(factor, v), reg.basis.V, m)
    factor.prepare_matvecs = op.matvec_count - start
    return factor


def project_rhs(factor: StandardFormFactor, b: np.ndarray) -> StandardFormContext:
    """The per-b step: x0 and b1 of each split, for a right-hand side b
    or for each column of an m x s block of them, whose pieces are then
    blocks too.

    Costs no products with K and leaves the factor as it was.
    """
    b = checked_rhs(b, factor.shape[0], block=np.ndim(b) == 2)
    x0, b1 = _split_rhs(factor.Q, factor.W, b)
    x0_2, rhs = (None, b1) if factor.Q2 is None else _split_rhs(factor.Q2, factor.W2, b1)
    # a shallow copy of the factor's fields, whose arrays the context
    # shares; a context given as the factor has its per-b pieces replaced
    return StandardFormContext(**dict(vars(factor), x0=x0, b1=b1, x0_2=x0_2, solver_rhs=rhs))


def _split_rhs(Q: np.ndarray, W: np.ndarray,
               b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x0 and b1 of one split with (operator) W = Q: the least-squares
    fit of b by the operator on span(V), as the vector W Q^T b, and the
    rest of b."""
    qtb = Q.T @ b
    return W @ qtb, b - Q @ qtb


def prepare_context(K, b: np.ndarray, reg: ProjectedRegularizer) -> StandardFormContext:
    """The factor step followed by the per-b step.

    Costs ell products with K (2*ell in two-sided mode); a right-hand
    side of the wrong shape or with non-finite entries is rejected
    before any of them.
    """
    op = _as_operator(K)
    b = checked_rhs(b, op.shape[0])
    return project_rhs(factor_transform(op, reg), b)


def apply_pk_dagger(ctx: StandardFormFactor, y: np.ndarray) -> np.ndarray:
    """Oblique projector that restores the null-space component's slot:
    y - W Q^T K y, for a vector y or on each column of an n x s block.

    Costs one product with K per column when the null space is
    nontrivial, none otherwise.
    """
    y = checked_operand(y, ctx.shape[1])
    if ctx.reg.basis.ell == 0:
        return y.copy()
    return y - ctx.W @ (ctx.Q.T @ ctx.op.matvec(y))


def back_transform(ctx: StandardFormContext, z: np.ndarray) -> np.ndarray:
    """Map a transformed-space solution back to the original variables:
    a vector z, or each column of an n x s block Z for the context of a
    block of right-hand sides.

    Costs one product with K per column when the null space is
    nontrivial, none otherwise, and one more in two-sided mode, for the
    second split's projector z - W2 Q2^T K1 z.  The residual is
    preserved exactly: for the returned x, ||K x - b|| equals the
    transformed residual.
    """
    if ctx.Q2 is not None:
        # the second split's oblique projector, with K1 in place of K
        z = z - ctx.W2 @ (ctx.Q2.T @ _k1(ctx, z)) + ctx.x0_2
    y = ctx.reg.core_solve(z)
    return apply_pk_dagger(ctx, y) + ctx.x0


def k2_operator(ctx: StandardFormContext) -> StandardFormContext:
    """The transformed operator, which is the context itself."""
    return ctx
