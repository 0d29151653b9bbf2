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
split is made, and not kept: a factor holds its splits as a tuple of
(Q, W) pairs, and reads its shape from K and ell from the basis.  An
empty basis gives an empty Q and W, whose products are exact zeros.

Mode by mode:

* right-projected (core @ P): one split, of K.  It splits the
  null-space component off against the data, and the invertible core
  is absorbed by a core solve per application;
* two-sided (P @ core @ P): the same first split and core solve, then a
  second split of the same shape for the projector left of the core.
  It is the split of K1, where K1 = (I - Q Q^T) K core^-1 is the
  operator after the first split, and it refits the null-space
  component against the data once more;
* plain singular square matrices: the split plus the minimal-norm
  pseudoinverse action of the full matrix, a solve with its
  invertible completion (zero rows replaced by unit rows) followed by
  the removal of the null-space component.

Every split is handled the same way.  The operator after m splits is
K core^-1 with the range of each of the first m splits' Q removed in
turn; the transformed operator is the one after all of them, and the
second split is made against the one after the first.  b is split
along each split in turn, and back_transform undoes the later splits
in reverse order before the core solve and the first split's
projector.

The two-sided refit trades the exact penalty bookkeeping for data fit,
which is the behaviour the iterative solver wants; tests/oracles.py
recovers the exact fixed-mu minimizer through this transformation.

The work comes in two steps.  factor_transform(K, reg) does everything
that does not depend on the data: the splits; the core's solve belongs
to the regularizer.  It costs ell products with K (2*ell in two-sided
mode) and records that count.  project_rhs(factor, b) then computes
the per-b pieces, the null-space component of each split (x0s) and b
with the range of each split's Q removed (solver_rhs), with no product
with K, so one factor serves any number of right-hand sides.
prepare_context(K, b, reg) is the two steps in a row.

Each routine states its matrix-vector product cost.  The context is
itself the transformed operator (shape, matvec) handed to the solver.
Each factor makes its products with K through a counting handle of its
own, LinearOperator(K.shape, K.matvec), so a product counts on the
handle and on K's operator alike.  A factor's matvec_count is the
handle's: it covers the factor and the contexts made from it, and no
other factor moves it.  prepare_matvecs is that count when factoring
ends, so a driver that shares a factor counts one run as
prepare_matvecs plus the products the run itself makes.  The counts
are plain integers, not thread-safe: products with one operator are
made from one thread at a time.

matvec is the one product method, of K and of the transformed operator
alike.  It works down axis 0, on a vector or on each column of an n x s
block, as the core's solve and back_transform do, and
linalg.checked_operand is the one check of that shape.  project_rhs of
an m x s block of right-hand sides gives a context whose x0s and
solver_rhs are blocks, and back_transform takes z in the layout of
solver_rhs, a vector or an n x s block.  A block product with K is one
call (a GEMM when K is dense), and LinearOperator.matvec counts it as s
products, one per column, so each column costs what it would alone and
a driver reads a column's share as the count's rise divided by s.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .linalg import LinearOperator, checked_operand, checked_rhs, thin_qr
from .regops import Mode, ProjectedRegularizer


@dataclass(eq=False)
class StandardFormFactor:
    """What factor_transform computes from (K, regularizer) alone: its
    splits, each as its (Q, W) pair.  The shape is op.shape, and ell is
    reg.basis.ell."""

    reg: ProjectedRegularizer
    op: LinearOperator
    splits: tuple[tuple[np.ndarray, np.ndarray], ...]  # (Q, W) with K W = Q, then
                                                       # K1 W = Q in two-sided mode
    prepare_matvecs: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.op.shape

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """The transformed operator on z, a vector, or on each column of
        an n x s block.  Costs exactly one product with K per column."""
        return _after(self, z, len(self.splits))

    @property
    def matvec_count(self) -> int:
        """Products with K made so far through this factor's handle: by
        the factor step and by every context made from the factor, so
        with one factor serving several right-hand sides it covers all
        of their runs."""
        return self.op.matvec_count


@dataclass(eq=False)
class StandardFormContext(StandardFormFactor):
    """A factor together with the per-b pieces project_rhs computed."""

    x0s: tuple[np.ndarray, ...]  # null-space component of each split
    solver_rhs: np.ndarray       # b with the range of each split's Q removed


def _as_operator(K) -> LinearOperator:
    return K if isinstance(K, LinearOperator) else LinearOperator.from_matrix(K)


def _after(factor: StandardFormFactor, z: np.ndarray, m: int) -> np.ndarray:
    """K core^-1 z with the range of each of the first m splits' Q
    removed in turn, for a vector z or on each column of a block: the
    operator after m splits.

    Costs exactly one product with K per column.
    """
    t = factor.op.matvec(factor.reg.core_solve(z))
    for Q, _ in factor.splits[:m]:
        t = t - Q @ (Q.T @ t)
    return t


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
    split transforms the basis once more through K1), made through the
    factor's own handle on K.
    """
    base = _as_operator(K)
    m, n = base.shape
    if reg.n != n:
        raise ShapeMismatch(f"regularizer built for n={reg.n}, operator has n={n}")

    op = LinearOperator(base.shape, base.matvec)
    factor = StandardFormFactor(reg=reg, op=op, prepare_matvecs=0,
                                splits=(_split_factor(op.matvec, reg.basis.V, m),))
    if reg.mode is Mode.TWO_SIDED:
        factor.splits += (_split_factor(lambda v: _after(factor, v, 1), reg.basis.V, m),)
    factor.prepare_matvecs = op.matvec_count
    return factor


def project_rhs(factor: StandardFormFactor, b: np.ndarray) -> StandardFormContext:
    """The per-b step: split b along each split in turn, for a
    right-hand side b or for each column of an m x s block of them,
    whose pieces are then blocks too.  A split with (operator) W = Q
    fits what is left of b by the operator on span(V), as the vector
    W Q^T b, and leaves the rest of b to the next split.

    Costs no products with K and leaves the factor as it was.
    """
    b = checked_rhs(b, factor.shape[0], block=np.ndim(b) == 2)
    x0s = []
    for Q, W in factor.splits:
        qtb = Q.T @ b
        x0s.append(W @ qtb)
        b = b - Q @ qtb
    # a shallow copy of the factor's fields, whose arrays the context
    # shares; a context given as the factor has its per-b pieces replaced
    return StandardFormContext(**dict(vars(factor), x0s=tuple(x0s), solver_rhs=b))


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
    """Oblique projector of the first split that restores the null-space
    component's slot: y - W Q^T K y, for a vector y or on each column of
    an n x s block.

    Costs one product with K per column when the null space is
    nontrivial, none otherwise.
    """
    y = checked_operand(y, ctx.shape[1])
    if ctx.reg.basis.ell == 0:
        return y.copy()
    Q, W = ctx.splits[0]
    return y - W @ (Q.T @ ctx.op.matvec(y))


def back_transform(ctx: StandardFormContext, z: np.ndarray) -> np.ndarray:
    """Map a transformed-space solution back to the original variables:
    a vector z for the context of one right-hand side, or each column of
    an n x s block Z for the context of an m x s block of them.  Any
    other shape raises ShapeMismatch.

    Costs one product with K per column when the null space is
    nontrivial, none otherwise, and one more in two-sided mode, for the
    second split's projector z - W Q^T K1 z.  The residual is
    preserved exactly: for the returned x, ||K x - b|| equals the
    transformed residual.
    """
    z = checked_operand(z, ctx.shape[1])
    if z.shape[1:] != ctx.solver_rhs.shape[1:]:
        raise ShapeMismatch(f"z has shape {z.shape}, the context's right-hand "
                            f"side {ctx.solver_rhs.shape}")
    for m in range(len(ctx.splits) - 1, 0, -1):
        # split m's oblique projector, with the operator after m splits
        Q, W = ctx.splits[m]
        z = z - W @ (Q.T @ _after(ctx, z, m)) + ctx.x0s[m]
    y = ctx.reg.core_solve(z)
    return apply_pk_dagger(ctx, y) + ctx.x0s[0]


def k2_operator(ctx: StandardFormContext) -> StandardFormContext:
    """The transformed operator, which is the context itself."""
    return ctx
