"""Regularization matrices by matrix nearness, a standard-form
transformation built on their null spaces, and range-restricted GMRES
with discrepancy-principle stopping, exercised on two classic
ill-posed test problems."""

from .errors import (BadDimension, DependentVectors, NoRoot, NotSymmetric,
                     NumericsError, ParseError, RankDeficient, ShapeMismatch,
                     SingularCore, SingularSystem, SingularTriangular)
from .linalg import (frobenius_inner, frobenius_norm, min_norm_lstsq_solve,
                     read_matrix, read_vector, solve_upper_triangular, thin_qr,
                     write_matrix, write_vector)
from .nearness import (NullSpaceBasis, build_projector, distance_from_products,
                       nearest_two_vector, nearest_symmetric_with_nullspace,
                       nearest_with_nullspace, nearness_distance)
from .problems import (NoiseInfo, TestProblem, add_noise, build_deriv2,
                       build_phillips, build_problem,
                       deriv2_entry_by_quadrature, relative_error)
from .regops import (Mode, ProjectedRegularizer, REGULARIZER_NAMES,
                     RegularizerKind, make_nullspace_basis, make_projector_closed,
                     make_regularization_matrix, regularizer_from_name,
                     stencil_product)
from .solver import (IterationLog, RRGMRESResult, SolverConfig, StopReason,
                     discrepancy_mu_solve, hessenberg_residual, rrgmres_block,
                     rrgmres_solve,
                     tikhonov_direct_oracle)
from .transform import (LinearOperator, StandardFormContext, StandardFormFactor,
                        apply_pk_dagger, back_transform,
                        factor_transform, k2_operator, prepare_context,
                        project_rhs, tikhonov_minimizer_via_transform)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
