"""Regularization matrices by matrix nearness, a standard-form
transformation built on their null spaces, and range-restricted GMRES
with discrepancy-principle stopping, exercised on two classic
ill-posed test problems.

Importing the package loads no submodule: each public name is read
from its submodule on first use, so a program loads only the layers it
uses.
"""

import importlib

# the public names, by the submodule that defines them
_EXPORTS = {
    "errors": ("BadDimension", "NotSymmetric", "NumericsError", "OutOfRange", "ParseError",
               "RankDeficient", "ShapeMismatch", "SingularCore"),
    "linalg": ("LinearOperator", "frobenius_norm", "read_matrix", "thin_qr", "write_matrix",
               "write_vector"),
    "nearness": ("NullSpaceBasis", "distance_from_products",
                 "nearest_symmetric_with_nullspace", "nearest_with_nullspace",
                 "nearness_distance"),
    "problems": ("NoiseInfo", "TestProblem", "add_noise", "build_deriv2",
                 "build_phillips", "build_problem", "relative_error"),
    "regops": ("Mode", "ProjectedRegularizer", "REGULARIZER_NAMES",
               "RegularizerKind", "make_nullspace_basis", "make_regularization_matrix",
               "regularizer_from_name", "stacked_n2_bases", "stencil_product"),
    "solver": ("RRGMRESResult", "SolverConfig", "StopReason", "rrgmres_block",
               "rrgmres_solve"),
    "transform": ("StandardFormContext", "StandardFormFactor",
                  "apply_pk_dagger", "back_transform", "factor_transform",
                  "k2_operator", "prepare_context", "project_rhs"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, or one of the submodules above, loaded on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
