"""The package's records that hold arrays compare and hash by identity."""
import dataclasses

import numpy as np
import pytest

from regnear.pipeline import run_single
from regnear.problems import add_noise, build_problem
from regnear.regops import make_nullspace_basis, regularizer_from_name
from regnear.solver import SolverConfig, rrgmres_solve
from regnear.transform import factor_transform, prepare_context


def _problem():
    return add_noise(build_problem("phillips", 8), 1e-2, seed=1)


def _context():
    prob = _problem()
    return prepare_context(prob.K, prob.b, regularizer_from_name("L1dP1", 8))


RECORDS = {
    "NullSpaceBasis": lambda: make_nullspace_basis("N1", 5),
    "ProjectedRegularizer": lambda: regularizer_from_name("L1dP1", 5),
    "StandardFormFactor": lambda: factor_transform(_problem().K,
                                                   regularizer_from_name("L20", 8)),
    "StandardFormContext": _context,
    "TestProblem": _problem,
    "NoiseInfo": lambda: _problem().noise,
    "RRGMRESResult": lambda: rrgmres_solve(_context(), _context().solver_rhs,
                                           SolverConfig(epsilon=0.1)),
    "RunResult": lambda: run_single(build_problem("phillips", 8), 1e-2, 1,
                                    "L1dP1", 1.01, 1.0),
}


def _with_fresh_arrays(record):
    """A record with the same fields, every array among them copied."""
    arrays = {f.name: np.copy(getattr(record, f.name))
              for f in dataclasses.fields(record)
              if isinstance(getattr(record, f.name), np.ndarray)}
    return dataclasses.replace(record, **arrays)


@pytest.mark.parametrize("name", RECORDS)
def test_compares_and_hashes_by_identity(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert record == record
    # a generated __eq__ would compare the arrays elementwise and fail
    # on the truth value of the result
    twin = _with_fresh_arrays(record)
    assert record != twin
    assert hash(record) == hash(record)
    assert record in {record}
