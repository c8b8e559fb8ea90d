"""Distance of the shipped error reports from the converged discrete solution.

The oracle is iterative refinement with the residual computed in
np.longdouble and each correction solved in double by the shipped factor
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
ch. 12; Carson & Higham, SIAM J. Sci. Comput. 40, 2018).  Its last
correction is checked, so that the oracle itself is known to have
converged before the shipped report is measured against it.
"""

import dataclasses

import numpy as np
import pytest

from ldgrd.assembly1d import assemble, coeffs_to_solution, solve_1d
from ldgrd.assembly2d import LdgOperator2D, solve_2d
from ldgrd.linalg import _splu
from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from ldgrd.norms import error_report
from ldgrd.problems import get_problem

REFINEMENT_STEPS = 4
CONVERGED = 1e-14  # last correction, relative to max|x|


def longdouble_matvec(A, x):
    """A @ x for a CSR matrix A, with the products and row sums in np.longdouble."""
    products = A.data.astype(np.longdouble) * x[A.indices]
    out = np.zeros(A.shape[0], dtype=np.longdouble)
    starts = A.indptr[:-1]
    rows = np.flatnonzero(np.diff(A.indptr))  # reduceat needs the empty rows left out
    out[rows] = np.add.reduceat(products, starts[rows])
    return out


def converged_solution(A, rhs, solve):
    """The solution of A x = rhs refined REFINEMENT_STEPS times from solve(rhs)
    on the longdouble residual, in double; asserts the last correction is
    at most CONVERGED of max|x|."""
    x = solve(rhs).astype(np.longdouble)
    for _ in range(REFINEMENT_STEPS):
        correction = solve((rhs - longdouble_matvec(A, x)).astype(float))
        x += correction
    x = x.astype(float)
    assert np.abs(correction).max() <= CONVERGED * np.abs(x).max()
    return x


def report_distance(shipped, oracle):
    """The largest relative difference over the report's fields."""
    pairs = [(a, b) for a, b in zip(dataclasses.astuple(shipped), dataclasses.astuple(oracle))
             if b is not None]
    return max(abs(a - b) / abs(b) for a, b in pairs)


@pytest.mark.parametrize("k, bound", [(1, 1e-11), (2, 1e-9), (3, 1e-8)])
def test_1d_reports_near_the_converged_solution(k, bound):
    # measured: 4.8e-13 at k=1, 7.9e-11 at k=2 and 1.45e-9 at k=3
    N = 1024
    for eps in (1e-6, 1e-8, 1e-10, 1e-12):
        problem = get_problem("layer1d", eps)
        mesh = build_shishkin_1d(MeshParams(eps=eps, beta=problem.beta, sigma=k + 1.0, N=N))
        system = assemble(mesh, problem, k)
        solve, _ = _splu(system.matrix)
        x = converged_solution(system.matrix, system.rhs, solve)
        w = solve_1d(mesh, problem, k)
        distance = report_distance(error_report(w, problem),
                                   error_report(coeffs_to_solution(mesh, k, x), problem))
        assert distance <= bound, (eps, distance)


@pytest.mark.parametrize("name", ["layer2d", "layer2d_varb"])
@pytest.mark.parametrize("k, N", [(1, 64), (2, 32)])
def test_2d_reports_near_the_converged_solution(name, k, N):
    for eps in (1e-6, 1e-8, 1e-12):
        problem = get_problem(name, eps)
        mesh = build_shishkin_1d(MeshParams(eps=eps, beta=problem.beta, sigma=k + 1.0, N=N))
        mesh2 = build_tensor_2d(mesh, mesh)
        op = LdgOperator2D(mesh2, problem, k)
        solve, _ = op.factor()
        x = converged_solution(op.matrix(), op.rhs, solve)
        t = solve_2d(mesh2, problem, k)
        distance = report_distance(error_report(t, problem),
                                   error_report(coeffs_to_solution(mesh2, k, x), problem))
        assert distance <= 1e-12, (eps, distance)
