import numpy as np
import pytest

from ldgrd.assembly1d import FluxConfig, assemble
from ldgrd.linalg import SingularSystemError, from_coo, lu_solve, matvec, residual_inf
from ldgrd.mesh import MeshParams, build_shishkin_1d
from ldgrd.problems import poly_exact_1d


def dense_to_sparse(A):
    rows, cols = np.nonzero(A)
    return from_coo(A.shape[0], rows, cols, A[rows, cols])


def test_identity_solve(rng):
    A = dense_to_sparse(np.eye(5))
    r = rng.standard_normal(5)
    assert np.allclose(lu_solve(A, r), r, atol=1e-15)


def test_two_by_two_hand_solve():
    A = dense_to_sparse(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = lu_solve(A, np.array([3.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_matvec_against_dense_oracle(rng):
    D = rng.standard_normal((3, 3))
    A = dense_to_sparse(D)
    x = rng.standard_normal(3)
    ref = np.zeros(3)
    for i in range(3):
        for j in range(3):
            ref[i] += D[i, j] * x[j]
    assert np.abs(matvec(A, x) - ref).max() < 1e-14
    assert np.abs(matvec(dense_to_sparse(np.zeros((3, 3)) + 0.0 * D), x)).max() == 0.0


def test_matvec_dimension_mismatch():
    A = dense_to_sparse(np.eye(3))
    with pytest.raises(ValueError):
        matvec(A, np.ones(4))


def test_singular_matrix_raises():
    A = dense_to_sparse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularSystemError):
        lu_solve(A, np.ones(2))


def test_nonfinite_rejected():
    A = dense_to_sparse(np.eye(2))
    with pytest.raises(ValueError):
        lu_solve(A, np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        from_coo(2, [0, 1], [0, 1], [1.0, np.inf])


def test_unrefinable_residual_raises():
    # SPD with condition number 1e14: one refinement step leaves a residual
    # of about 1e-3, far above the 2e-10 tolerance
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    A = dense_to_sparse(Q @ np.diag(np.geomspace(1.0, 1e-14, 8)) @ Q.T)
    with pytest.raises(SingularSystemError, match="misses the tolerance"):
        lu_solve(A, rng.standard_normal(8))


def test_duplicate_triplets_are_summed():
    A = from_coo(2, [0, 0, 1], [0, 0, 1], [1.0, 2.5, 1.0])
    assert np.allclose(matvec(A, np.array([1.0, 1.0])), [3.5, 1.0])


def test_residual_contract_on_assembled_system():
    eps = 1e-4
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=4))
    system = assemble(mesh, poly_exact_1d(eps), 1, FluxConfig.paper(eps, 4))
    x = lu_solve(system.matrix, system.rhs)
    r = residual_inf(system.matrix, x, system.rhs)
    assert r <= 1e-10 * max(1.0, np.abs(system.rhs).max())
