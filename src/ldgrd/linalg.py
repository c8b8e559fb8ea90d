"""Compressed-sparse-row storage and direct solution of the assembled systems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SparseSystem",
    "SingularSystemError",
    "from_coo",
    "matvec",
    "lu_solve",
    "residual_inf",
]

RESIDUAL_TOL = 1e-10


class SingularSystemError(RuntimeError):
    """Raised when LU factorization hits a singular pivot, or when the
    refined solution still misses the residual tolerance."""


@dataclass(eq=False)
class SparseSystem:
    """Assembled linear system plus a description of the unknown ordering."""

    matrix: sp.csr_array
    rhs: np.ndarray
    ordering: str


def from_coo(n: int, rows, cols, vals) -> sp.csr_array:
    """Square CSR matrix from triplets; duplicate entries are summed and the
    column indices of each row sorted."""
    coo = sp.coo_matrix(
        (np.asarray(vals, dtype=float), (np.asarray(rows), np.asarray(cols))),
        shape=(n, n),
    )
    # coo_matrix picks the smallest index dtype that fits (int32, which
    # SuperLU takes without a copy); coo_array would keep the triplets' int64.
    csr = sp.csr_array(coo.tocsr())
    csr.sum_duplicates()
    csr.sort_indices()
    if not np.all(np.isfinite(csr.data)):
        raise ValueError("matrix contains non-finite entries")
    return csr


def matvec(A: sp.csr_array, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (A.shape[1],):
        raise ValueError(f"vector has shape {x.shape}, expected ({A.shape[1]},)")
    return A @ x


def residual_inf(A: sp.csr_array, x: np.ndarray, rhs: np.ndarray) -> float:
    return float(np.abs(matvec(A, x) - rhs).max(initial=0.0))


def lu_solve(A: sp.csr_array, rhs: np.ndarray) -> np.ndarray:
    """Direct sparse LU solve with partial pivoting.

    Performs one step of iterative refinement if the residual misses
    RESIDUAL_TOL * max(1, |rhs|_inf); raises SingularSystemError on a
    singular pivot, or if the refined residual still misses the tolerance.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (A.shape[0],):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({A.shape[0]},)")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains non-finite entries")
    try:
        factor = spla.splu(A.tocsc())
    except RuntimeError as exc:  # SuperLU reports the failing pivot index
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc
    x = factor.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solver produced non-finite values")
    tol = RESIDUAL_TOL * max(1.0, float(np.abs(rhs).max(initial=0.0)))
    residual = rhs - matvec(A, x)
    if np.abs(residual).max(initial=0.0) > tol:
        x = x + factor.solve(residual)
        refined = residual_inf(A, x, rhs)
        if refined > tol:
            raise SingularSystemError(
                f"residual {refined:.3g} after one refinement step misses the tolerance {tol:.3g}"
            )
    return x
