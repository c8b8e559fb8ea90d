"""Compressed-sparse-row storage and direct solution of the assembled systems."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

__all__ = [
    "SparseSystem",
    "SingularSystemError",
    "from_coo",
    "matvec",
    "lu_solve",
    "residual_inf",
]

RESIDUAL_TOL = 1e-10

logger = logging.getLogger("ldgrd")


class SingularSystemError(RuntimeError):
    """Raised when LU factorization hits a singular pivot or an eliminated
    block is singular, or when the refined solution still misses the
    residual tolerance."""


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


def _block_inverse(Aff: sp.csr_array) -> sp.csr_array:
    """Inverse of a matrix whose connected components are small: each
    component is inverted densely, batched over the components of one size."""
    n = Aff.shape[0]
    ncomp, labels = csgraph.connected_components(Aff, directed=False)
    sizes = np.bincount(labels, minlength=ncomp)
    start = np.cumsum(sizes) - sizes
    order = np.argsort(labels, kind="stable")  # the unknowns of each component, consecutive
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n) - start[labels[order]]
    coo = Aff.tocoo()
    entry_size = sizes[labels[coo.row]]
    rows, cols, vals = [], [], []
    for s in np.unique(sizes):
        comps = np.flatnonzero(sizes == s)
        slot = np.empty(ncomp, dtype=np.intp)
        slot[comps] = np.arange(comps.size)
        members = order[start[comps][:, None] + np.arange(s)]
        on = entry_size == s
        blocks = np.zeros((comps.size, s, s))
        blocks[slot[labels[coo.row[on]]], pos[coo.row[on]], pos[coo.col[on]]] = coo.data[on]
        try:
            inv = np.linalg.inv(blocks)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"an eliminated block of {s} unknowns is singular") from exc
        rows.append(np.broadcast_to(members[:, :, None], inv.shape).ravel())
        cols.append(np.broadcast_to(members[:, None, :], inv.shape).ravel())
        vals.append(inv.ravel())
    return sp.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n))


def _factor_lu(A: sp.csr_array):
    """Factor the whole of A; returns (solve, factored matrix, factor)."""
    try:
        factor = spla.splu(A.tocsc())
    except RuntimeError as exc:  # SuperLU reports the failing pivot index
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc
    return factor.solve, A, factor


def _factor_condensed(A: sp.csr_array, mask: np.ndarray):
    """Eliminate the unknowns f = mask blockwise and factor the Schur
    complement S = A[u,u] - A[u,f] A[f,f]^-1 A[f,u] in the others; returns
    (solve, S, factor).  S is taken to be symmetric positive definite, so it
    is factored without pivoting."""
    f, u = np.flatnonzero(mask), np.flatnonzero(~mask)
    Af, Au = A[f], A[u]
    Aff_inv = _block_inverse(Af[:, f])
    Auf, Afu = Au[:, f], Af[:, u]
    S = (Au[:, u] - Auf @ (Aff_inv @ Afu)).tocsc()
    try:
        factor = spla.splu(S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(
            f"sparse LU factorization of the Schur complement failed: {exc}") from exc

    def solve(r):
        x = np.empty_like(r)
        x[u] = factor.solve(r[u] - Auf @ (Aff_inv @ r[f]))
        x[f] = Aff_inv @ (r[f] - Afu @ x[u])
        return x

    return solve, S, factor


def lu_solve(A: sp.csr_array, rhs: np.ndarray, eliminate=None) -> np.ndarray:
    """Direct sparse LU solve: SuperLU with partial pivoting on all of A.

    With ``eliminate`` (a boolean mask over the unknowns) the masked unknowns
    are condensed out instead: A[f,f] must split into small independent
    blocks, which are inverted exactly, and the Schur complement in the other
    unknowns must be symmetric positive definite, as for the flux unknowns of
    the LDG saddle-point systems; SuperLU factors that complement without
    pivoting, and the masked unknowns are recovered blockwise.

    On either path, performs one step of iterative refinement on the full
    system if the residual misses RESIDUAL_TOL * max(1, |rhs|_inf); raises
    SingularSystemError on a singular pivot or block, or if the refined
    residual still misses the tolerance.  Logs one DEBUG record per solve to
    the "ldgrd" logger: the path, the unknown count, the size, nnz and LU
    fill of the factored matrix, and the residual before and after
    refinement.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (A.shape[0],):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({A.shape[0]},)")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains non-finite entries")
    if eliminate is None:
        path, (solve, factored, factor) = "lu", _factor_lu(A)
    else:
        mask = np.asarray(eliminate, dtype=bool)
        if mask.shape != (A.shape[0],):
            raise ValueError(f"eliminate has shape {mask.shape}, expected ({A.shape[0]},)")
        if not mask.any():
            raise ValueError("eliminate selects no unknown")
        path, (solve, factored, factor) = "condensed", _factor_condensed(A, mask)
    x = solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solver produced non-finite values")
    tol = RESIDUAL_TOL * max(1.0, float(np.abs(rhs).max(initial=0.0)))
    residual = rhs - matvec(A, x)
    before = after = float(np.abs(residual).max(initial=0.0))
    refined = before > tol
    if refined:
        x = x + solve(residual)
        after = residual_inf(A, x, rhs)
    if logger.isEnabledFor(logging.DEBUG):  # reading L and U copies the factor
        logger.debug("lu_solve path=%s unknowns=%d factored=%d nnz=%d fill=%d "
                     "residual=%.3g refined=%s refined_residual=%.3g",
                     path, A.shape[0], factored.shape[0], factored.nnz,
                     factor.L.nnz + factor.U.nnz, before, refined, after)
    if after > tol:
        raise SingularSystemError(
            f"residual {after:.3g} after one refinement step misses the tolerance {tol:.3g}"
        )
    return x
