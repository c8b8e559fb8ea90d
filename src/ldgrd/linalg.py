"""Compressed-sparse-row storage, the direct solve of the assembled 1D
systems and the pieces of the matrix-free 2D solve."""

from __future__ import annotations

import importlib
import logging
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseSystem",
    "SingularSystemError",
    "from_coo",
    "matvec",
    "lu_solve",
    "KroneckerSumSolve",
    "pcg",
]

RESIDUAL_TOL = 1e-10

logger = logging.getLogger("ldgrd")


class _Deferred:
    """Stands in for a module that is imported on the first attribute
    access, so that ``import ldgrd`` loads no scipy until a solve needs it.
    Every access looks the attribute up on the real module: a patch of that
    module is seen, and no function is cached here."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


sp = _Deferred("scipy.sparse")
spla = _Deferred("scipy.sparse.linalg")


class SingularSystemError(RuntimeError):
    """Raised when LU factorization hits a singular pivot, or when the
    refined solution still misses the residual tolerance."""


@dataclass(eq=False)
class SparseSystem:
    """Assembled linear system."""

    matrix: sp.csr_array
    rhs: np.ndarray


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
    if not np.all(np.isfinite(csr.data)):
        raise ValueError("matrix contains non-finite entries")
    return csr


def matvec(A: sp.csr_array, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (A.shape[1],):
        raise ValueError(f"vector has shape {x.shape}, expected ({A.shape[1]},)")
    return A @ x


class KroneckerSumSolve:
    """Solve of S = b*Mx⊗My + Kx⊗My + Mx⊗Ky, b > 0, K symmetric positive
    semidefinite and M positive diagonal (given as vectors), by fast
    diagonalization (Lynch, Rice & Thomas 1964): per axis, V = M^-1/2 W with
    (lam, W) = eigh(M^-1/2 K M^-1/2) has V^T M V = I and V^T K V = diag(lam).
    Vectors are in Kronecker order: x unknown major, y unknown minor.  If y
    is the pair x itself, its eigenpairs are computed once."""

    def __init__(self, b: float, x, y):
        self.b, self.axes = b, []
        for K, m in (x, y)[:1 if y is x else 2]:
            s = 1.0 / np.sqrt(m)
            lam, W = np.linalg.eigh(s[:, None] * K.toarray() * s)
            self.axes.append((s[:, None] * W, lam))

    def __call__(self, g: np.ndarray) -> np.ndarray:
        (Vx, lx), (Vy, ly) = self.axes[0], self.axes[-1]
        G = g.reshape(lx.size, ly.size)
        return (Vx @ ((Vx.T @ G @ Vy) / (self.b + lx[:, None] + ly)) @ Vy.T).ravel()


def pcg(apply, precondition, g: np.ndarray, kappa: float):
    """Preconditioned conjugate gradients (scipy's cg) for S x = g from x = 0,
    with S symmetric positive definite given by apply and kappa >= 1 a bound
    on the condition number of the preconditioned S.  Stops once
    |g - S x|_2 < RESIDUAL_TOL * |g|_2, or after twice the classical CG bound
    ceil(sqrt(kappa)/2 * ln(2/RESIDUAL_TOL)) iterations; a refinement step on
    the full system restores the accuracy (Higham 2002, ch. 12).  Returns
    (x, iteration count)."""
    cap = 2 * int(np.ceil(0.5 * np.sqrt(kappa) * np.log(2.0 / RESIDUAL_TOL)))
    steps = []
    S, M = (spla.LinearOperator((g.size, g.size), matvec=f, dtype=float)
            for f in (apply, precondition))
    x, _ = spla.cg(S, g, rtol=RESIDUAL_TOL, atol=0.0, maxiter=cap, M=M, callback=steps.append)
    return x, len(steps)


def _splu(M: sp.csr_array):
    """SuperLU factor of M; returns (solve, record fields)."""
    try:
        factor = spla.splu(M.tocsc())
    except RuntimeError as exc:  # SuperLU reports the failing pivot index
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc
    return factor.solve, lambda: (f"factored={M.shape[0]} nnz={M.nnz} "
                                  f"fill={factor.L.nnz + factor.U.nnz}")


def _refined_solve(path: str, apply, factor, rhs: np.ndarray, always: bool = False):
    """x = solve(rhs), with (solve, record) = factor(), then one refinement
    step on the residual of apply: always, or if the residual misses
    RESIDUAL_TOL * max(1, |rhs|_inf).  Logs one DEBUG record to the "ldgrd"
    logger: the path, the unknown count, the key=value fields of record()
    and the residual before and after refinement.  Raises ValueError on a
    non-finite rhs, and SingularSystemError on a non-finite x or if the
    refined residual still misses the tolerance (naming record()'s fields)."""
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains non-finite entries")
    solve, record = factor()
    x = solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solver produced non-finite values")
    residual = rhs - apply(x)
    before = after = float(np.abs(residual).max(initial=0.0))
    tol = RESIDUAL_TOL * max(1.0, float(np.abs(rhs).max(initial=0.0)))
    refined = always or before > tol
    if refined:
        x = x + solve(residual)
        after = float(np.abs(rhs - apply(x)).max(initial=0.0))
    if logger.isEnabledFor(logging.DEBUG):  # reading L and U copies the factor
        logger.debug("solve path=%s unknowns=%d %s residual=%.3g refined=%s "
                     "refined_residual=%.3g", path, rhs.size, record(), before, refined, after)
    if after > tol:
        raise SingularSystemError(f"{path} solve: residual {after:.3g} after one refinement "
                                  f"step misses the tolerance {tol:.3g} ({record()})")
    return x


def lu_solve(A: sp.csr_array, rhs: np.ndarray) -> np.ndarray:
    """Direct sparse LU solve: SuperLU with partial pivoting (record path
    lu), refined once on the residual if it misses its tolerance (see
    _refined_solve).  Raises SingularSystemError on a singular pivot, or if
    the refined residual still misses."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (A.shape[0],):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({A.shape[0]},)")
    return _refined_solve("lu", lambda v: matvec(A, v), lambda: _splu(A), rhs)
