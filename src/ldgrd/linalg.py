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
    "Pattern",
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
    """Assembled linear system; pattern, if given, is the Pattern that built
    matrix."""

    matrix: sp.csr_array
    rhs: np.ndarray
    pattern: Pattern | None = None


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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _indptr(major: np.ndarray, n: int) -> np.ndarray:
    """The int32 indptr of n rows (or columns) whose entries, stored in
    order, lie in rows (or columns) major."""
    return np.append(0, np.cumsum(np.bincount(major, minlength=n))).astype(np.int32)


class Pattern:
    """The square CSR pattern (int32 indptr and indices, read-only) that
    from_coo makes of one set of triplet positions, for building many
    matrices from values at those positions.  matrix(vals) equals
    from_coo(n, rows, cols, vals) bit for bit: from_coo buckets the
    triplets by row (stably), sorts each row's columns with scipy's unstable
    sort and sums each run of equal columns from left to right.  The same
    scipy sort, run once on the triplet numbers, finds that order: every
    entry's first triplet (first), then, for the entries with a j-th one,
    their places and that triplet (later[j-1]).

    A pattern also keeps the column order of SuperLU's factors, which
    depends on the pattern only: lu_solve records COLAMD's perm_c at the
    first factorization of a matrix with this pattern, and later ones
    gather their values straight into the column-permuted CSC."""

    def __init__(self, n: int, rows, cols):
        rows, cols = np.asarray(rows), np.asarray(cols, dtype=np.int32)
        by_row = np.argsort(rows, kind="stable")
        indptr = _indptr(rows, n)
        probe = sp.csr_array((by_row.astype(float), cols[by_row], indptr), shape=(n, n))
        probe.sort_indices()
        source, col = probe.data.astype(np.intp), probe.indices
        row = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        start = np.flatnonzero(np.append(True, (col[1:] != col[:-1]) | (row[1:] != row[:-1])))
        count = np.diff(start, append=source.size)
        self.n = n
        self.first = _frozen(source[start])
        self.later = []
        for j in range(1, count.max(initial=1)):
            more = count > j
            self.later.append((_frozen(np.flatnonzero(more)), _frozen(source[start[more] + j])))
        self.indices = _frozen(col[start])
        self.indptr = _frozen(_indptr(row[start], n))
        self.perm_c = None

    def matrix(self, vals: np.ndarray) -> sp.csr_array:
        """The CSR matrix of the triplet values vals; it holds this
        pattern's indptr itself and a view of its indices."""
        data = vals[self.first]
        for where, which in self.later:
            data[where] += vals[which]
        if not np.all(np.isfinite(data)):
            raise ValueError("matrix contains non-finite entries")
        return sp.csr_array((data, self.indices, self.indptr), shape=(self.n, self.n))

    def _order_columns(self, perm_c: np.ndarray) -> None:
        """Record perm_c, and where each CSR entry goes in the CSC of the
        columns in that order: column perm_c[c] holds column c."""
        col = perm_c[self.indices]
        self._to_csc = _frozen(np.argsort(col, kind="stable"))
        rows = np.repeat(np.arange(self.n, dtype=np.int32), np.diff(self.indptr))
        self._csc_indices = _frozen(rows[self._to_csc])
        self._csc_indptr = _frozen(_indptr(col, self.n))
        self.perm_c = _frozen(np.array(perm_c))

    def _permuted_csc(self, A: sp.csr_array) -> sp.csc_array:
        return sp.csc_array((A.data[self._to_csc], self._csc_indices, self._csc_indptr),
                            shape=A.shape)


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


def _splu(M: sp.csr_array, pattern: Pattern | None = None):
    """SuperLU factor of M; returns (solve, record fields).  COLAMD orders
    the columns, unless pattern, M's Pattern, holds the order of an earlier
    factorization (record ordering=reused): then the columns in that order
    are factored as they stand (permc_spec NATURAL), which gives the same
    factors bit for bit, and x is permuted back."""
    reused = pattern is not None and pattern.perm_c is not None
    try:
        if reused:
            factor = spla.splu(pattern._permuted_csc(M), permc_spec="NATURAL")
        else:
            factor = spla.splu(M.tocsc())
    except RuntimeError as exc:  # SuperLU reports the failing pivot index
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc
    if reused:
        solve = lambda b: factor.solve(b)[pattern.perm_c]  # noqa: E731
    else:
        solve = factor.solve
        if pattern is not None:
            pattern._order_columns(factor.perm_c)
    return solve, lambda: (f"factored={M.shape[0]} nnz={M.nnz} "
                           f"fill={factor.L.nnz + factor.U.nnz} "
                           f"ordering={'reused' if reused else 'colamd'}")


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


def lu_solve(A: sp.csr_array, rhs: np.ndarray, pattern: Pattern | None = None) -> np.ndarray:
    """Direct sparse LU solve: SuperLU with partial pivoting (record path
    lu), refined once on the residual if it misses its tolerance (see
    _refined_solve).  pattern, the Pattern that built A, lets every
    factorization after its first reuse the column order (see _splu).
    Raises SingularSystemError on a singular pivot, or if the refined
    residual still misses."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (A.shape[0],):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({A.shape[0]},)")
    if pattern is not None and A.indptr is not pattern.indptr:
        raise ValueError("the matrix was not built by the given pattern")
    return _refined_solve("lu", lambda v: matvec(A, v), lambda: _splu(A, pattern), rhs)
