"""Mixed-form DG assembly on tensor-product meshes: per-direction upwind edge
fluxes, boundary penalties on U, and jump-penalized flux lines at index 3N/4
in each direction.  The solution is assembly1d.LdgSolution, whose ``fluxes``
give the flux order (P, then Q), and the compact bilinear form is the
axis-wise assembly1d.bilinear_B."""

from __future__ import annotations

import numpy as np

from .assembly1d import (ASSEMBLY_EXTRA_NODES, LdgSolution, _check_consistent, _flux_mass,
                         _flux_weights, coeffs_to_solution, table_matrix)
from .linalg import KroneckerSumSolve, _refined_solve, from_coo, pcg, sp
from .mesh import TensorMesh2D
from .polyspace import end_vals, gauss_rule, leg_mass, legendre_basis

__all__ = ["LdgOperator2D", "solve_2d"]


class _Axis:
    """One axis's b-free 1D table (assembly1d.table_matrix) split into its
    (flux, flux), (flux, U), (U, flux) and (U, U) blocks, the inverse of the
    first, the 1D Schur operator K in U with the mass (h/2)*diag(mass) in
    (cell, mode) order as the pair ``schur``.  The flux block is D +
    lambda_jump v v^T, D the flux mass and v the flux jump at the special
    interface, and is inverted by Sherman-Morrison (denominator >= 1)."""

    def __init__(self, m, k: int, eps: float, jump: bool):
        table = table_matrix(m, k, eps, jump)
        f = np.tile(np.repeat([True, False], k + 1), m.ncells)
        self.ff, self.fu, self.uf, self.uu = (table[r][:, c] for r in (f, ~f) for c in (f, ~f))
        d = _flux_mass(m, eps, leg_mass(k)).ravel()
        em, ep = end_vals(k)
        v, s = np.zeros(d.size), m.special_index * (k + 1)
        v[s - k - 1:s], v[s:s + k + 1] = -ep, em
        w = sp.csr_array((v / d)[:, None])
        lam = _flux_weights(eps, jump)[1]
        c = lam / (1.0 + lam * (v @ (v / d)))
        self.ff_inv = sp.diags_array(1.0 / d) - c * (w @ w.T)
        self.mass = ((0.5 * m.widths)[:, None] * leg_mass(k)).ravel()
        self.schur = self.uu - self.uf @ (self.ff_inv @ self.fu), self.mass


def _half(a: _Axis, o: _Axis, F: np.ndarray, U: np.ndarray):
    """The flux rows and the U rows of axis a's table times the mass of axis
    o, applied to the flux field F and to U, both with a's unknowns first."""
    return (a.ff @ F + a.fu @ U) * o.mass, (a.uf @ F + a.uu @ U) * o.mass


def _contract(phi: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(I⊗phi^T) A (I⊗phi) for phi of shape (p, q) and A of shape (m p, n p),
    both axes cell-major, by two reshaped matmuls: with phi the basis at the
    nodes, the values at the nodes of the coefficients A; with phi^T, the
    moments of the nodal values A."""
    p, q = phi.shape
    A = (A.reshape(-1, p) @ phi).reshape(A.shape[0] // p, p, -1)
    return (phi.T @ A).reshape(-1, A.shape[-1])


class LdgOperator2D:
    """The 2D system of the triple (U, P, Q), kept as its two 1D axes.

    The unknowns are field-major [P; Q; U], each field in Kronecker order
    (x cell, x mode, y cell, y mode): an (Nx(k+1), Ny(k+1)) array V, with
    (X⊗Y) vec(V) = vec(X V Y^T).  With the x table acting on (P, U), the y
    table on (Q, U), the other axis's mass M and the reaction mass R:

        [Xff⊗My   0        Xfu⊗My               ]
        [0        Mx⊗Yff   Mx⊗Yfu               ]
        [Xuf⊗My   Mx⊗Yuf   Xuu⊗My + Mx⊗Yuu + R  ]

    R = E^T diag(bw) E is sum-factorized (Orszag 1980): E = Ex⊗Ey with
    Ex = I⊗phi^T the values of each x cell's modes at the quadrature nodes,
    and ``bw`` b times the quadrature weights and cell areas on the per-axis
    node grid, (x cell, x node) by (y cell, y node).  ``b_range`` is
    (min b, max b) over that grid.  If mesh_y is mesh_x, so is the y axis.
    """

    def __init__(self, mesh: TensorMesh2D, problem, k: int, jump: bool = True):
        _check_consistent(mesh, problem, k, 2)
        mx, my = mesh.mesh_x, mesh.mesh_y
        self.x = _Axis(mx, k, problem.eps, jump)
        self.y = self.x if my is mx else _Axis(my, k, problem.eps, jump)
        rule = gauss_rule(k + 1 + ASSEMBLY_EXTRA_NODES)
        self.phi = legendre_basis(k, rule.nodes)
        X, Y = (m.quad_points(rule.nodes).reshape(-1, 1) for m in (mx, my))
        wx, wy = (np.outer(0.5 * m.widths, rule.weights).ravel() for m in (mx, my))
        grid = (X.size, Y.size)
        bV = np.broadcast_to(np.asarray(problem.b(X, Y.T), dtype=float), grid)
        self.b_range = float(bV.min()), float(bV.max())
        self.bw = bV * wx[:, None] * wy
        fw = np.broadcast_to(np.asarray(problem.f(X, Y.T), dtype=float), grid) * wx[:, None] * wy
        f_mom = _contract(self.phi.T, fw)
        self.rhs = np.concatenate([np.zeros(2 * f_mom.size), f_mom.ravel()])

    def _fields(self, v: np.ndarray) -> np.ndarray:
        return v.reshape(3, self.x.mass.size, self.y.mass.size)

    def _react(self, U: np.ndarray) -> np.ndarray:
        """R U = Ex^T (bw ∘ (Ex U Ey^T)) Ey for U unknowns as an array."""
        return _contract(self.phi.T, self.bw * _contract(self.phi, U))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The matrix times v, by 1D sparse products and the sum-factorized R."""
        P, Q, U = self._fields(v)
        fp, up = _half(self.x, self.y, P, U)
        fq, uq = _half(self.y, self.x, Q.T, U.T)
        return np.concatenate([fp.ravel(), fq.T.ravel(), (up + uq.T + self._react(U)).ravel()])

    def _schur_apply(self, u: np.ndarray) -> np.ndarray:
        """S u, with S = Kx⊗My + Mx⊗Ky + R the Schur complement in U."""
        (Kx, mx), (Ky, my) = self.x.schur, self.y.schur
        U = u.reshape(mx.size, my.size)
        return ((Kx @ U) * my + mx[:, None] * (Ky @ U.T).T + self._react(U)).ravel()

    def factor(self):
        """(solve, record fields): the fast-diagonalization setup of the
        preconditioner b̄ Mx⊗My + Kx⊗My + Mx⊗Ky of S, b̄ = (min b + max b)/2,
        which is S itself for constant b.  Raises ValueError unless b is
        finite and positive on the quadrature grid."""
        lo, hi = self.b_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo > 0.0):
            raise ValueError(f"the 2D solve needs a finite positive b; got b in [{lo}, {hi}] "
                             f"on the quadrature grid")
        self._precondition = KroneckerSumSolve(0.5 * (lo + hi), self.x.schur, self.y.schur)
        self.iterations = []
        return self.solve, lambda: (f"factored={self.x.mass.size} "
                                    f"iterations={','.join(map(str, self.iterations))}")

    def solve(self, r: np.ndarray) -> np.ndarray:
        """The inverse times r, after factor(): P and Q are eliminated with
        each axis's Xff^-1, S is solved by PCG preconditioned by factor()'s
        solve (its iteration count appended to ``iterations``), and P and Q
        are recovered."""
        rP, rQ, rU = self._fields(r)
        x, y = self.x, self.y
        g = rU - x.uf @ (x.ff_inv @ rP) - (y.uf @ (y.ff_inv @ rQ.T)).T
        lo, hi = self.b_range
        U, iterations = pcg(self._schur_apply, self._precondition, g.ravel(), hi / lo)
        self.iterations.append(iterations)
        U = U.reshape(rU.shape)
        P = x.ff_inv @ (rP / y.mass - x.fu @ U)
        Q = y.ff_inv @ (rQ.T / x.mass - y.fu @ U.T)
        return np.concatenate([P.ravel(), Q.T.ravel(), U.ravel()])

    def matrix(self) -> sp.csr_array:
        """The assembled matrix: sp.kron of the same blocks, and R's per-cell
        blocks from bw, placed as COO."""
        x, y, phi = self.x, self.y, self.phi
        (B1, q), (nx, ny) = phi.shape, (s // phi.shape[1] for s in self.bw.shape)
        n = x.mass.size * y.mass.size
        pp = np.einsum("ap,bp->pab", phi, phi)
        blocks = np.einsum("ipjq,pac,qbd->ijabcd", self.bw.reshape(nx, q, ny, q), pp, pp)
        # the U index of each cell's (x mode, y mode), shape (nx, ny, k+1, k+1)
        cell = np.arange(n).reshape(nx, B1, ny, B1).transpose(0, 2, 1, 3)
        rows, cols = np.broadcast_arrays(cell[..., None, None], cell[:, :, None, None])
        reaction = sp.coo_array((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))
        Mx, My = sp.diags_array(x.mass), sp.diags_array(y.mass)
        A = sp.block_array([[sp.kron(x.ff, My), None, sp.kron(x.fu, My)],
                            [None, sp.kron(Mx, y.ff), sp.kron(Mx, y.fu)],
                            [sp.kron(x.uf, My), sp.kron(Mx, y.uf),
                             sp.kron(x.uu, My) + sp.kron(Mx, y.uu) + reaction]], format="coo")
        return from_coo(3 * n, A.row, A.col, A.data)


def solve_2d(mesh: TensorMesh2D, problem, k: int, jump: bool = True) -> LdgSolution:
    """LdgOperator2D.solve, refined once on the residual of its apply (record
    path pcg); nothing is assembled or factored.  Raises SingularSystemError
    if the refined residual misses its tolerance (see _refined_solve)."""
    op = LdgOperator2D(mesh, problem, k, jump)
    x = _refined_solve("pcg", op.apply, op.factor, op.rhs, always=True)
    return coeffs_to_solution(mesh, k, x)
