"""Mixed-form DG assembly on tensor-product meshes: per-direction upwind edge
fluxes, boundary penalties on U, and jump-penalized flux lines at index 3N/4
in each direction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly1d import (ASSEMBLY_EXTRA_NODES, FluxConfig, _check_consistent, _check_special,
                         table_matrix)
from .linalg import Elimination, KroneckerSumSolve, SparseSystem, from_coo, lu_solve
from .mesh import TensorMesh2D
from .polyspace import PiecewisePoly2D, gauss_rule, grad_matrix, leg_mass, legendre_basis

__all__ = [
    "LdgSolution2D",
    "assemble2d",
    "solve_2d",
    "bilinear_B2d",
    "coeffs_to_solution_2d",
    "solution_to_coeffs_2d",
]

@dataclass(frozen=True, eq=False)
class LdgSolution2D:
    """Discrete triple (U, P, Q) on a common tensor mesh and degree."""

    u: PiecewisePoly2D
    p: PiecewisePoly2D
    q: PiecewisePoly2D

    def __post_init__(self):
        if not (self.u.mesh is self.p.mesh is self.q.mesh):
            raise ValueError("U, P, Q must share one mesh")
        if not (self.u.degree == self.p.degree == self.q.degree):
            raise ValueError("U, P, Q must share one degree")


def _axis(m, k: int, cfg: FluxConfig):
    """One axis's b-free 1D table (assembly1d.table_matrix, per cell [flux, U]),
    the mask of its flux unknowns, and its mass (h/2)*diag(mass) in
    (cell, mode) order."""
    flux = np.tile(np.repeat([True, False], k + 1), m.ncells)
    return table_matrix(m, k, cfg), flux, ((0.5 * m.widths)[:, None] * leg_mass(k)).ravel()


def assemble2d(mesh: TensorMesh2D, problem, k: int, cfg: FluxConfig) -> SparseSystem:
    """Assemble the 3*N^2*(k+1)^2 system for the triple (U, P, Q).

    The unknowns are field-major [P; Q; U], each field in Kronecker order
    (x cell, x mode, y cell, y mode).  Apart from the reaction mass, each
    block is the Kronecker product of one axis's 1D operator table
    (assembly1d.table_matrix, split into flux and U blocks) with the mass M
    of the other axis: the table along x acts on (P, U), the one along y on
    (Q, U).
    """
    if k < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {k}")
    mx, my = mesh.mesh_x, mesh.mesh_y
    _check_consistent(mx, problem, cfg)
    _check_consistent(my, problem, cfg)
    nx, ny = mesh.shape
    if nx != ny:
        raise ValueError(
            f"the flux definition uses one special line index per direction; "
            f"got nx={nx} != ny={ny}"
        )
    B1 = k + 1
    B2 = B1 * B1
    rule = gauss_rule(k + 1 + ASSEMBLY_EXTRA_NODES)
    phi = legendre_basis(k, rule.nodes)
    area = np.multiply.outer(0.5 * mx.widths, 0.5 * my.widths)
    X4, Y4 = mesh.quad_points(rule.nodes, rule.nodes)
    shape4 = (nx, ny, rule.n, rule.n)
    bV = np.broadcast_to(np.asarray(problem.b(X4, Y4), dtype=float), shape4)
    fV = np.broadcast_to(np.asarray(problem.f(X4, Y4), dtype=float), shape4)
    # (b u, v) blocks, contracted one axis at a time (x, then y) by matmuls
    wpp = np.einsum("x,ax,mx->xam", rule.weights, phi, phi).reshape(rule.n, B2)
    b_blocks = (np.swapaxes(np.swapaxes(bV, 2, 3) @ wpp, 2, 3) @ wpp).reshape(
        nx, ny, B1, B1, B1, B1).transpose(0, 1, 2, 4, 3, 5)
    b_blocks = b_blocks * area[:, :, None, None, None, None]
    f_mom = np.einsum("ijxy,x,y,ax,by->ijab", fV, rule.weights, rule.weights, phi, phi)
    f_mom = f_mom * area[:, :, None, None]

    n = nx * ny * B2
    cell = np.arange(n).reshape(nx, B1, ny, B1).transpose(0, 2, 1, 3)  # U index of (i, j, a, b)
    rows, cols = np.broadcast_arrays(cell[..., None, None], cell[:, :, None, None], b_blocks)[:2]
    reaction = sp.coo_array((b_blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))

    def blocks(m):  # the table's (flux, flux), (flux, U), (U, flux), (U, U) blocks, and M
        table, f, mass = _axis(m, k, cfg)
        return [table[r][:, c] for r in (f, ~f) for c in (f, ~f)], sp.diags_array(mass)

    (Xff, Xfu, Xuf, Xuu), Mx = blocks(mx)
    (Yff, Yfu, Yuf, Yuu), My = blocks(my)
    A = sp.block_array([[sp.kron(Xff, My), None, sp.kron(Xfu, My)],
                        [None, sp.kron(Mx, Yff), sp.kron(Mx, Yfu)],
                        [sp.kron(Xuf, My), sp.kron(Mx, Yuf),
                         sp.kron(Xuu, My) + sp.kron(Mx, Yuu) + reaction]], format="coo")
    matrix = from_coo(3 * n, A.row, A.col, A.data)
    rhs = np.concatenate([np.zeros(2 * n), f_mom.transpose(0, 2, 1, 3).ravel()])
    ordering = "field-major [P; Q; U], each (x cell, x mode, y cell, y mode)"
    return SparseSystem(matrix=matrix, rhs=rhs, ordering=ordering)


def coeffs_to_solution_2d(mesh: TensorMesh2D, k: int, x: np.ndarray) -> LdgSolution2D:
    nx, ny = mesh.shape
    p, q, u = np.asarray(x, dtype=float).reshape(3, nx, k + 1, ny, k + 1).transpose(
        0, 1, 3, 2, 4).copy()
    return LdgSolution2D(u=PiecewisePoly2D(mesh, u), p=PiecewisePoly2D(mesh, p),
                         q=PiecewisePoly2D(mesh, q))


def solution_to_coeffs_2d(t: LdgSolution2D) -> np.ndarray:
    return np.stack([t.p.coeffs, t.q.coeffs, t.u.coeffs]).transpose(0, 1, 3, 2, 4).ravel()


def _tensor_solve(mesh: TensorMesh2D, problem, k: int, cfg: FluxConfig):
    """The fast-diagonalization solve of the Schur complement in U if b is one
    positive constant on the assembly quadrature grid, else None."""
    nodes = gauss_rule(k + 1 + ASSEMBLY_EXTRA_NODES).nodes
    bV = np.asarray(problem.b(*mesh.quad_points(nodes, nodes)), dtype=float).ravel()
    if not (bV[0] > 0.0 and np.all(bV == bV[0])):
        return None

    def axis(m):  # the 1D Schur operator in U of the b-free table, and the U mass
        table, flux, mass = _axis(m, k, cfg)
        return Elimination(table, flux).schur(), mass

    return KroneckerSumSolve(float(bV[0]), axis(mesh.mesh_x), axis(mesh.mesh_y))


def solve_2d(mesh: TensorMesh2D, problem, k: int, cfg: FluxConfig) -> LdgSolution2D:
    system = assemble2d(mesh, problem, k, cfg)
    # P and Q are coupled only within their cell and across the special
    # lines, so they are condensed out of the solve.
    flux = np.arange(system.rhs.size) < 2 * system.rhs.size // 3
    x = lu_solve(system.matrix, system.rhs, eliminate=flux,
                 schur_solve=_tensor_solve(mesh, problem, k, cfg))
    return coeffs_to_solution_2d(mesh, k, x)


def bilinear_B2d(t: LdgSolution2D, z: LdgSolution2D, b, cfg: FluxConfig) -> float:
    """Evaluate the 2D compact bilinear form B(T; Z) for Z = (v, s, r).

    Same structure as the 1D form, applied once per direction: volume terms,
    upwind edge sums entering with a minus sign, downwind boundary edge
    terms, boundary penalties on U and the two jump-penalty lines.  On the
    diagonal it reproduces the squared 2D energy norm.
    """
    if t.u.mesh is not z.u.mesh or t.u.degree != z.u.degree:
        raise ValueError("both arguments must share mesh and degree")
    mesh = t.u.mesh
    nx, ny = mesh.shape
    _check_special(min(nx, ny), cfg.special_index)
    k = t.u.degree
    rule = gauss_rule(k + 1 + ASSEMBLY_EXTRA_NODES)
    G = grad_matrix(k)
    mass = leg_mass(k)
    hx, hy = mesh.mesh_x.widths, mesh.mesh_y.widths

    cU, cP, cQ = t.u.coeffs, t.p.coeffs, t.q.coeffs
    cV, cS, cR = z.u.coeffs, z.p.coeffs, z.q.coeffs

    bV = np.broadcast_to(np.asarray(b(*mesh.quad_points(rule.nodes, rule.nodes)), dtype=float),
                         (nx, ny, rule.n, rule.n))
    Uv = t.u.values_on_ref(rule.nodes, rule.nodes)
    Vv = z.u.values_on_ref(rule.nodes, rule.nodes)
    total = float(np.einsum("ijxy,x,y,i,j->", bV * Uv * Vv, rule.weights, rule.weights,
                            0.5 * hx, 0.5 * hy))
    area = np.multiply.outer(0.5 * hx, 0.5 * hy)
    total += (1.0 / cfg.eps) * float(np.einsum("ijmn,m,n,ij->", cP * cS, mass, mass, area))
    total += (1.0 / cfg.eps) * float(np.einsum("ijmn,m,n,ij->", cQ * cR, mass, mass, area))
    # (U, s_x) and (P, v_x): derivative in x-modes, mass in y-modes.
    total += float(np.einsum("ijan,am,ijmn,n,j->", cS, G, cU, mass, 0.5 * hy))
    total += float(np.einsum("ijan,am,ijmn,n,j->", cV, G, cP, mass, 0.5 * hy))
    # (U, r_y) and (Q, v_y).
    total += float(np.einsum("ijma,ab,ijmb,m,i->", cR, G, cU, mass, 0.5 * hx))
    total += float(np.einsum("ijma,ab,ijmb,m,i->", cV, G, cQ, mass, 0.5 * hx))

    def line_dot(A, Bc, weights):
        # A, Bc: (n_t, k+1) tangential coefficients on one mesh line.
        return float(np.einsum("jn,jn,n,j->", A, Bc, mass, weights))

    m = cfg.special_index
    # Lines normal to x carry P and the tangential weight hy/2, lines normal
    # to y carry Q and hx/2; x before y, as in the assembled matrix.
    for axis, flux_t, flux_z, w_t in ((0, t.p, z.p, 0.5 * hy), (1, t.q, z.q, 0.5 * hx)):
        n = mesh.shape[axis]
        for i in range(1, n):
            total -= line_dot(t.u.trace(axis, i, "left"), flux_z.jump(axis, i), w_t)
        for i in range(n):
            total -= line_dot(flux_t.trace(axis, i, "right"), z.u.jump(axis, i), w_t)
        total -= line_dot(flux_t.trace(axis, n, "left"), z.u.jump(axis, n), w_t)
        if cfg.lambda_jump != 0.0:
            total += cfg.lambda_jump * line_dot(flux_t.jump(axis, m), flux_z.jump(axis, m), w_t)
        total += cfg.lambda_boundary * (
            line_dot(t.u.jump(axis, 0), z.u.jump(axis, 0), w_t)
            + line_dot(t.u.jump(axis, n), z.u.jump(axis, n), w_t)
        )
    return total
