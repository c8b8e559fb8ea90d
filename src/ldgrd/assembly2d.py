"""Mixed-form DG assembly on tensor-product meshes: per-direction upwind edge
fluxes, boundary penalties on U, and jump-penalized flux lines at index 3N/4
in each direction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly1d import (ASSEMBLY_EXTRA_NODES, FluxConfig, _block_triplets, _check_consistent,
                         _check_special, _couplings, table_matrix)
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

_P, _Q, _U = 0, 1, 2  # per-cell block order


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


def assemble2d(mesh: TensorMesh2D, problem, k: int, cfg: FluxConfig) -> SparseSystem:
    """Assemble the 3*N^2*(k+1)^2 system for the triple (U, P, Q).

    Cells are numbered lexicographically with the x index fastest; each
    cell's unknowns are ordered [P, Q, U] blocks of tensor-Legendre modes
    (x-mode major).  Apart from the reaction mass, the system is the 1D
    operator table of each direction (assembly1d._couplings) times the
    tangential mass along the other one, a Kronecker product per cell pair.
    """
    if k < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {k}")
    mx, my = mesh.mesh_x, mesh.mesh_y
    _check_consistent(mx, problem, cfg)
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
    hx, hy = mx.widths, my.widths
    X4, Y4 = mesh.quad_points(rule.nodes, rule.nodes)
    shape4 = (nx, ny, rule.n, rule.n)
    bV = np.broadcast_to(np.asarray(problem.b(X4, Y4), dtype=float), shape4)
    fV = np.broadcast_to(np.asarray(problem.f(X4, Y4), dtype=float), shape4)
    # (b u, v) blocks, contracted one axis at a time (x, then y) by matmuls
    wpp = np.einsum("x,ax,mx->xam", rule.weights, phi, phi).reshape(rule.n, B2)
    b_blocks = (np.swapaxes(np.swapaxes(bV, 2, 3) @ wpp, 2, 3) @ wpp).reshape(
        nx, ny, B1, B1, B1, B1).transpose(0, 1, 2, 4, 3, 5)
    b_blocks = b_blocks.reshape(nx, ny, B2, B2) * np.multiply.outer(
        0.5 * hx, 0.5 * hy)[:, :, None, None]
    f_mom = np.einsum("ijxy,x,y,ax,by->ijab", fV, rule.weights, rule.weights, phi, phi)
    f_mom = f_mom.reshape(nx, ny, B2) * np.multiply.outer(0.5 * hx, 0.5 * hy)[:, :, None]

    def off(i, j, field):
        return ((j * nx + i) * 3 + field) * B2

    iU = off(np.arange(nx)[:, None], np.arange(ny), _U)
    parts = [_block_triplets(iU, iU, b_blocks)]
    # Every other block is a 1D table entry along the axis times the
    # tangential mass (h/2)*diag(mass) along the other one: kron(x, y)
    # factors, x-mode major.  The table's (flux, primal) fields are (P, U)
    # along x and (Q, U) along y.
    for axis, flux in ((0, _P), (1, _Q)):
        normal, along = (mx, my) if axis == 0 else (my, mx)
        t_mass = ((0.5 * along.widths)[:, None, None] * np.diag(leg_mass(k)))[None]
        tangential = np.arange(along.ncells)
        volume, hats = _couplings(normal, k, cfg)
        for t in volume + hats:
            factors = (t.blocks[:, None], t_mass)  # (n|1, 1|n_t, k+1, k+1) each
            fx, fy = factors if axis == 0 else factors[::-1]
            blocks = np.einsum("...ac,...bd->...abcd", fx, fy)
            test, trial = (t.test_cell[:, None], tangential), (t.trial_cell[:, None], tangential)
            if axis == 1:
                test, trial = test[::-1], trial[::-1]
            parts.append(_block_triplets(off(*test, (flux, _U)[t.test_field]),
                                         off(*trial, (flux, _U)[t.trial_field]),
                                         blocks.reshape(blocks.shape[:2] + (B2, B2))))

    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    matrix = from_coo(3 * nx * ny * B2, rows, cols, vals)
    rhs = np.zeros((ny, nx, 3, B2))
    rhs[:, :, _U] = f_mom.transpose(1, 0, 2)
    ordering = "cell-major lexicographic (x fastest); per cell [P, Q, U] tensor modes"
    return SparseSystem(matrix=matrix, rhs=rhs.ravel(), ordering=ordering)


def coeffs_to_solution_2d(mesh: TensorMesh2D, k: int, x: np.ndarray) -> LdgSolution2D:
    nx, ny = mesh.shape
    B1 = k + 1
    blocks = np.asarray(x, dtype=float).reshape(ny, nx, 3, B1, B1)

    def field(f):
        return PiecewisePoly2D(mesh, np.ascontiguousarray(blocks[:, :, f].transpose(1, 0, 2, 3)))

    return LdgSolution2D(u=field(_U), p=field(_P), q=field(_Q))


def solution_to_coeffs_2d(t: LdgSolution2D) -> np.ndarray:
    stacked = np.stack(
        [t.p.coeffs.transpose(1, 0, 2, 3),
         t.q.coeffs.transpose(1, 0, 2, 3),
         t.u.coeffs.transpose(1, 0, 2, 3)],
        axis=2,
    )
    return stacked.ravel()


def _tensor_solve(mesh: TensorMesh2D, problem, k: int, cfg: FluxConfig):
    """The fast-diagonalization solve of the Schur complement in U if b is one
    positive constant on the assembly quadrature grid, else None."""
    nodes = gauss_rule(k + 1 + ASSEMBLY_EXTRA_NODES).nodes
    bV = np.asarray(problem.b(*mesh.quad_points(nodes, nodes)), dtype=float).ravel()
    if not (bV[0] > 0.0 and np.all(bV == bV[0])):
        return None
    B1, (nx, ny) = k + 1, mesh.shape

    def axis(m):  # the 1D Schur operator in U of the b-free table, and the U mass
        flux = np.tile(np.repeat([True, False], B1), m.ncells)
        return (Elimination(table_matrix(m, k, cfg), flux).schur(),
                ((0.5 * m.widths)[:, None] * leg_mass(k)).ravel())

    # U is ordered [y cell, x cell, x mode, y mode]
    order = np.arange(nx * ny * B1 * B1).reshape(ny, nx, B1, B1).transpose(1, 2, 0, 3).ravel()
    return KroneckerSumSolve(float(bV[0]), axis(mesh.mesh_x), axis(mesh.mesh_y), order)


def solve_2d(mesh: TensorMesh2D, problem, k: int, cfg: FluxConfig) -> LdgSolution2D:
    system = assemble2d(mesh, problem, k, cfg)
    # P and Q are coupled only within their cell and across the special
    # lines, so they are condensed out of the solve.
    flux = np.tile(np.repeat(np.arange(3) != _U, (k + 1) ** 2), mesh.shape[0] * mesh.shape[1])
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
