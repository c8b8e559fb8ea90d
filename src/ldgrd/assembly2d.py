"""Mixed-form DG assembly on tensor-product meshes: per-direction upwind edge
fluxes, boundary penalties on U, and jump-penalized flux lines at index 3N/4
in each direction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly1d import ASSEMBLY_EXTRA_NODES, _block_triplets, _check_consistent, _flux_coupling
from .linalg import SparseSystem, from_coo, lu_solve
from .mesh import TensorMesh2D
from .polyspace import PiecewisePoly2D, gauss_rule, grad_matrix, leg_mass, legendre_basis

__all__ = [
    "FluxConfig2D",
    "LdgSolution2D",
    "assemble2d",
    "solve_2d",
    "bilinear_B2d",
    "coeffs_to_solution_2d",
    "solution_to_coeffs_2d",
]

_P, _Q, _U = 0, 1, 2  # per-cell block order


@dataclass(frozen=True)
class FluxConfig2D:
    """Stabilization parameters of the 2D fluxes: a common boundary penalty
    weight on U for all four edge families, and the two jump-penalty weights
    on the special mesh lines (x-flux line for P, y-flux line for Q)."""

    eps: float
    lambda_boundary: float
    lambda_p: float
    lambda_q: float
    special_index: int

    @classmethod
    def paper(cls, eps: float, N: int) -> "FluxConfig2D":
        s = math.sqrt(eps)
        return cls(eps=eps, lambda_boundary=s, lambda_p=1.0 / s, lambda_q=1.0 / s,
                   special_index=3 * N // 4)

    @classmethod
    def classic(cls, eps: float, N: int) -> "FluxConfig2D":
        s = math.sqrt(eps)
        return cls(eps=eps, lambda_boundary=s, lambda_p=0.0, lambda_q=0.0,
                   special_index=3 * N // 4)


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


def assemble2d(mesh: TensorMesh2D, problem, k: int, cfg: FluxConfig2D,
               nq: int | None = None) -> SparseSystem:
    """Assemble the 3*N^2*(k+1)^2 system for the triple (U, P, Q).

    Cells are numbered lexicographically with the x index fastest; each
    cell's unknowns are ordered [P, Q, U] blocks of tensor-Legendre modes
    (x-mode major).  Edge couplings mirror the 1D pattern per direction,
    with the jump penalties oriented for a positive diagonal, as in 1D.
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
    nqv = nq if nq is not None else k + 1 + ASSEMBLY_EXTRA_NODES
    rule = gauss_rule(nqv)
    phi = legendre_basis(k, rule.nodes)
    G = grad_matrix(k)
    mass = leg_mass(k)
    hx, hy = mx.widths, my.widths
    X4, Y4 = mesh.quad_points(rule.nodes, rule.nodes)
    shape4 = (nx, ny, rule.n, rule.n)
    bV = np.broadcast_to(np.asarray(problem.b(X4, Y4), dtype=float), shape4)
    fV = np.broadcast_to(np.asarray(problem.f(X4, Y4), dtype=float), shape4)
    # (b u, v) blocks and f moments for all cells at once
    b_blocks = np.einsum("ijxy,x,y,ax,mx,by,ny->ijabmn",
                         bV, rule.weights, rule.weights, phi, phi, phi, phi)
    b_blocks = b_blocks.reshape(nx, ny, B2, B2) * np.multiply.outer(
        0.5 * hx, 0.5 * hy)[:, :, None, None]
    f_mom = np.einsum("ijxy,x,y,ax,by->ijab", fV, rule.weights, rule.weights, phi, phi)
    f_mom = f_mom.reshape(nx, ny, B2) * np.multiply.outer(0.5 * hx, 0.5 * hy)[:, :, None]

    def off(i, j, field):
        return ((j * nx + i) * 3 + field) * B2

    ci, cj = np.arange(nx)[:, None], np.arange(ny)[None, :]
    iP, iQ, iU = off(ci, cj, _P), off(ci, cj, _Q), off(ci, cj, _U)
    Dm = np.diag(mass)
    cell_mass = (0.25 * hx[:, None] * hy[None, :])[:, :, None, None] * np.kron(Dm, Dm)
    gx = (0.5 * hy)[None, :, None, None] * np.kron(G, Dm)
    gy = (0.5 * hx)[:, None, None, None] * np.kron(Dm, G)
    inv_eps = 1.0 / cfg.eps
    parts = [
        _block_triplets(iP, iP, inv_eps * cell_mass),
        _block_triplets(iP, iU, gx),
        _block_triplets(iQ, iQ, inv_eps * cell_mass),
        _block_triplets(iQ, iU, gy),
        _block_triplets(iU, iP, gx),
        _block_triplets(iU, iQ, gy),
        _block_triplets(iU, iU, b_blocks),
    ]
    # Edges normal to each axis carry the 1D flux coupling across them, times
    # the tangential mass (h/2)*diag(mass) along them: a Kronecker product.
    # fields maps the table's (flux, primal) fields; parts keeps the order in
    # which from_coo sums coincident entries, as in _flux_coupling.
    for axis, lambda_jump, fields, h_t in ((0, cfg.lambda_p, (_P, _U), hy),
                                           (1, cfg.lambda_q, (_Q, _U), hx)):
        along = np.arange(h_t.size)
        t_mass = (0.5 * h_t)[:, None, None] * Dm
        for t in _flux_coupling(nx, k, cfg.lambda_boundary, cfg.lambda_boundary, lambda_jump,
                                cfg.special_index):
            normal = np.outer(t.test_trace, t.trial_trace)
            blocks = t.weight * (normal[None, :, None, :, None] * t_mass[:, None, :, None, :])
            test = (t.test_cell[:, None], along)  # (i, j) of the cells, for axis 0
            trial = (t.trial_cell[:, None], along)
            if axis == 1:
                blocks = blocks.transpose(0, 2, 1, 4, 3)
                test, trial = test[::-1], trial[::-1]
            parts.append(_block_triplets(off(*test, fields[t.test_field]),
                                         off(*trial, fields[t.trial_field]),
                                         blocks.reshape(-1, B2, B2)))

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


def solve_2d(mesh: TensorMesh2D, problem, k: int, cfg: FluxConfig2D,
             nq: int | None = None) -> LdgSolution2D:
    system = assemble2d(mesh, problem, k, cfg, nq=nq)
    x = lu_solve(system.matrix, system.rhs)
    return coeffs_to_solution_2d(mesh, k, x)


def bilinear_B2d(t: LdgSolution2D, z: LdgSolution2D, b, cfg: FluxConfig2D,
                 nq: int | None = None) -> float:
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
    k = t.u.degree
    nqv = nq if nq is not None else k + 1 + ASSEMBLY_EXTRA_NODES
    rule = gauss_rule(nqv)
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
    for axis, lam, flux_t, flux_z, w_t in ((0, cfg.lambda_p, t.p, z.p, 0.5 * hy),
                                           (1, cfg.lambda_q, t.q, z.q, 0.5 * hx)):
        n = mesh.shape[axis]
        for i in range(1, n):
            total -= line_dot(t.u.trace(axis, i, "left"), flux_z.jump(axis, i), w_t)
        for i in range(n):
            total -= line_dot(flux_t.trace(axis, i, "right"), z.u.jump(axis, i), w_t)
        total -= line_dot(flux_t.trace(axis, n, "left"), z.u.jump(axis, n), w_t)
        if lam != 0.0:
            jt = flux_t.trace(axis, m, "left") - flux_t.trace(axis, m, "right")
            jz = flux_z.trace(axis, m, "left") - flux_z.trace(axis, m, "right")
            total += lam * line_dot(jt, jz, w_t)
        total += cfg.lambda_boundary * (
            line_dot(t.u.jump(axis, 0), z.u.jump(axis, 0), w_t)
            + line_dot(t.u.jump(axis, n), z.u.jump(axis, n), w_t)
        )
    return total
