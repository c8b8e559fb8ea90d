"""Mixed-form DG assembly in 1D: elementwise variational equations coupled by
upwind numerical fluxes with boundary penalties and one interior jump penalty.
The solution container LdgSolution (U and one flux per axis), its
coefficient maps and the compact bilinear form bilinear_B (the
energy-identity test reference) are written once over the mesh axes and
serve 1D and 2D alike; LdgSolution.fluxes is the one place that orders the
fluxes (Q in 1D, P then Q in 2D).  Both solvers check their inputs in one
place, _check_consistent: degree, mesh and problem dimension, axis eps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import NamedTuple

import numpy as np

from .linalg import Pattern, lu_solve, sp
from .mesh import ShishkinMesh1D, _frozen
from .polyspace import (PiecewisePoly, _cell_sums, _cells, _check_input, _grid, _values, end_vals,
                        gauss_rule, grad_matrix, leg_mass, legendre_basis)

__all__ = [
    "LdgSolution",
    "SparseSystem",
    "assemble",
    "solve_1d",
    "bilinear_B",
    "coeffs_to_solution",
    "solution_to_coeffs",
]

ASSEMBLY_EXTRA_NODES = 1  # one node beyond exactness for the polynomial terms


@dataclass(frozen=True, eq=False, kw_only=True)
class LdgSolution:
    """Discrete solution U with the scaled flux of each axis: Q in 1D, P
    (x) and Q (y) in 2D, on a common mesh and degree; p is None exactly
    when the mesh has one axis."""

    u: PiecewisePoly
    q: PiecewisePoly
    p: PiecewisePoly | None = None

    def __post_init__(self):
        if (self.p is None) != (len(self.u.mesh.shape) == 1):
            raise ValueError("P must be given exactly when the mesh has two axes")
        if any(f.mesh is not self.u.mesh or f.degree != self.u.degree for f in self.fluxes):
            raise ValueError("U and its fluxes must share mesh and degree")

    @property
    def fluxes(self) -> tuple[PiecewisePoly, ...]:
        """The flux fields in axis order, each with its special line normal
        to its axis: (Q,) in 1D, (P, Q) in 2D."""
        return (self.q,) if self.p is None else (self.p, self.q)


_FLUX, _PRIMAL = 0, 1  # Q and U in 1D; P or Q, and U, per direction in 2D


class _Plan(NamedTuple):
    """The eps-independent part of the 1D table for one (N, k, special index,
    jump penalty on or off, reaction mass on or off), every array
    read-only.  traces holds each hat family's trace outer product without
    its weight (codes: 1, +-lambda_jump, +-lambda_boundary), and
    traces[hat_index] are the hats' blocks.  pattern (a linalg.Pattern)
    sums the table's blocks, in table order and row-major in each block,
    into the CSR matrix of assemble's unknown ordering."""

    traces: np.ndarray
    codes: np.ndarray
    hat_index: np.ndarray
    pattern: Pattern


def _flux_weights(eps: float, jump: bool) -> tuple[float, float]:
    """(lambda_boundary, lambda_jump), the stabilization of the numerical
    fluxes in 1D and 2D.

    The penalty on U at every boundary point (1D) or edge (2D) has weight
    lambda_boundary = sqrt(eps).  With jump, the flux also carries a jump
    penalty of weight lambda_jump = 1/sqrt(eps) at the mesh's special
    interface x_m (1D) or on both special lines x = x_m and y = y_m (2D),
    m = ShishkinMesh1D.special_index = 3N/4; jump=False recovers the plain
    upwind flux used for the ablation study (lambda_jump = 0).
    """
    return math.sqrt(eps), 1.0 / math.sqrt(eps) if jump else 0.0


@lru_cache(maxsize=1)
def _plan(N: int, k: int, m: int, jump: bool, reaction: bool) -> _Plan:
    """The scheme's b-independent operator in one direction, as one flat
    table of blocks (weighted by _table_sum for each case): the flux mass,
    G in (Q, U), G in (U, Q), with reaction the reaction mass of assemble
    (N blocks each), then the hats.  The hats hold the numerical-flux pair
    across the N+1 interfaces: U-hat (upwind U^-, plus
    lambda_jump*(Q^+ - Q^-) at the special interface m) enters the flux
    test rows; Q-hat (downwind Q^+, boundary values penalized by
    lambda_boundary*U at x_0 and -lambda_boundary*U at x_N) enters the
    primal test rows.  Each hat is
    tested from the cell right of the interface (+em) and from the cell left
    of it (-ep).  The order of the blocks fixes the order in which the
    entries at one matrix position are summed, and so the last bits of the
    matrix: the reaction mass right after G, and right-cell tests of the
    hats first, then left-cell tests, each in the listed order.  The
    pattern, its summation order and the column order of the LU factors
    depend on neither eps nor b; one entry serves a sweep's cases at one
    (N, k), which study.run_study computes back to back.  The old entry is
    dropped before the new plan is built, so at most one plan is held.
    """
    _plan.cache_clear()
    em, ep = end_vals(k)
    cell = 2 * np.arange(N)
    rows = [cell + _FLUX, cell + _FLUX, cell + _PRIMAL] + [cell + _PRIMAL] * reaction
    cols = [cell + _FLUX, cell + _PRIMAL, cell + _FLUX] + [cell + _PRIMAL] * reaction
    interior = np.arange(1, N)
    first, last = np.array([0]), np.array([N])
    # (test field, interfaces, trial cell offset, trial field, trial trace,
    # weight code: 1, +-lambda_jump, +-lambda_boundary)
    specs = [(_FLUX, interior, -1, _PRIMAL, ep, 0)]
    if jump:
        special = np.array([m])
        specs += [(_FLUX, special, 0, _FLUX, em, 1), (_FLUX, special, -1, _FLUX, ep, 2)]
    specs += [(_PRIMAL, first, 0, _FLUX, em, 0), (_PRIMAL, first, 0, _PRIMAL, em, 3),
              (_PRIMAL, interior, 0, _FLUX, em, 0),
              (_PRIMAL, last, -1, _FLUX, ep, 0), (_PRIMAL, last, -1, _PRIMAL, ep, 4)]
    traces, codes, counts = [], [], []
    for test_offset, test_trace in ((0, em), (-1, -ep)):
        for test_field, interfaces, trial_offset, trial_field, trial_trace, code in specs:
            j = interfaces[(interfaces + test_offset >= 0) & (interfaces + test_offset < N)]
            if j.size:
                rows.append(2 * (j + test_offset) + test_field)
                cols.append(2 * (j + trial_offset) + trial_field)
                traces.append(np.outer(test_trace, trial_trace))
                codes.append(code)
                counts.append(j.size)
    B = k + 1
    rows = (np.concatenate(rows)[:, None] * B + np.repeat(np.arange(B), B)).ravel()
    cols = (np.concatenate(cols)[:, None] * B + np.tile(np.arange(B), B)).ravel()
    return _Plan(_frozen(np.array(traces)), _frozen(np.array(codes)),
                 _frozen(np.repeat(np.arange(len(codes)), counts)), Pattern(2 * N * B, rows, cols))


def _flux_mass(mesh: ShishkinMesh1D, eps: float, mass: np.ndarray, out=None):
    return np.multiply((1.0 / eps * 0.5 * mesh.widths)[:, None, None], mass, out=out)


def _table_sum(mesh: ShishkinMesh1D, k: int, eps: float, jump: bool, reaction=None):
    """The matrix of the table's blocks, in the unknown ordering of assemble,
    bit for bit from_coo of their triplets (block by block in table order,
    row-major in each block), and its pattern.  reaction, the (N, k+1, k+1)
    blocks of the reaction mass, goes between G and the hats; without it
    the table has no such slice.  Only the block values are formed here.
    """
    N, B = mesh.params.N, k + 1
    plan = _plan(N, k, mesh.special_index, jump, reaction is not None)
    vals = np.empty((len(plan.hat_index) + (3 if reaction is None else 4) * N, B, B))
    _flux_mass(mesh, eps, np.diag(leg_mass(k)), out=vals[:N])
    vals[N:3 * N] = grad_matrix(k)  # G in both mixed field pairs
    if reaction is not None:
        vals[3 * N:4 * N] = reaction
    lam_b, lam_j = _flux_weights(eps, jump)
    hats = plan.traces * np.array([1.0, lam_j, -lam_j, lam_b, -lam_b])[plan.codes][:, None, None]
    np.take(hats, plan.hat_index, axis=0, out=vals[len(vals) - len(plan.hat_index):])
    return plan.pattern.matrix(vals.ravel()), plan.pattern


def _check_dimension(problem, dim: int) -> None:
    if len(problem.fluxes) != dim:  # one exact flux per axis
        raise ValueError(f"a {len(problem.fluxes)}D problem does not fit a {dim}D mesh")


def _check_consistent(mesh, problem, k: int, dim: int) -> None:
    _check_input(mesh, k, dim, "solver")
    _check_dimension(problem, dim)
    for m in mesh.axes:
        if not math.isclose(problem.eps, m.params.eps, rel_tol=1e-12):
            raise ValueError(f"problem eps={problem.eps} does not match mesh eps={m.params.eps}")


class SparseSystem(NamedTuple):
    """The assembled 1D system in lu_solve's argument order."""

    matrix: sp.csr_array
    rhs: np.ndarray
    pattern: Pattern


def assemble(mesh: ShishkinMesh1D, problem, k: int, jump: bool = True) -> SparseSystem:
    """Assemble the 2N(k+1)-dimensional system for the pair (Q, U).

    Unknown ordering is cell-major with the Q block before the U block in
    each cell; row blocks follow the same layout (flux-variable test
    equations first).  The flux weights are _flux_weights(problem.eps,
    jump).  The jump penalty couples the Q blocks of the two
    cells flanking the special interface into both of their test rows.
    """
    _check_consistent(mesh, problem, k, 1)
    N = mesh.params.N
    B = k + 1
    rule = gauss_rule(k + 1 + ASSEMBLY_EXTRA_NODES)
    phi = legendre_basis(k, rule.nodes)
    h = mesh.widths
    X = mesh.quad_points(rule.nodes)
    bX = np.broadcast_to(np.asarray(problem.b(X), dtype=float), X.shape)
    fX = np.broadcast_to(np.asarray(problem.f(X), dtype=float), X.shape)
    # The reaction blocks sum ((w*b)*phi_a)*phi_n over the nodes in order from
    # zero, as np.einsum("g,jg,ag,ng->jan", ...) does, to the last bit.
    b_blocks = np.zeros((N, B, B))
    for g, w in enumerate(rule.weights):
        b_blocks += ((w * bX[:, g])[:, None] * phi[:, g])[:, :, None] * phi[:, g]
    b_blocks *= (0.5 * h)[:, None, None]
    f_mom = np.einsum("g,jg,ag->ja", rule.weights, fX, phi) * (0.5 * h)[:, None]
    matrix, pattern = _table_sum(mesh, k, problem.eps, jump, b_blocks)
    rhs = np.zeros((N, 2, B))
    rhs[:, _PRIMAL] = f_mom
    return SparseSystem(matrix=matrix, rhs=rhs.ravel(), pattern=pattern)


def _ordering(shape: tuple[int, ...], k: int):
    """(shape, axis order) of the unknown vector on a mesh of cell counts
    `shape`: the vector read in that shape and transposed to that order is
    (field, cells per axis, modes per axis), fields in the order of
    LdgSolution.fluxes and then U.  1D is cell-major, (Q, U) per cell, the
    input of the SuperLU solve (assemble); 2D is field-major [P; Q; U],
    each field in LdgOperator2D's Kronecker order (x cell, x mode, y cell,
    y mode).  Both axis orders are their own inverse."""
    return {1: ((*shape, 2, k + 1), (1, 0, 2)),
            2: ((3, shape[0], k + 1, shape[-1], k + 1), (0, 1, 3, 2, 4))}[len(shape)]


def coeffs_to_solution(mesh, k: int, x: np.ndarray) -> LdgSolution:
    shape, order = _ordering(mesh.shape, k)
    *p, q, u = np.asarray(x, dtype=float).reshape(shape).transpose(order).copy()
    return LdgSolution(u=PiecewisePoly(mesh, u), q=PiecewisePoly(mesh, q),
                       p=PiecewisePoly(mesh, *p) if p else None)


def solution_to_coeffs(w: LdgSolution) -> np.ndarray:
    _, order = _ordering(w.u.mesh.shape, w.u.degree)
    return np.stack([f.coeffs for f in (*w.fluxes, w.u)]).transpose(order).ravel()


def solve_1d(mesh: ShishkinMesh1D, problem, k: int, jump: bool = True) -> LdgSolution:
    """Assemble, solve and unpack the discrete pair (Q, U)."""
    return coeffs_to_solution(mesh, k, lu_solve(*assemble(mesh, problem, k, jump)))


def _pair_sum(z, t, ops, weights) -> float:
    """The sum over cells and modes of z times t, each mode axis of t
    multiplied by its matrix in ops (row index on z's side) and each cell
    axis weighted by weights; scalars z and t (a 1D trace) take no ops."""
    cells, rows, cols = "ij"[:len(ops)], "ab"[:len(ops)], "mn"[:len(ops)]
    subs = [cells + rows, *(r + c for r, c in zip(rows, cols)), cells + cols, *cells]
    return float(np.einsum(",".join(subs) + "->", z, *ops, t, *weights))


def bilinear_B(t, z, problem, jump: bool = True) -> float:
    """The compact bilinear form B(T; Z) of two LdgSolution, with b and eps
    from the problem: the cell-sum of the elementwise equations with the fluxes
    substituted.  Past the b-weighted volume term, each axis a adds, with its
    flux LdgSolution.fluxes[a], the flux mass, the two G terms (G on a's mode,
    the Legendre mass and h/2 on the other axes) and the terms on the lines
    normal to a: upwind interface sums (with a minus sign), the downwind
    boundary term, the two boundary penalties on U and the flux jump penalty at
    the special line.  On the diagonal it is the squared energy norm."""
    if t.u.mesh is not z.u.mesh or t.u.degree != z.u.degree:
        raise ValueError("both arguments must share mesh and degree")
    _check_dimension(problem, len(t.fluxes))
    mesh, k, eps = t.u.mesh, t.u.degree, problem.eps
    axes, lam_b, lam_j = mesh.axes, *_flux_weights(eps, jump)
    rule, dim = gauss_rule(k + 1 + ASSEMBLY_EXTRA_NODES), len(axes)
    phi, mass, G = legendre_basis(k, rule.nodes), np.diag(leg_mass(k)), grad_matrix(k)
    halves = [0.5 * m.widths for m in axes]
    bV = np.asarray(problem.b(*_grid(_cells(mesh), rule.nodes)), dtype=float)
    uv = _values(t.u.coeffs, *(phi,) * dim) * _values(z.u.coeffs, *(phi,) * dim)
    total = float(reduce(lambda v, h: h @ v, halves, _cell_sums(bV * uv, rule.weights, dim)))
    for a, (m, tf, zf) in enumerate(zip(axes, t.fluxes, z.fluxes)):
        ops = [G if o == a else mass for o in range(dim)]
        width = [np.ones(m.params.N) if o == a else h for o, h in enumerate(halves)]
        total += (1.0 / eps) * _pair_sum(zf.coeffs, tf.coeffs, [mass] * dim, halves)
        total += _pair_sum(zf.coeffs, t.u.coeffs, ops, width)  # <U, r_a>
        total += _pair_sum(z.u.coeffs, tf.coeffs, ops, width)  # <flux, v_a>
        n, line = m.params.N, partial(_pair_sum, ops=[mass] * (dim - 1),  # along the other axes
                                    weights=halves[:a] + halves[a + 1:])
        for i in range(1, n):
            total -= line(zf.jump(i, a), t.u.trace(i, "left", a))
        for i in range(n):
            total -= line(z.u.jump(i, a), tf.trace(i, "right", a))
        total -= line(z.u.jump(n, a), tf.trace(n, "left", a))
        total += lam_b * (line(z.u.jump(0, a), t.u.jump(0, a))
                          + line(z.u.jump(n, a), t.u.jump(n, a)))
        if jump:
            total += lam_j * line(zf.jump(m.special_index, a), tf.jump(m.special_index, a))
    return total
