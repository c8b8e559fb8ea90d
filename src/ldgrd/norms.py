"""Energy-norm, balanced-norm and plain L2/Linf error measures of discrete
solutions against exact solutions, in 1D and 2D.

The exact solution and its fluxes are continuous and u vanishes on the
boundary (homogeneous Dirichlet data), so every jump of an error
e = exact - discrete is minus the jump of the discrete solution: the jump
terms of both norms are taken from the discrete solution alone."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .assembly1d import _flux_weights
from .mesh import TensorMesh2D, _quad_points
from .polyspace import _cell_sums, _chunks, layer_rule, leg_mass, legendre_basis

__all__ = ["ErrorReport", "error_report", "error_report_1d", "error_report_2d"]

@dataclass(frozen=True)
class ErrorReport:
    """Error measures of one solve; err_l2_p is None in 1D."""

    err_energy: float
    err_balanced: float
    err_l2_u: float
    err_linf_u: float
    err_l2_q: float
    err_l2_p: float | None = None


def _per_dimension(w, problem):
    """The mesh axes, the flux fields with their exact values (Q, or P then
    Q), the squared jumps of U on the boundary and of the fluxes on the
    special lines (in 2D integrated along each line by the Legendre mass),
    and the balanced norm's special-line weight: 1 in 1D, eps^{-1/2} in 2D."""
    mesh = w.u.mesh
    if not isinstance(mesh, TensorMesh2D):
        ju = w.u.jump(0) ** 2 + w.u.jump(mesh.ncells) ** 2
        return (mesh,), ((w.q, problem.q_exact),), ju, w.q.jump(mesh.special_index) ** 2, 1.0
    axes, mass = (mesh.mesh_x, mesh.mesh_y), leg_mass(w.u.degree)

    def sq(poly, axis, i):  # the line normal to `axis` runs along the other axis
        along = 0.5 * axes[1 - axis].widths
        return float(np.einsum("jn,n,j->", poly.jump(axis, i) ** 2, mass, along))

    ju = sum(sq(w.u, axis, i) for axis, m in enumerate(axes) for i in (0, m.ncells))
    js = sq(w.p, 0, axes[0].special_index) + sq(w.q, 1, axes[1].special_index)
    lam_s = _flux_weights(problem.eps, True)[1]  # the paper flux's lambda_jump
    return axes, ((w.p, problem.p_exact), (w.q, problem.q_exact)), ju, js, lam_s


def _error_pieces(w, problem, axes, fluxes):
    """[|e_flux|^2 per flux field, |b^{1/2} e_u|^2, |e_u|^2, max|e_u|] of
    the volume error, streamed over chunks of the leading cell axis (cells in
    1D, x-rows in 2D): the chunk's point grid is built per axis, u is sampled
    once on the quadrature nodes plus both cell ends per axis, each error
    field is reduced to per-cell sums (_cell_sums), and the widths are
    contracted last, one axis at a time."""
    dim, k = len(axes), w.u.degree
    rule = layer_rule(k)
    ext = np.concatenate([rule.nodes, [-1.0, 1.0]])
    phi_e, phi = legendre_basis(k, ext), legendre_basis(k, rule.nodes)
    nodes = (...,) + (slice(rule.n),) * dim
    shape = tuple(m.ncells for m in axes)
    sums, linf_u = np.empty((len(fluxes) + 2, *shape)), 0.0

    def values(c, phi):  # on the tensor grid of phi's nodes per axis
        return c @ phi if dim == 1 else phi.T @ (c @ phi)

    def points(a, r):  # of the cells r of axis a: cells in array axis a, nodes in dim + a
        x = _quad_points((axes[a].points[:-1][r], axes[a].points[1:][r]), ext)
        return np.expand_dims(x, [i for i in range(2 * dim) if i % dim != a])

    for s in _chunks(shape[0], math.prod(shape[1:]) * ext.size**dim):
        grid = [points(a, s if a == 0 else slice(None)) for a in range(dim)]
        e = values(w.u.coeffs[s], phi_e)
        e -= problem.u_exact(*grid)
        linf_u = np.maximum(linf_u, max(e.max(), -e.min()))
        grid = [x[nodes] for x in grid]
        e = np.square(e[nodes])
        sums[-1, s] = _cell_sums(e, rule.weights, dim)
        e *= problem.b(*grid)
        sums[-2, s] = _cell_sums(e, rule.weights, dim)
        for i, (poly, exact) in enumerate(fluxes):
            e = values(poly.coeffs[s], phi)
            e -= exact(*grid)
            sums[i, s] = _cell_sums(np.square(e, out=e), rule.weights, dim)
    return [float(reduce(lambda v, m: 0.5 * m.widths @ v, axes, c)) for c in sums] + [float(linf_u)]


def error_report(w, problem, jump: bool = True) -> ErrorReport:
    """Error report of a discrete pair (Q, U) or triple (U, P, Q).  Energy
    norm: eps^{-1} times the flux terms plus |b^{1/2} e_u|^2, plus the
    boundary and special-line jumps weighted by _flux_weights(problem.eps,
    jump).  Balanced norm: the flux terms weighted eps^{-3/2}, unit weight on
    the boundary jumps, and the special-line weight of _per_dimension, which
    does not depend on the flux."""
    axes, fluxes, ju, js, lam_s = _per_dimension(w, problem)
    lam_b, lam_j = _flux_weights(problem.eps, jump)
    *flux, bu, l2u, linf = _error_pieces(w, problem, axes, fluxes)
    energy = np.sqrt(sum(flux) / problem.eps + bu + lam_b * ju + lam_j * js)
    balanced = np.sqrt(sum(flux) / problem.eps**1.5 + bu + ju + lam_s * js)
    return ErrorReport(
        err_energy=float(energy),
        err_balanced=float(balanced),
        err_l2_u=float(np.sqrt(l2u)),
        err_linf_u=linf,
        err_l2_q=float(np.sqrt(flux[-1])),
        err_l2_p=float(np.sqrt(flux[0])) if len(flux) == 2 else None,
    )


error_report_1d = error_report_2d = error_report
