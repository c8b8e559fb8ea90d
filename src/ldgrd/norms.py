"""Energy-norm, balanced-norm and plain L2/Linf error measures of discrete
solutions against exact solutions: one report for an LdgSolution in 1D and
2D, which pairs each of LdgSolution.fluxes with the same entry of
ProblemSpec.fluxes and whose only per-dimension choice is the balanced
norm's special-line weight (_per_dimension).

The exact solution and its fluxes are continuous and u vanishes on the
boundary (homogeneous Dirichlet data), so every jump of an error
e = exact - discrete is minus the jump of the discrete solution: the jump
terms of both norms are taken from the discrete solution alone."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .assembly1d import _check_dimension, _flux_weights
from .polyspace import (_cell_sums, _cells, _chunks, _grid, _values, layer_rule, leg_mass,
                        legendre_basis)

__all__ = ["ErrorReport", "error_report"]

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
    """The flux fields of LdgSolution.fluxes, in axis order, each with its
    exact flux from ProblemSpec.fluxes, the squared jumps of U on the
    boundary and of the fluxes on the special lines (integrated along each
    line by the Legendre mass in 2D), and the balanced norm's special-line
    weight: 1 in 1D, eps^{-1/2} in 2D."""
    axes, mass = w.u.mesh.axes, leg_mass(w.u.degree)

    def sq(poly, axis, i):  # the line normal to `axis` runs along the other axes
        j2 = poly.jump(i, axis) ** 2
        for m in axes[:axis] + axes[axis + 1:]:
            j2 = np.einsum("jn,n,j->", j2, mass, 0.5 * m.widths)
        return float(j2)

    fluxes = list(zip(w.fluxes, problem.fluxes))
    ju = sum(sq(w.u, axis, i) for axis, m in enumerate(axes) for i in (0, m.ncells))
    js = sum(sq(poly, axis, axes[axis].special_index) for axis, (poly, _) in enumerate(fluxes))
    lam_s = 1.0 if len(axes) == 1 else _flux_weights(problem.eps, True)[1]  # 2D: lambda_jump
    return fluxes, ju, js, lam_s


def _error_pieces(w, problem, fluxes):
    """[|e_flux|^2 per flux field, |b^{1/2} e_u|^2, |e_u|^2, max|e_u|] of
    the volume error, streamed over chunks of the leading cell axis (cells in
    1D, x-rows in 2D): u is sampled once on the quadrature nodes plus both
    cell ends per axis, each error field is reduced to per-cell sums
    (_cell_sums), and the widths are contracted last, one axis at a time."""
    mesh, k = w.u.mesh, w.u.degree
    dim, rule = len(mesh.shape), layer_rule(k)
    ext = np.concatenate([rule.nodes, [-1.0, 1.0]])
    phi_e, phi = legendre_basis(k, ext), legendre_basis(k, rule.nodes)
    nodes = (...,) + (slice(rule.n),) * dim
    sums, linf_u = np.empty((len(fluxes) + 2, *mesh.shape)), 0.0
    for s in _chunks(mesh.shape[0], math.prod(mesh.shape[1:]) * ext.size**dim):
        grid = _grid(_cells(mesh, s), ext)
        e = _values(w.u.coeffs[s], *(phi_e,) * dim)
        e -= problem.u_exact(*grid)
        linf_u = np.maximum(linf_u, max(e.max(), -e.min()))
        grid = [x[nodes] for x in grid]
        e = np.square(e[nodes])
        sums[-1, s] = _cell_sums(e, rule.weights, dim)
        e *= problem.b(*grid)
        sums[-2, s] = _cell_sums(e, rule.weights, dim)
        for i, (poly, exact) in enumerate(fluxes):
            e = _values(poly.coeffs[s], *(phi,) * dim)
            e -= exact(*grid)
            sums[i, s] = _cell_sums(np.square(e, out=e), rule.weights, dim)
    widths = [0.5 * m.widths for m in mesh.axes]
    return [float(reduce(lambda v, h: h @ v, widths, c)) for c in sums] + [float(linf_u)]


def error_report(w, problem, jump: bool = True) -> ErrorReport:
    """Error report of an LdgSolution in 1D or 2D.  Energy norm: eps^{-1}
    times the flux terms plus |b^{1/2} e_u|^2, plus the boundary and
    special-line jumps weighted by _flux_weights(problem.eps, jump).
    Balanced norm: the flux terms weighted eps^{-3/2}, unit weight on the
    boundary jumps, and the special-line weight of _per_dimension, which
    does not depend on the flux."""
    _check_dimension(problem, len(w.fluxes))
    fluxes, ju, js, lam_s = _per_dimension(w, problem)
    lam_b, lam_j = _flux_weights(problem.eps, jump)
    *flux, bu, l2u, linf = _error_pieces(w, problem, fluxes)
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

