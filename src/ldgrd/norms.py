"""Energy-norm, balanced-norm and plain L2/Linf error measures of discrete
solutions against exact solutions, in 1D and 2D.

The exact solution and its fluxes are continuous and u vanishes on the
boundary (homogeneous Dirichlet data), so every jump of an error
e = exact - discrete is minus the jump of the discrete solution: the jump
terms of both norms are taken from the discrete solution alone."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly1d import _flux_weights
from .mesh import _quad_points
from .polyspace import _chunks, _row_sums, layer_rule, leg_mass, legendre_basis

__all__ = ["ErrorReport", "error_report_1d", "error_report_2d"]

@dataclass(frozen=True)
class ErrorReport:
    """Error measures of one solve; err_l2_p is None in 1D."""

    err_energy: float
    err_balanced: float
    err_l2_u: float
    err_linf_u: float
    err_l2_q: float
    err_l2_p: float | None = None


def _jumps_sq_1d(w):
    """Squared jumps of a discrete pair: (U at x_0 plus U at x_N, Q at the
    mesh's special interface)."""
    mesh = w.u.mesh
    return w.u.jump(0) ** 2 + w.u.jump(mesh.ncells) ** 2, w.q.jump(mesh.special_index) ** 2


def _error_pieces_1d(w, problem):
    """(|e_q|^2, |b^{1/2} e_u|^2, |e_u|^2, max|e_u|) of the volume error,
    streamed over chunks of cells: u is sampled once, on the quadrature nodes
    plus both cell ends, and each chunk leaves only its per-cell sums
    (_row_sums)."""
    mesh, k = w.u.mesh, w.u.degree
    rule = layer_rule(k)
    ext = np.concatenate([rule.nodes, [-1.0, 1.0]])
    phi_e, phi = legendre_basis(k, ext), legendre_basis(k, rule.nodes)
    sums, linf_u = np.empty((3, mesh.ncells)), 0.0
    for s in _chunks(mesh.ncells, ext.size):
        X = _quad_points((mesh.points[:-1][s], mesh.points[1:][s]), ext)
        eu = w.u.coeffs[s] @ phi_e - problem.u_exact(X)
        linf_u = np.maximum(linf_u, np.abs(eu).max())
        X, eu = X[:, :rule.n], eu[:, :rule.n]
        eq = w.q.coeffs[s] @ phi - problem.q_exact(X)
        sums[:, s] = [_row_sums(f, rule.weights) for f in (eq**2, problem.b(X) * eu**2, eu**2)]
    l2q, bu, l2u = (float(0.5 * mesh.widths @ per_cell) for per_cell in sums)
    return l2q, bu, l2u, float(linf_u)


def error_report_1d(w, problem, jump: bool = True) -> ErrorReport:
    """Energy norm: eps^{-1}|e_q|^2 + |b^{1/2} e_u|^2 plus the boundary and
    special-interface jumps weighted by _flux_weights(problem.eps, jump).
    Balanced norm: the flux term weighted eps^{-3/2} and unit weight on every
    jump."""
    lam_b, lam_j = _flux_weights(problem.eps, jump)
    ju, jm = _jumps_sq_1d(w)
    l2q, bu, l2u, linf = _error_pieces_1d(w, problem)
    energy = np.sqrt(l2q / problem.eps + bu + lam_b * ju + lam_j * jm)
    balanced = np.sqrt(l2q / problem.eps**1.5 + bu + ju + jm)
    return ErrorReport(
        err_energy=float(energy),
        err_balanced=float(balanced),
        err_l2_u=float(np.sqrt(l2u)),
        err_linf_u=linf,
        err_l2_q=float(np.sqrt(l2q)),
    )


# -- 2D ----------------------------------------------------------------------


def _jumps_sq_2d(t):
    """Squared jumps of a discrete triple, each integrated along its mesh line
    by the Legendre mass: (U on the four boundary lines, P on x = x_m plus Q
    on y = y_m, m the special index of each axis's mesh)."""
    mesh = t.u.mesh
    mass = leg_mass(t.u.degree)
    along = 0.5 * mesh.mesh_y.widths, 0.5 * mesh.mesh_x.widths  # lines normal to x, to y

    def sq(poly, axis, i):
        return float(np.einsum("jn,n,j->", poly.jump(axis, i) ** 2, mass, along[axis]))

    ju = sum(sq(t.u, axis, i) for axis, n in enumerate(mesh.shape) for i in (0, n))
    return ju, sq(t.p, 0, mesh.mesh_x.special_index) + sq(t.q, 1, mesh.mesh_y.special_index)


def _error_pieces_2d(t, problem):
    """(|e_p|^2, |e_q|^2, |b^{1/2} e_u|^2, |e_u|^2, max|e_u|) of the volume
    error, streamed over chunks of x-rows of cells: u is sampled once, on the
    quadrature nodes plus both cell ends per axis, each error field is formed
    in place and reduced to per-cell sums, and the widths are contracted last
    as tensor_sum contracts them."""
    mesh, k = t.u.mesh, t.u.degree
    rule = layer_rule(k)
    n, wt = rule.n, rule.weights
    ext = np.concatenate([rule.nodes, [-1.0, 1.0]])
    phi_e, phi = legendre_basis(k, ext), legendre_basis(k, rule.nodes)
    Xe, Ye = mesh.quad_points(ext, ext)
    X, Y = Xe[..., :n, :], Ye[..., :n]
    sums, linf_u = np.empty((4, *mesh.shape)), 0.0

    def per_cell(fsq):
        return ((fsq.reshape(-1, n) @ wt).reshape(-1, n) @ wt).reshape(fsq.shape[:2])

    for s in _chunks(mesh.shape[0], mesh.shape[1] * ext.size**2):
        e = phi_e.T @ (t.u.coeffs[s] @ phi_e)
        e -= problem.u_exact(Xe[s], Ye)
        linf_u = np.maximum(linf_u, max(e.max(), -e.min()))
        e = np.square(e[..., :n, :n])
        sums[3, s] = per_cell(e)
        e *= problem.b(X[s], Y)
        sums[2, s] = per_cell(e)
        for i, (poly, exact) in enumerate(((t.p, problem.p_exact), (t.q, problem.q_exact))):
            e = phi.T @ (poly.coeffs[s] @ phi)
            e -= exact(X[s], Y)
            sums[i, s] = per_cell(np.square(e, out=e))
    wx, wy = 0.5 * mesh.mesh_x.widths, 0.5 * mesh.mesh_y.widths
    l2p, l2q, bu, l2u = (float(wx @ cell_sums @ wy) for cell_sums in sums)
    return l2p, l2q, bu, l2u, float(linf_u)


def error_report_2d(t, problem, jump: bool = True) -> ErrorReport:
    """As in 1D, except that the balanced norm keeps the lambda_jump weight
    on the special lines (unit weight on the boundary jumps)."""
    lam_b, lam_j = _flux_weights(problem.eps, jump)
    ju, js = _jumps_sq_2d(t)
    l2p, l2q, bu, l2u, linf = _error_pieces_2d(t, problem)
    energy = np.sqrt((l2p + l2q) / problem.eps + bu + lam_b * ju + lam_j * js)
    balanced = np.sqrt((l2p + l2q) / problem.eps**1.5 + bu + ju + lam_j * js)
    return ErrorReport(
        err_energy=float(energy),
        err_balanced=float(balanced),
        err_l2_u=float(np.sqrt(l2u)),
        err_linf_u=linf,
        err_l2_q=float(np.sqrt(l2q)),
        err_l2_p=float(np.sqrt(l2p)),
    )

