"""Energy-norm, balanced-norm and plain L2/Linf error measures of discrete
solutions against exact solutions, in 1D and 2D."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly1d import _check_special
from .polyspace import layer_rule, leg_mass, legendre_basis, tensor_sum

__all__ = [
    "ErrorReport",
    "error_report_1d",
    "discrete_energy_sq",
    "error_report_2d",
    "discrete_energy_sq_2d",
]

@dataclass(frozen=True)
class ErrorReport:
    """Error measures of one solve; err_l2_p is None in 1D."""

    err_energy: float
    err_balanced: float
    err_l2_u: float
    err_linf_u: float
    err_l2_q: float
    err_l2_p: float | None = None


def _error_pieces_1d(w, problem, cfg):
    """Shared integrals and traces for the 1D norms.

    Returns (l2q_sq, bu_sq, l2u_sq, linf_u, jump_eu_0, jump_eu_N, jump_eq_m)
    where e = exact - discrete and m is the special interface of cfg.
    """
    mesh = w.u.mesh
    N = mesh.ncells
    _check_special(N, cfg.special_index)
    rule = layer_rule(w.u.degree)
    h = mesh.widths
    X = mesh.quad_points(rule.nodes)

    eu = np.asarray(problem.u_exact(X), dtype=float) - w.u.values_on_ref(rule.nodes)
    eq = np.asarray(problem.q_exact(X), dtype=float) - w.q.values_on_ref(rule.nodes)
    bX = np.broadcast_to(np.asarray(problem.b(X), dtype=float), X.shape)
    wgt = 0.5 * h
    l2q_sq = float(np.einsum("jg,g,j->", eq**2, rule.weights, wgt))
    bu_sq = float(np.einsum("jg,g,j->", bX * eu**2, rule.weights, wgt))
    l2u_sq = float(np.einsum("jg,g,j->", eu**2, rule.weights, wgt))

    ends = np.array([-1.0, 1.0])
    Xe = mesh.quad_points(ends)
    eu_ends = np.asarray(problem.u_exact(Xe), dtype=float) - w.u.values_on_ref(ends)
    linf_u = float(max(np.abs(eu).max(), np.abs(eu_ends).max()))

    # Boundary jumps of the u-error follow the general interface convention
    # (exact traces included, even though they vanish at the boundary).
    u0 = float(np.asarray(problem.u_exact(np.array([0.0])), dtype=float)[0])
    u1 = float(np.asarray(problem.u_exact(np.array([1.0])), dtype=float)[0])
    jump_eu_0 = -(u0 - w.u.trace_right(0))
    jump_eu_N = u1 - w.u.trace_left(N)

    m = cfg.special_index
    xm = float(mesh.points[m])
    qm = float(np.asarray(problem.q_exact(np.array([xm])), dtype=float)[0])
    jump_eq_m = (qm - w.q.trace_left(m)) - (qm - w.q.trace_right(m))
    return l2q_sq, bu_sq, l2u_sq, linf_u, jump_eu_0, jump_eu_N, jump_eq_m


def error_report_1d(w, problem, cfg) -> ErrorReport:
    """Energy norm: eps^{-1}|e_q|^2 + |b^{1/2} e_u|^2 plus the lambda-weighted
    boundary and special-interface jumps.  Balanced norm: the flux term
    weighted eps^{-3/2} and unit weight on every jump."""
    l2q, bu, l2u, linf, j0, jN, jm = _error_pieces_1d(w, problem, cfg)
    energy = np.sqrt(l2q / problem.eps + bu + cfg.lambda_boundary * j0**2
                     + cfg.lambda_boundary * jN**2 + cfg.lambda_jump * jm**2)
    balanced = np.sqrt(l2q / problem.eps**1.5 + bu + j0**2 + jN**2 + jm**2)
    return ErrorReport(
        err_energy=float(energy),
        err_balanced=float(balanced),
        err_l2_u=float(np.sqrt(l2u)),
        err_linf_u=linf,
        err_l2_q=float(np.sqrt(l2q)),
    )


def discrete_energy_sq(w, b, cfg) -> float:
    """Squared energy norm of a discrete pair, via exact Legendre sums for
    the flux term and quadrature for the b-weighted term."""
    mesh = w.u.mesh
    N = mesh.ncells
    _check_special(N, cfg.special_index)
    k = w.u.degree
    mass = leg_mass(k)
    h = mesh.widths
    q_sq = float(np.einsum("jm,m,j->", w.q.coeffs**2, mass, 0.5 * h))
    rule = layer_rule(k)
    X = mesh.quad_points(rule.nodes)
    bX = np.broadcast_to(np.asarray(b(X), dtype=float), X.shape)
    Uv = w.u.values_on_ref(rule.nodes)
    bu_sq = float(np.einsum("jg,g,j->", bX * Uv**2, rule.weights, 0.5 * h))
    val = q_sq / cfg.eps + bu_sq
    val += cfg.lambda_boundary * w.u.jump(0) ** 2 + cfg.lambda_boundary * w.u.jump(N) ** 2
    val += cfg.lambda_jump * w.q.jump(cfg.special_index) ** 2
    return val


# -- 2D ----------------------------------------------------------------------


def _line_jump_sq(field_exact, poly, axis: int, i: int, rule) -> float:
    """Integral over the mesh line i normal to `axis` (x = x_i for axis 0,
    y = y_i for axis 1) of the squared error jump."""
    meshes = poly.mesh.mesh_x, poly.mesh.mesh_y
    normal, along = meshes[axis], meshes[1 - axis]
    phi = legendre_basis(poly.degree, rule.nodes)
    S = along.quad_points(rule.nodes)
    line = np.full_like(S, float(normal.points[i]))
    exact = np.asarray(field_exact(*((line, S) if axis == 0 else (S, line))), dtype=float)
    n = normal.ncells
    if i == 0:
        jump = -(exact - poly.trace(axis, 0, "right") @ phi)
    elif i == n:
        jump = exact - poly.trace(axis, n, "left") @ phi
    else:
        left = exact - poly.trace(axis, i, "left") @ phi
        right = exact - poly.trace(axis, i, "right") @ phi
        jump = left - right
    return float(np.einsum("jg,g,j->", jump**2, rule.weights, 0.5 * along.widths))


def _error_pieces_2d(t, problem, cfg):
    mesh = t.u.mesh
    _check_special(min(mesh.shape), cfg.special_index)
    mx, my = mesh.mesh_x, mesh.mesh_y
    rule = layer_rule(t.u.degree)
    wx, wy = 0.5 * mx.widths, 0.5 * my.widths
    X4, Y4 = mesh.quad_points(rule.nodes, rule.nodes)

    eu = np.asarray(problem.u_exact(X4, Y4), dtype=float) - t.u.values_on_ref(rule.nodes, rule.nodes)
    ep_ = np.asarray(problem.p_exact(X4, Y4), dtype=float) - t.p.values_on_ref(rule.nodes, rule.nodes)
    eq = np.asarray(problem.q_exact(X4, Y4), dtype=float) - t.q.values_on_ref(rule.nodes, rule.nodes)
    bV = np.broadcast_to(np.asarray(problem.b(X4, Y4), dtype=float), eu.shape)

    def vol(fsq):
        return tensor_sum(fsq, rule.weights, wx, wy)

    l2p_sq, l2q_sq = vol(ep_**2), vol(eq**2)
    bu_sq, l2u_sq = vol(bV * eu**2), vol(eu**2)

    ext = np.concatenate([rule.nodes, [-1.0, 1.0]])
    eu_ext = np.asarray(problem.u_exact(*mesh.quad_points(ext, ext)), dtype=float) \
        - t.u.values_on_ref(ext, ext)
    linf_u = float(np.abs(eu_ext).max())

    ju = tuple(_line_jump_sq(problem.u_exact, t.u, axis, i, rule)
               for axis, n in enumerate(mesh.shape) for i in (0, n))
    jp_m = _line_jump_sq(problem.p_exact, t.p, 0, cfg.special_index, rule)
    jq_m = _line_jump_sq(problem.q_exact, t.q, 1, cfg.special_index, rule)
    return l2p_sq, l2q_sq, bu_sq, l2u_sq, linf_u, ju, jp_m, jq_m


def error_report_2d(t, problem, cfg) -> ErrorReport:
    """As in 1D, except that the balanced norm keeps the lambda_jump weight
    on the special lines (unit weight on the boundary jumps)."""
    l2p, l2q, bu, l2u, linf, ju, jp, jq = _error_pieces_2d(t, problem, cfg)
    lam = cfg.lambda_jump
    energy = np.sqrt((l2p + l2q) / problem.eps + bu
                     + cfg.lambda_boundary * sum(ju) + lam * jp + lam * jq)
    balanced = np.sqrt((l2p + l2q) / problem.eps**1.5 + bu + sum(ju) + lam * jp + lam * jq)
    return ErrorReport(
        err_energy=float(energy),
        err_balanced=float(balanced),
        err_l2_u=float(np.sqrt(l2u)),
        err_linf_u=linf,
        err_l2_q=float(np.sqrt(l2q)),
        err_l2_p=float(np.sqrt(l2p)),
    )


def discrete_energy_sq_2d(t, b, cfg) -> float:
    """Squared 2D energy norm of a discrete triple (U, P, Q)."""
    mesh = t.u.mesh
    nx, ny = mesh.shape
    _check_special(min(nx, ny), cfg.special_index)
    k = t.u.degree
    mass = leg_mass(k)
    hx, hy = mesh.mesh_x.widths, mesh.mesh_y.widths
    area = np.outer(0.5 * hx, 0.5 * hy)

    def l2sq(poly):
        per_cell = np.einsum("ijmn,m,n->ij", poly.coeffs**2, mass, mass)
        return float((per_cell * area).sum())

    rule = layer_rule(k)
    bV = np.broadcast_to(np.asarray(b(*mesh.quad_points(rule.nodes, rule.nodes)), dtype=float),
                         (nx, ny, rule.n, rule.n))
    Uv = t.u.values_on_ref(rule.nodes, rule.nodes)
    bu_sq = tensor_sum(bV * Uv**2, rule.weights, 0.5 * hx, 0.5 * hy)
    w_t = 0.5 * hy, 0.5 * hx  # along the lines normal to x, and to y

    def edge_sq(poly, axis, i):
        return float(np.einsum("jn,n,j->", poly.jump(axis, i)**2, mass, w_t[axis]))

    val = (l2sq(t.p) + l2sq(t.q)) / cfg.eps + bu_sq
    val += cfg.lambda_boundary * sum(edge_sq(t.u, axis, i)
                                     for axis, n in enumerate(mesh.shape) for i in (0, n))
    val += cfg.lambda_jump * edge_sq(t.p, 0, cfg.special_index)
    val += cfg.lambda_jump * edge_sq(t.q, 1, cfg.special_index)
    return val
