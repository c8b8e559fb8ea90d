"""Local L2 and Gauss-Radau projections and the layer-aware composite
interpolants used to measure interpolation error on graded meshes."""

from __future__ import annotations

import numpy as np

from .mesh import ShishkinMesh1D, TensorMesh2D
from .polyspace import (
    LocalPoly,
    PiecewisePoly1D,
    PiecewisePoly2D,
    end_vals,
    gauss_rule,
    legendre_basis,
)

__all__ = [
    "l2_project",
    "gauss_radau_minus",
    "gauss_radau_plus",
    "composite_u_1d",
    "composite_q_1d",
    "l2_interpolant_1d",
    "l2_project_2d",
    "gauss_radau_2d",
    "composite_u_2d",
    "composite_px_2d",
    "composite_qy_2d",
    "l2_interpolant_2d",
    "measure_interp_error",
    "measure_interp_error_2d",
]

DEFAULT_EXTRA_NODES = 4  # k+5 nodes: integrands contain layer exponentials


def _cell_moments(z, a: float, b: float, k: int, nq: int) -> np.ndarray:
    """Legendre coefficients of the L2 projection of z onto degree k on the
    interval (a, b), a cell or an edge."""
    rule = gauss_rule(nq)
    x = 0.5 * (a + b) + 0.5 * (b - a) * rule.nodes
    phi = legendre_basis(k, rule.nodes)
    zx = np.asarray(z(x), dtype=float)
    raw = phi @ (rule.weights * zx)
    return (2.0 * np.arange(k + 1) + 1.0) / 2.0 * raw


def l2_project(z, cell: tuple[float, float], k: int, nq: int | None = None) -> LocalPoly:
    """Local L2 projection onto polynomials of degree k on the cell (a, b)."""
    a, b = cell
    nq = nq if nq is not None else k + 1 + DEFAULT_EXTRA_NODES
    return LocalPoly(degree=k, coeffs=_cell_moments(z, a, b, k, nq))


def gauss_radau_minus(z, cell: tuple[float, float], k: int, nq: int | None = None) -> LocalPoly:
    """Projection matching moments against degree k-1 and the value of z at
    the right endpoint of the cell."""
    if k < 1:
        raise ValueError("Gauss-Radau projection needs degree k >= 1")
    a, b = cell
    nq = nq if nq is not None else k + 1 + DEFAULT_EXTRA_NODES
    c = _cell_moments(z, a, b, k, nq)
    # Moments against P_0..P_{k-1} coincide with the L2 coefficients; the
    # top coefficient is fixed by the endpoint condition at t = +1.
    zb = float(np.asarray(z(np.array([b])), dtype=float)[0])
    c[k] = zb - c[:k].sum()
    return LocalPoly(degree=k, coeffs=c)


def gauss_radau_plus(z, cell: tuple[float, float], k: int, nq: int | None = None) -> LocalPoly:
    """Mirror image of gauss_radau_minus: endpoint matched at the left end."""
    if k < 1:
        raise ValueError("Gauss-Radau projection needs degree k >= 1")
    a, b = cell
    nq = nq if nq is not None else k + 1 + DEFAULT_EXTRA_NODES
    c = _cell_moments(z, a, b, k, nq)
    za = float(np.asarray(z(np.array([a])), dtype=float)[0])
    em, _ = end_vals(k)
    c[k] = (za - c[:k] @ em[:k]) * em[k]
    return LocalPoly(degree=k, coeffs=c)


def _compose_1d(z, mesh: ShishkinMesh1D, k: int, rule_for_cell, nq) -> PiecewisePoly1D:
    N = mesh.ncells
    coeffs = np.empty((N, k + 1))
    for j in range(N):
        coeffs[j] = rule_for_cell(j)(z, mesh.cell(j), k, nq).coeffs
    return PiecewisePoly1D(mesh, coeffs)


def composite_u_1d(u, mesh: ShishkinMesh1D, k: int, nq: int | None = None) -> PiecewisePoly1D:
    """Layer-aware interpolant of the primal variable.

    Right-endpoint-matching Gauss-Radau on the fine cells except the last
    one (0-based cells 0..N/4-1 and 3N/4..N-2); plain L2 projection on the
    coarse interior cells and on the final cell.
    """
    N = mesh.ncells

    def pick(j):
        if j < N // 4 or (3 * N // 4 <= j < N - 1):
            return gauss_radau_minus
        return l2_project

    return _compose_1d(u, mesh, k, pick, nq)


def composite_q_1d(q, mesh: ShishkinMesh1D, k: int, nq: int | None = None) -> PiecewisePoly1D:
    """Layer-aware interpolant of the flux variable: L2 projection on the
    first cell, left-endpoint-matching Gauss-Radau everywhere else."""
    def pick(j):
        return l2_project if j == 0 else gauss_radau_plus

    return _compose_1d(q, mesh, k, pick, nq)


def l2_interpolant_1d(z, mesh: ShishkinMesh1D, k: int, nq: int | None = None) -> PiecewisePoly1D:
    """Cellwise L2 projection on every cell (no endpoint matching)."""
    return _compose_1d(z, mesh, k, lambda j: l2_project, nq)


# -- 2D projections ---------------------------------------------------------


def _cell_moments_2d(z, cell, k: int, nq: int) -> np.ndarray:
    (ax, bx), (ay, by) = cell
    rule = gauss_rule(nq)
    x = 0.5 * (ax + bx) + 0.5 * (bx - ax) * rule.nodes
    y = 0.5 * (ay + by) + 0.5 * (by - ay) * rule.nodes
    phi = legendre_basis(k, rule.nodes)
    zz = np.asarray(z(x[:, None], y[None, :]), dtype=float)
    raw = np.einsum("x,y,xy,mx,ny->mn", rule.weights, rule.weights, zz, phi, phi)
    scale = (2.0 * np.arange(k + 1) + 1.0) / 2.0
    return raw * scale[:, None] * scale[None, :]


def l2_project_2d(z, cell, k: int, nq: int | None = None) -> np.ndarray:
    """Tensor L2 projection coefficients (k+1, k+1) on one rectangular cell."""
    nq = nq if nq is not None else k + 1 + DEFAULT_EXTRA_NODES
    return _cell_moments_2d(z, cell, k, nq)


def gauss_radau_2d(z, cell, k: int, axis: int, side: str, nq: int | None = None) -> np.ndarray:
    """Directional Gauss-Radau projection on a rectangular cell.

    Volume moments are matched against polynomials one degree lower in the
    chosen axis (full degree in the other), and the trace on the matched
    edge is L2-fitted along that edge.  axis=0 grades in x, axis=1 in y;
    side 'minus' matches the upper edge of the axis, 'plus' the lower one.
    Realized as the 1D Gauss-Radau solve applied mode-by-mode on top of the
    tensor L2 moments, which is what the defining conditions factor into.
    """
    if k < 1:
        raise ValueError("Gauss-Radau projection needs degree k >= 1")
    nq = nq if nq is not None else k + 1 + DEFAULT_EXTRA_NODES
    (ax, bx), (ay, by) = cell
    c = _cell_moments_2d(z, cell, k, nq)
    em, _ = end_vals(k)
    if axis == 0:
        if side == "minus":
            edge = _cell_moments(lambda s: z(np.full_like(s, bx), s), ay, by, k, nq)
            c[k, :] = edge - c[:k, :].sum(axis=0)
        elif side == "plus":
            edge = _cell_moments(lambda s: z(np.full_like(s, ax), s), ay, by, k, nq)
            c[k, :] = (edge - em[:k] @ c[:k, :]) * em[k]
        else:
            raise ValueError(f"side must be 'minus' or 'plus', got {side!r}")
    elif axis == 1:
        if side == "minus":
            edge = _cell_moments(lambda s: z(s, np.full_like(s, by)), ax, bx, k, nq)
            c[:, k] = edge - c[:, :k].sum(axis=1)
        elif side == "plus":
            edge = _cell_moments(lambda s: z(s, np.full_like(s, ay)), ax, bx, k, nq)
            c[:, k] = (edge - c[:, :k] @ em[:k]) * em[k]
        else:
            raise ValueError(f"side must be 'minus' or 'plus', got {side!r}")
    else:
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    return c


def _fine_band(j: int, N: int) -> bool:
    """0-based cell index lies in a boundary-layer band, excluding the last cell."""
    return j < N // 4 or (3 * N // 4 <= j < N - 1)


def _mid_band(j: int, N: int) -> bool:
    return N // 4 <= j < 3 * N // 4


def composite_u_2d(u, mesh: TensorMesh2D, k: int, nq: int | None = None) -> PiecewisePoly2D:
    """Layer-aware 2D interpolant of u.

    On the edge-layer bands the Gauss-Radau projection acts in the
    layer-normal direction (upper-edge matching, exactly as in 1D); all
    remaining cells (interior block, corner blocks, outermost row and
    column) take the plain tensor L2 projection.
    """
    nx, ny = mesh.shape
    coeffs = np.empty((nx, ny, k + 1, k + 1))
    for i in range(nx):
        for j in range(ny):
            cell = mesh.cell(i, j)
            if _fine_band(i, nx) and _mid_band(j, ny):
                coeffs[i, j] = gauss_radau_2d(u, cell, k, axis=0, side="minus", nq=nq)
            elif _mid_band(i, nx) and _fine_band(j, ny):
                coeffs[i, j] = gauss_radau_2d(u, cell, k, axis=1, side="minus", nq=nq)
            else:
                coeffs[i, j] = l2_project_2d(u, cell, k, nq=nq)
    return PiecewisePoly2D(mesh, coeffs)


def composite_px_2d(p, mesh: TensorMesh2D, k: int, nq: int | None = None) -> PiecewisePoly2D:
    """Interpolant of the x-flux: L2 on the first column, left-edge-matching
    Gauss-Radau in x on all other cells."""
    nx, ny = mesh.shape
    coeffs = np.empty((nx, ny, k + 1, k + 1))
    for i in range(nx):
        for j in range(ny):
            cell = mesh.cell(i, j)
            if i == 0:
                coeffs[i, j] = l2_project_2d(p, cell, k, nq=nq)
            else:
                coeffs[i, j] = gauss_radau_2d(p, cell, k, axis=0, side="plus", nq=nq)
    return PiecewisePoly2D(mesh, coeffs)


def composite_qy_2d(q, mesh: TensorMesh2D, k: int, nq: int | None = None) -> PiecewisePoly2D:
    """Interpolant of the y-flux: L2 on the first row, bottom-edge-matching
    Gauss-Radau in y elsewhere."""
    nx, ny = mesh.shape
    coeffs = np.empty((nx, ny, k + 1, k + 1))
    for i in range(nx):
        for j in range(ny):
            cell = mesh.cell(i, j)
            if j == 0:
                coeffs[i, j] = l2_project_2d(q, cell, k, nq=nq)
            else:
                coeffs[i, j] = gauss_radau_2d(q, cell, k, axis=1, side="plus", nq=nq)
    return PiecewisePoly2D(mesh, coeffs)


def l2_interpolant_2d(z, mesh: TensorMesh2D, k: int, nq: int | None = None) -> PiecewisePoly2D:
    nx, ny = mesh.shape
    coeffs = np.empty((nx, ny, k + 1, k + 1))
    for i in range(nx):
        for j in range(ny):
            coeffs[i, j] = l2_project_2d(z, mesh.cell(i, j), k, nq=nq)
    return PiecewisePoly2D(mesh, coeffs)


# -- interpolation-error measurement ----------------------------------------


def measure_interp_error(field, interp: PiecewisePoly1D, norm: str = "l2",
                         nq: int | None = None) -> float:
    """L2 or max-norm distance between a callable field and a piecewise
    polynomial; the max norm samples quadrature nodes plus both cell ends."""
    mesh = interp.mesh
    k = interp.degree
    nq = nq if nq is not None else k + 1 + DEFAULT_EXTRA_NODES
    rule = gauss_rule(nq)
    X = mesh.quad_points(rule.nodes)
    diff = np.asarray(field(X), dtype=float) - interp.values_on_ref(rule.nodes)
    if norm == "l2":
        return float(np.sqrt(np.einsum("jg,g,j->", diff**2, rule.weights, 0.5 * mesh.widths)))
    if norm == "linf":
        ends = np.array([-1.0, 1.0])
        Xe = mesh.quad_points(ends)
        diff_e = np.asarray(field(Xe), dtype=float) - interp.values_on_ref(ends)
        return float(max(np.abs(diff).max(), np.abs(diff_e).max()))
    raise ValueError(f"norm must be 'l2' or 'linf', got {norm!r}")


def measure_interp_error_2d(field, interp: PiecewisePoly2D, norm: str = "l2",
                            nq: int | None = None) -> float:
    mesh = interp.mesh
    k = interp.degree
    nq = nq if nq is not None else k + 1 + DEFAULT_EXTRA_NODES
    rule = gauss_rule(nq)
    mx, my = mesh.mesh_x, mesh.mesh_y

    def sample(tx, ty):
        X, Y = mx.quad_points(tx), my.quad_points(ty)
        exact = np.asarray(field(X[:, None, :, None], Y[None, :, None, :]), dtype=float)
        return exact - interp.values_on_ref(tx, ty)

    diff = sample(rule.nodes, rule.nodes)
    if norm == "l2":
        val = np.einsum("ijxy,x,y,i,j->", diff**2, rule.weights, rule.weights,
                        0.5 * mx.widths, 0.5 * my.widths)
        return float(np.sqrt(val))
    if norm == "linf":
        ext = np.concatenate([rule.nodes, [-1.0, 1.0]])
        return float(np.abs(sample(ext, ext)).max())
    raise ValueError(f"norm must be 'l2' or 'linf', got {norm!r}")
