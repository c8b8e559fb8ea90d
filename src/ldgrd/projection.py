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
    layer_nq,
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

# Every projection below is one moment kernel applied to arrays of cells (a
# single cell is the 0-d case), followed where needed by the Gauss-Radau
# endpoint fix along one coefficient axis.  The composites call the kernel
# once for the whole mesh and apply the fix where their region mask holds.


def _quad_points(cell, t: np.ndarray) -> np.ndarray:
    """Points (..., len(t)) of the reference nodes t on the intervals cell = (a, b)."""
    a, b = (np.asarray(e, dtype=float)[..., None] for e in cell)
    return 0.5 * (a + b) + 0.5 * (b - a) * t


def _moments(z, cell, k: int, nq: int) -> np.ndarray:
    """Legendre coefficients (..., k+1) of the L2 projection of z onto degree
    k on each interval cell = (a, b), a cell or an edge; a and b broadcast."""
    rule = gauss_rule(nq)
    phi = legendre_basis(k, rule.nodes)
    zx = np.asarray(z(_quad_points(cell, rule.nodes)), dtype=float)
    raw = np.matmul(phi, (rule.weights * zx)[..., None])[..., 0]
    return (2.0 * np.arange(k + 1) + 1.0) / 2.0 * raw


def _moments_2d(z, cell, k: int, nq: int) -> np.ndarray:
    """Tensor L2 coefficients (..., k+1, k+1) on each rectangle
    cell = ((xa, xb), (ya, yb)); the four bounds broadcast."""
    rule = gauss_rule(nq)
    x, y = (_quad_points(interval, rule.nodes) for interval in cell)
    phi = legendre_basis(k, rule.nodes)
    zz = np.asarray(z(x[..., :, None], y[..., None, :]), dtype=float)
    raw = np.einsum("x,y,...xy,mx,ny->...mn", rule.weights, rule.weights, zz, phi, phi)
    scale = (2.0 * np.arange(k + 1) + 1.0) / 2.0
    return raw * scale[:, None] * scale[None, :]


def _radau_fix(c: np.ndarray, trace, axis: int, side: str, where=True) -> np.ndarray:
    """Gauss-Radau endpoint fix of tensor moments c (..., k+1, k+1), in
    place on the cells where `where` holds; 1D moments enter as (..., 1, k+1).

    Moments against P_0..P_{k-1} along the coefficient axis `axis` (-2 for
    the x-mode, -1 for the y-mode) coincide with the L2 ones; the top mode
    is set, mode by mode in the other axis, so that the trace at t = +1
    (side 'minus') or t = -1 ('plus') equals `trace`.
    """
    k = c.shape[axis] - 1
    if k < 1:
        raise ValueError("Gauss-Radau projection needs degree k >= 1")
    rest = (slice(None),) * (-1 - axis)
    top, low = (..., k, *rest), (..., slice(k), *rest)
    if side == "minus":
        fixed = trace - c[low].sum(axis=axis)
    elif side == "plus":
        em, _ = end_vals(k)
        fixed = (trace - (c[low] @ em[:k] if axis == -1 else em[:k] @ c[low])) * em[k]
    else:
        raise ValueError(f"side must be 'minus' or 'plus', got {side!r}")
    c[top] = np.where(np.expand_dims(where, -1), fixed, c[top])
    return c


def _radau_1d(z, cell, k: int, nq: int, side: str, where=True) -> np.ndarray:
    """Gauss-Radau coefficients (..., k+1) on the intervals cell = (a, b)
    where `where` holds, L2 coefficients elsewhere."""
    c = _moments(z, cell, k, nq)
    end = np.expand_dims(cell[1] if side == "minus" else cell[0], -1)
    # as (..., 1, k+1) the 'plus' dot is one vector dot per cell, rounded as on one cell
    _radau_fix(c[..., None, :], np.asarray(z(end), dtype=float), -1, side, where)
    return c


def _radau_2d(z, c: np.ndarray, cell, k: int, nq: int, axis: int, side: str,
              where=True) -> np.ndarray:
    """Directional Gauss-Radau fix of the tensor moments c on the rectangles
    cell where `where` holds, with the L2 moments of the trace on the
    matched edge as the endpoint values."""
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    lo, hi = cell[axis]
    end = np.expand_dims(hi if side == "minus" else lo, -1)
    edge = _moments(lambda s: z(end, s) if axis == 0 else z(s, end), cell[1 - axis], k, nq)
    return _radau_fix(c, edge, axis - 2, side, where)  # x-mode is coefficient axis -2


def l2_project(z, cell: tuple[float, float], k: int, nq: int | None = None) -> LocalPoly:
    """Local L2 projection onto polynomials of degree k on the cell (a, b)."""
    return LocalPoly(degree=k, coeffs=_moments(z, cell, k, layer_nq(k, nq)))


def gauss_radau_minus(z, cell: tuple[float, float], k: int, nq: int | None = None) -> LocalPoly:
    """Projection matching moments against degree k-1 and the value of z at
    the right endpoint of the cell."""
    return LocalPoly(degree=k, coeffs=_radau_1d(z, cell, k, layer_nq(k, nq), "minus"))


def gauss_radau_plus(z, cell: tuple[float, float], k: int, nq: int | None = None) -> LocalPoly:
    """Mirror image of gauss_radau_minus: endpoint matched at the left end."""
    return LocalPoly(degree=k, coeffs=_radau_1d(z, cell, k, layer_nq(k, nq), "plus"))


def _fine_band(j: np.ndarray, N: int) -> np.ndarray:
    """0-based cell index lies in a boundary-layer band, excluding the last cell."""
    return (j < N // 4) | ((3 * N // 4 <= j) & (j < N - 1))


def _mid_band(j: np.ndarray, N: int) -> np.ndarray:
    return (N // 4 <= j) & (j < 3 * N // 4)


def composite_u_1d(u, mesh: ShishkinMesh1D, k: int, nq: int | None = None) -> PiecewisePoly1D:
    """Layer-aware interpolant of the primal variable.

    Right-endpoint-matching Gauss-Radau on the fine cells except the last
    one (0-based cells 0..N/4-1 and 3N/4..N-2); plain L2 projection on the
    coarse interior cells and on the final cell.
    """
    cells, N = (mesh.points[:-1], mesh.points[1:]), mesh.ncells
    return PiecewisePoly1D(mesh, _radau_1d(u, cells, k, layer_nq(k, nq), "minus",
                                           where=_fine_band(np.arange(N), N)))


def composite_q_1d(q, mesh: ShishkinMesh1D, k: int, nq: int | None = None) -> PiecewisePoly1D:
    """Layer-aware interpolant of the flux variable: L2 projection on the
    first cell, left-endpoint-matching Gauss-Radau everywhere else."""
    cells = mesh.points[:-1], mesh.points[1:]
    return PiecewisePoly1D(mesh, _radau_1d(q, cells, k, layer_nq(k, nq), "plus",
                                           where=np.arange(mesh.ncells) > 0))


def l2_interpolant_1d(z, mesh: ShishkinMesh1D, k: int, nq: int | None = None) -> PiecewisePoly1D:
    """Cellwise L2 projection on every cell (no endpoint matching)."""
    cells = mesh.points[:-1], mesh.points[1:]
    return PiecewisePoly1D(mesh, _moments(z, cells, k, layer_nq(k, nq)))


# -- 2D projections ---------------------------------------------------------


def l2_project_2d(z, cell, k: int, nq: int | None = None) -> np.ndarray:
    """Tensor L2 projection coefficients (k+1, k+1) on one rectangular cell."""
    return _moments_2d(z, cell, k, layer_nq(k, nq))


def gauss_radau_2d(z, cell, k: int, axis: int, side: str, nq: int | None = None) -> np.ndarray:
    """Directional Gauss-Radau projection on a rectangular cell.

    Volume moments are matched against polynomials one degree lower in the
    chosen axis (full degree in the other), and the trace on the matched
    edge is L2-fitted along that edge.  axis=0 grades in x, axis=1 in y;
    side 'minus' matches the upper edge of the axis, 'plus' the lower one.
    Realized as the 1D Gauss-Radau solve applied mode-by-mode on top of the
    tensor L2 moments, which is what the defining conditions factor into.
    """
    nq = layer_nq(k, nq)
    return _radau_2d(z, _moments_2d(z, cell, k, nq), cell, k, nq, axis, side)


def _mesh_cells(mesh: TensorMesh2D):
    """Every cell ((xa, xb), (ya, yb)) of the mesh, bounds broadcasting to (nx, ny)."""
    px, py = mesh.mesh_x.points[:, None], mesh.mesh_y.points[None, :]
    return (px[:-1], px[1:]), (py[:, :-1], py[:, 1:])


def composite_u_2d(u, mesh: TensorMesh2D, k: int, nq: int | None = None) -> PiecewisePoly2D:
    """Layer-aware 2D interpolant of u.

    On the edge-layer bands the Gauss-Radau projection acts in the
    layer-normal direction (upper-edge matching, exactly as in 1D); all
    remaining cells (interior block, corner blocks, outermost row and
    column) take the plain tensor L2 projection.
    """
    nx, ny = mesh.shape
    i, j = np.arange(nx)[:, None], np.arange(ny)[None, :]
    cells, nq = _mesh_cells(mesh), layer_nq(k, nq)
    c = _moments_2d(u, cells, k, nq)
    c = _radau_2d(u, c, cells, k, nq, 0, "minus", where=_fine_band(i, nx) & _mid_band(j, ny))
    c = _radau_2d(u, c, cells, k, nq, 1, "minus", where=_mid_band(i, nx) & _fine_band(j, ny))
    return PiecewisePoly2D(mesh, c)


def composite_px_2d(p, mesh: TensorMesh2D, k: int, nq: int | None = None) -> PiecewisePoly2D:
    """Interpolant of the x-flux: L2 on the first column, left-edge-matching
    Gauss-Radau in x on all other cells."""
    cells, nq = _mesh_cells(mesh), layer_nq(k, nq)
    return PiecewisePoly2D(mesh, _radau_2d(p, _moments_2d(p, cells, k, nq), cells, k, nq, 0,
                                           "plus", where=np.arange(mesh.shape[0])[:, None] > 0))


def composite_qy_2d(q, mesh: TensorMesh2D, k: int, nq: int | None = None) -> PiecewisePoly2D:
    """Interpolant of the y-flux: L2 on the first row, bottom-edge-matching
    Gauss-Radau in y elsewhere."""
    cells, nq = _mesh_cells(mesh), layer_nq(k, nq)
    return PiecewisePoly2D(mesh, _radau_2d(q, _moments_2d(q, cells, k, nq), cells, k, nq, 1,
                                           "plus", where=np.arange(mesh.shape[1])[None, :] > 0))


def l2_interpolant_2d(z, mesh: TensorMesh2D, k: int, nq: int | None = None) -> PiecewisePoly2D:
    return PiecewisePoly2D(mesh, _moments_2d(z, _mesh_cells(mesh), k, layer_nq(k, nq)))


# -- interpolation-error measurement ----------------------------------------


def measure_interp_error(field, interp: PiecewisePoly1D, norm: str = "l2",
                         nq: int | None = None) -> float:
    """L2 or max-norm distance between a callable field and a piecewise
    polynomial; the max norm samples quadrature nodes plus both cell ends."""
    mesh = interp.mesh
    k = interp.degree
    rule = gauss_rule(layer_nq(k, nq))
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
    rule = gauss_rule(layer_nq(k, nq))

    def sample(tx, ty):
        exact = np.asarray(field(*mesh.quad_points(tx, ty)), dtype=float)
        return exact - interp.values_on_ref(tx, ty)

    diff = sample(rule.nodes, rule.nodes)
    if norm == "l2":
        val = np.einsum("ijxy,x,y,i,j->", diff**2, rule.weights, rule.weights,
                        0.5 * mesh.mesh_x.widths, 0.5 * mesh.mesh_y.widths)
        return float(np.sqrt(val))
    if norm == "linf":
        ext = np.concatenate([rule.nodes, [-1.0, 1.0]])
        return float(np.abs(sample(ext, ext)).max())
    raise ValueError(f"norm must be 'l2' or 'linf', got {norm!r}")
