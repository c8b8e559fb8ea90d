"""Local L2 and Gauss-Radau projections and the layer-aware composite
interpolants used to measure interpolation error on graded meshes."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .mesh import ShishkinMesh1D, TensorMesh2D, _quad_points
from .polyspace import (PiecewisePoly1D, PiecewisePoly2D, _cell_sums, _chunks, end_vals,
                        layer_rule, legendre_basis)

__all__ = [
    "composite_u_1d",
    "composite_q_1d",
    "composite_u_2d",
    "composite_px_2d",
    "composite_qy_2d",
    "measure_interp_error",
    "measure_interp_error_2d",
]

# Every projection below is one moment kernel applied to arrays of cells (a
# single cell is the 0-d case), followed where needed by the Gauss-Radau
# endpoint fix along one coefficient axis.  The composites fill one coefficient
# array chunk by chunk of cells and apply the fix where their region mask holds.
# A field is a pure function of its coordinates: in 1D the composites and
# measures share its node samples through _node_samples.


@lru_cache(maxsize=1)
def _node_samples(field, mesh: ShishkinMesh1D, k: int) -> np.ndarray:
    """Read-only (ncells, k+5) values of field at the layer_rule(k) nodes of
    every cell, sampled chunk by chunk; one entry, so the 1D composite of a
    field and both of its measures sample it once."""
    nodes = layer_rule(k).nodes
    zx = np.empty((mesh.ncells, nodes.size))
    for s in _chunks(mesh.ncells, nodes.size):
        zx[s] = field(_quad_points((mesh.points[:-1][s], mesh.points[1:][s]), nodes))
    zx.flags.writeable = False
    return zx


def _samples(field, mesh: ShishkinMesh1D, k: int) -> np.ndarray:
    """_node_samples, sampled afresh for a field that cannot be hashed."""
    try:
        hash(field)
    except TypeError:
        return _node_samples.__wrapped__(field, mesh, k)
    return _node_samples(field, mesh, k)


def _project(zx: np.ndarray, k: int) -> np.ndarray:
    """Legendre coefficients (..., k+1) of the L2 projection onto degree k
    from the values zx (..., k+5) at the layer_rule(k) nodes of each cell."""
    rule = layer_rule(k)
    phi = legendre_basis(k, rule.nodes)
    raw = np.matmul(phi, (rule.weights * zx)[..., None])[..., 0]
    return (2.0 * np.arange(k + 1) + 1.0) / 2.0 * raw


def _moments(z, cell, k: int) -> np.ndarray:
    """Legendre coefficients (..., k+1) of the L2 projection of z onto degree
    k on each interval cell = (a, b), a cell or an edge; a and b broadcast."""
    return _project(np.asarray(z(_quad_points(cell, layer_rule(k).nodes)), dtype=float), k)


def _moments_2d(z, cell, k: int) -> np.ndarray:
    """Tensor L2 coefficients (..., k+1, k+1) on each rectangle
    cell = ((xa, xb), (ya, yb)); the four bounds broadcast."""
    rule = layer_rule(k)
    x, y = (_quad_points(interval, rule.nodes) for interval in cell)
    wphi = rule.weights * legendre_basis(k, rule.nodes)
    raw = wphi @ np.asarray(z(x[..., :, None], y[..., None, :]), dtype=float) @ wphi.T
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
    else:
        em, _ = end_vals(k)
        fixed = (trace - (c[low] @ em[:k] if axis == -1 else em[:k] @ c[low])) * em[k]
    c[top] = np.where(np.expand_dims(where, -1), fixed, c[top])
    return c


def _radau_1d(z, cell, k: int, side: str, where=True) -> np.ndarray:
    """Gauss-Radau coefficients (..., k+1) on the intervals cell = (a, b)
    where `where` holds, L2 coefficients elsewhere."""
    return _radau_end(_moments(z, cell, k), z, cell, side, where)


def _radau_end(c: np.ndarray, z, cell, side: str, where=True) -> np.ndarray:
    """The 1D Gauss-Radau fix of the L2 coefficients c (..., k+1) on the
    intervals cell, in place, with z sampled at the matched ends."""
    end = np.expand_dims(cell[1] if side == "minus" else cell[0], -1)
    # as (..., 1, k+1) the 'plus' dot is one vector dot per cell, rounded as on one cell
    _radau_fix(c[..., None, :], np.asarray(z(end), dtype=float), -1, side, where)
    return c


def _radau_2d(z, c: np.ndarray, cell, k: int, axis: int, side: str, where=True) -> np.ndarray:
    """Directional Gauss-Radau fix of the tensor moments c on the rectangles
    cell where `where` holds, with the L2 moments of the trace on the
    matched edge as the endpoint values: volume moments one degree lower in
    `axis` (0 grades in x, 1 in y) stay the L2 ones, and side 'minus'
    matches the upper edge of that axis, 'plus' the lower one."""
    lo, hi = cell[axis]
    end = np.expand_dims(hi if side == "minus" else lo, -1)
    edge = _moments(lambda s: z(end, s) if axis == 0 else z(s, end), cell[1 - axis], k)
    return _radau_fix(c, edge, axis - 2, side, where)  # x-mode is coefficient axis -2


def _fine_band(j: np.ndarray, N: int) -> np.ndarray:
    """0-based cell index lies in a boundary-layer band, excluding the last cell."""
    return (j < N // 4) | ((3 * N // 4 <= j) & (j < N - 1))


def _mid_band(j: np.ndarray, N: int) -> np.ndarray:
    return (N // 4 <= j) & (j < 3 * N // 4)


def _composite_1d(z, mesh: ShishkinMesh1D, k: int, side: str, where) -> PiecewisePoly1D:
    """Gauss-Radau coefficients of z on the cells where the (ncells,) mask
    `where` holds, L2 coefficients elsewhere, filled chunk by chunk of cells
    from the shared node samples."""
    zx = _samples(z, mesh, k)
    c = np.empty((mesh.ncells, k + 1))
    for s in _chunks(mesh.ncells, layer_rule(k).n):
        c[s] = _radau_end(_project(zx[s], k), z, (mesh.points[:-1][s], mesh.points[1:][s]),
                          side, where[s])
    return PiecewisePoly1D(mesh, c)


def composite_u_1d(u, mesh: ShishkinMesh1D, k: int) -> PiecewisePoly1D:
    """Layer-aware interpolant of the primal variable.

    Right-endpoint-matching Gauss-Radau on the fine cells except the last
    one (0-based cells 0..N/4-1 and 3N/4..N-2); plain L2 projection on the
    coarse interior cells and on the final cell.  u must be a pure function
    of x: its node samples are kept in a one-entry cache, keyed on the u and
    mesh objects, that measure_interp_error of the same u and mesh reuses.
    """
    N = mesh.ncells
    return _composite_1d(u, mesh, k, "minus", _fine_band(np.arange(N), N))


def composite_q_1d(q, mesh: ShishkinMesh1D, k: int) -> PiecewisePoly1D:
    """Layer-aware interpolant of the flux variable: L2 projection on the
    first cell, left-endpoint-matching Gauss-Radau everywhere else.  q must
    be a pure function of x; its node samples are cached as in composite_u_1d."""
    return _composite_1d(q, mesh, k, "plus", np.arange(mesh.ncells) > 0)


# -- 2D projections ---------------------------------------------------------


def _composite_2d(z, mesh: TensorMesh2D, k: int, fixes) -> PiecewisePoly2D:
    """Tensor L2 coefficients of z, filled chunk by chunk of x-rows of cells,
    each chunk followed by the directional Gauss-Radau fixes (axis, side,
    where) on its cells where `where`, broadcasting to mesh.shape, holds."""
    nx, ny = mesh.shape
    px, py = mesh.mesh_x.points[:, None], mesh.mesh_y.points[None, :]
    c = np.empty((nx, ny, k + 1, k + 1))
    for s in _chunks(nx, ny * layer_rule(k).n ** 2):
        cells = (px[:-1][s], px[1:][s]), (py[:, :-1], py[:, 1:])
        c[s] = _moments_2d(z, cells, k)
        for axis, side, where in fixes:
            _radau_2d(z, c[s], cells, k, axis, side, np.broadcast_to(where, (nx, ny))[s])
    return PiecewisePoly2D(mesh, c)


def composite_u_2d(u, mesh: TensorMesh2D, k: int) -> PiecewisePoly2D:
    """Layer-aware 2D interpolant of u.

    On the edge-layer bands the Gauss-Radau projection acts in the
    layer-normal direction (upper-edge matching, exactly as in 1D); all
    remaining cells (interior block, corner blocks, outermost row and
    column) take the plain tensor L2 projection.
    """
    nx, ny = mesh.shape
    i, j = np.arange(nx)[:, None], np.arange(ny)[None, :]
    return _composite_2d(u, mesh, k, [(0, "minus", _fine_band(i, nx) & _mid_band(j, ny)),
                                      (1, "minus", _mid_band(i, nx) & _fine_band(j, ny))])


def composite_px_2d(p, mesh: TensorMesh2D, k: int) -> PiecewisePoly2D:
    """Interpolant of the x-flux: L2 on the first column, left-edge-matching
    Gauss-Radau in x on all other cells."""
    return _composite_2d(p, mesh, k, [(0, "plus", np.arange(mesh.shape[0])[:, None] > 0)])


def composite_qy_2d(q, mesh: TensorMesh2D, k: int) -> PiecewisePoly2D:
    """Interpolant of the y-flux: L2 on the first row, bottom-edge-matching
    Gauss-Radau in y elsewhere."""
    return _composite_2d(q, mesh, k, [(1, "plus", np.arange(mesh.shape[1])[None, :] > 0)])


# -- interpolation-error measurement ----------------------------------------


def _check_norm(norm: str) -> None:
    if norm not in ("l2", "linf"):
        raise ValueError(f"norm must be 'l2' or 'linf', got {norm!r}")


def measure_interp_error(field, interp: PiecewisePoly1D, norm: str = "l2") -> float:
    """L2 or max-norm distance between a callable field and a piecewise
    polynomial, chunk by chunk of cells; the max norm samples quadrature nodes
    plus both cell ends.  field must be a pure function of x: its node
    samples come from the one-entry cache that the 1D composites fill, so a
    measure right after the composite of the same field and mesh, or after
    the other norm, samples only the cell ends.  The 2D measure has no such
    cache: its node grid grows as N^2."""
    _check_norm(norm)
    mesh, k = interp.mesh, interp.degree
    rule = layer_rule(k)
    ends = np.array([-1.0, 1.0])
    phi, phi_e = legendre_basis(k, rule.nodes), legendre_basis(k, ends)
    zx = _samples(field, mesh, k)
    sums, linf = np.empty(mesh.ncells), 0.0
    for s in _chunks(mesh.ncells, rule.n + ends.size):
        cells, c = (mesh.points[:-1][s], mesh.points[1:][s]), interp.coeffs[s]
        diff = zx[s] - c @ phi
        if norm == "l2":
            sums[s] = _cell_sums(diff**2, rule.weights, 1)
            continue
        diff_e = np.asarray(field(_quad_points(cells, ends)), dtype=float) - c @ phi_e
        linf = np.maximum(linf, np.maximum(np.abs(diff).max(), np.abs(diff_e).max()))
    if norm == "l2":
        return float(np.sqrt(0.5 * mesh.widths @ sums))
    return float(linf)


def measure_interp_error_2d(field, interp: PiecewisePoly2D, norm: str = "l2") -> float:
    """As in 1D, chunk by chunk of x-rows of cells; widths contracted as in tensor_sum."""
    _check_norm(norm)
    mesh, k = interp.mesh, interp.degree
    rule = layer_rule(k)
    t = rule.nodes if norm == "l2" else np.concatenate([rule.nodes, [-1.0, 1.0]])
    phi = legendre_basis(k, t)
    X, Y = mesh.quad_points(t, t)
    sums, linf = np.empty(mesh.shape), 0.0
    for s in _chunks(mesh.shape[0], mesh.shape[1] * t.size**2):
        diff = phi.T @ (interp.coeffs[s] @ phi)  # interpolant minus field, in place
        diff -= np.asarray(field(X[s], Y), dtype=float)
        if norm == "l2":
            sums[s] = _cell_sums(np.square(diff, out=diff), rule.weights, 2)
        else:
            linf = np.maximum(linf, np.abs(diff).max())
    if norm == "l2":
        return float(np.sqrt(0.5 * mesh.mesh_x.widths @ sums @ (0.5 * mesh.mesh_y.widths)))
    return float(linf)
