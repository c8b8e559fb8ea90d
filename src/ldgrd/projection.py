"""Local L2 and Gauss-Radau projections and the layer-aware composite
interpolants used to measure interpolation error on graded meshes, written
once for 1D and tensor-product meshes: one kernel, _project, on cells given as
one interval per axis (a single cell is the 0-d case), which the composites
run chunk by chunk of the leading cell axis.  What depends on the dimension:
- how each axis is contracted (_moments): x from the left by one matmul per
  cell, on 1D samples given a trailing unit axis so that 1D keeps its bits;
  y from the right by an einsum;
- the 1D node samples, shared by a composite and both of its measures through
  the one-entry cache _node_samples; 2D's node grid grows as N^2 and is
  sampled per call.
A field is a pure function of its coordinates."""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .mesh import ShishkinMesh1D, _frozen
from .polyspace import (PiecewisePoly, _cell_sums, _cells, _check_input, _chunks, _grid, _values,
                        end_vals, layer_rule, legendre_basis)

__all__ = [
    "composite_u_1d",
    "composite_q_1d",
    "composite_u_2d",
    "composite_px_2d",
    "composite_qy_2d",
    "measure_interp_error",
    "measure_interp_error_2d",
]


def _sample(field, mesh: ShishkinMesh1D, k: int) -> np.ndarray:
    """Read-only (N, k+5) values of field at the layer_rule(k) nodes of
    every cell, sampled chunk by chunk."""
    nodes = layer_rule(k).nodes
    zx = np.empty((mesh.params.N, nodes.size))
    for s in _chunks(mesh.params.N, nodes.size):
        zx[s] = field(*_grid(_cells(mesh, s), nodes))
    return _frozen(zx)


@lru_cache(maxsize=1)
def _node_samples(field, mesh: ShishkinMesh1D, k: int) -> np.ndarray:
    """_sample, in one entry, so the 1D composite of a field and both of its
    measures sample it once.  The old entry is dropped before the new field
    is sampled, so at most one sample array is held."""
    _node_samples.cache_clear()
    return _sample(field, mesh, k)


def _samples(field, mesh, k: int) -> np.ndarray | None:
    """The 1D node samples (_node_samples, or _sample for a field that cannot
    be hashed, which leaves the cached entry as it is); None in 2D."""
    if len(mesh.shape) > 1:
        return None
    try:
        hash(field)
    except TypeError:
        return _sample(field, mesh, k)
    return _node_samples(field, mesh, k)


def _moments(z, k: int, dim: int) -> np.ndarray:
    """Legendre coefficients of the L2 projection onto degree k of the values
    z (..., x nodes, y nodes) at the layer_rule(k) nodes, one axis at a time:
    x from the left, one matmul per cell, then y from the right, scaled last.
    1D values get a trailing unit y axis; an axis of one point (an edge, or
    that unit axis) is left as it is."""
    z = np.asarray(z, dtype=float)
    z = z.reshape(*z.shape, *(1,) * (2 - dim))
    rule, scale = layer_rule(k), (2.0 * np.arange(k + 1) + 1.0) / 2.0
    phi, x = legendre_basis(k, rule.nodes), z.shape[-2] > 1
    if x:
        z = np.matmul(phi, rule.weights[:, None] * z)
    if z.shape[-1] > 1:  # an einsum calls no BLAS: a cell's bits do not depend on the others
        z = np.einsum("...n,an->...a", z, scale[:, None] * rule.weights * phi)
    return z * scale[:, None] if x else z


def _radau_fix(c: np.ndarray, trace, axis: int, side: str, where=True) -> np.ndarray:
    """Gauss-Radau endpoint fix of tensor moments c (..., k+1, k+1), in
    place on the cells where `where` holds; 1D moments enter as (..., k+1, 1).

    Moments against P_0..P_{k-1} along the coefficient axis `axis` (-2 for
    the x-mode, -1 for the y-mode) coincide with the L2 ones; the top mode
    is set, mode by mode in the other axis, so that the trace at t = +1
    (side 'minus') or t = -1 ('plus') equals `trace`; k >= 1, as the composites check."""
    k = c.shape[axis] - 1
    rest = (slice(None),) * (-1 - axis)
    top, low = (..., k, *rest), (..., slice(k), *rest)
    if side == "minus":
        fixed = trace - c[low].sum(axis=axis)
    else:
        em, _ = end_vals(k)
        fixed = (trace - (c[low] @ em[:k] if axis == -1 else em[:k] @ c[low])) * em[k]
    c[top] = np.where(np.expand_dims(where, -1), fixed, c[top])
    return c


def _project(z, cells, k: int, fixes=(), samples=None) -> np.ndarray:
    """Coefficients (..., k+1 per axis) on the cells, one interval (a, b) per
    axis with broadcasting bounds: the L2 moments of z, or of its node
    samples if given, then the Gauss-Radau fixes (axis, side, where) in
    order.  A fix keeps the moments one degree lower in `axis` and matches
    the trace on the upper end of the axis (side 'minus') or the lower one
    ('plus') where `where` holds: z at the stored mesh point in 1D, its L2
    moments along the other axis in 2D."""
    dim = len(cells)
    grid = _grid(cells, layer_rule(k).nodes) if samples is None or dim > 1 else []
    c = _moments(z(*grid) if samples is None else samples, k, dim)
    for axis, side, where in fixes:
        end = np.asarray(cells[axis][1 if side == "minus" else 0], dtype=float)
        edge = z(*grid[:axis], end.reshape(end.shape + (1,) * dim), *grid[axis + 1:])
        _radau_fix(c, _moments(edge, k, dim).squeeze(axis - 2), axis - 2, side, where)
    return c[..., 0] if dim == 1 else c


def _fine_band(j: np.ndarray, N: int) -> np.ndarray:
    """0-based cell index lies in a boundary-layer band, excluding the last cell."""
    return (j < N // 4) | ((3 * N // 4 <= j) & (j < N - 1))


def _mid_band(j: np.ndarray, N: int) -> np.ndarray:
    return (N // 4 <= j) & (j < 3 * N // 4)


def _composite(z, mesh, k: int, fixes) -> PiecewisePoly:
    """_project of z over the whole mesh, chunk by chunk of the leading cell
    axis into one coefficient array, each fix's `where` broadcasting to
    mesh.shape; in 1D from the shared node samples."""
    shape = mesh.shape
    zx = _samples(z, mesh, k)
    c = np.empty(shape + (k + 1,) * len(shape))
    for s in _chunks(shape[0], math.prod(shape[1:]) * layer_rule(k).nodes.size ** len(shape)):
        fix = [(axis, side, np.broadcast_to(where, shape)[s]) for axis, side, where in fixes]
        c[s] = _project(z, _cells(mesh, s), k, fix, None if zx is None else zx[s])
    return PiecewisePoly(mesh, c)


def composite_u_1d(u, mesh: ShishkinMesh1D, k: int) -> PiecewisePoly:
    """Layer-aware interpolant of the primal variable.

    Right-endpoint-matching Gauss-Radau on the fine cells except the last
    one (0-based cells 0..N/4-1 and 3N/4..N-2); plain L2 projection on the
    coarse interior cells and on the final cell.  u must be a pure function
    of x: its node samples are kept in a one-entry cache, keyed on the u and
    mesh objects, that measure_interp_error of the same u and mesh reuses.
    """
    _check_input(mesh, k, 1, "composite")
    return _composite(u, mesh, k,
                      [(0, "minus", _fine_band(np.arange(mesh.params.N), mesh.params.N))])


def composite_q_1d(q, mesh: ShishkinMesh1D, k: int) -> PiecewisePoly:
    """Layer-aware interpolant of the flux variable: L2 projection on the
    first cell, left-endpoint-matching Gauss-Radau everywhere else.  q must
    be a pure function of x; its node samples are cached as in composite_u_1d."""
    _check_input(mesh, k, 1, "composite")
    return _composite(q, mesh, k, [(0, "plus", np.arange(mesh.params.N) > 0)])


def composite_u_2d(u, mesh, k: int) -> PiecewisePoly:
    """Layer-aware 2D interpolant of u.

    On the edge-layer bands the Gauss-Radau projection acts in the
    layer-normal direction (upper-edge matching, exactly as in 1D); all
    remaining cells (interior block, corner blocks, outermost row and
    column) take the plain tensor L2 projection.
    """
    _check_input(mesh, k, 2, "composite")
    (nx, ny), (i, j) = mesh.shape, np.indices(mesh.shape, sparse=True)
    return _composite(u, mesh, k, [(0, "minus", _fine_band(i, nx) & _mid_band(j, ny)),
                                   (1, "minus", _mid_band(i, nx) & _fine_band(j, ny))])


def composite_px_2d(p, mesh, k: int) -> PiecewisePoly:
    """Interpolant of the x-flux: L2 on the first column, left-edge-matching
    Gauss-Radau in x on all other cells."""
    _check_input(mesh, k, 2, "composite")
    return _composite(p, mesh, k, [(0, "plus", np.arange(mesh.shape[0])[:, None] > 0)])


def composite_qy_2d(q, mesh, k: int) -> PiecewisePoly:
    """Interpolant of the y-flux: L2 on the first row, bottom-edge-matching
    Gauss-Radau in y elsewhere."""
    _check_input(mesh, k, 2, "composite")
    return _composite(q, mesh, k, [(1, "plus", np.arange(mesh.shape[1]) > 0)])


def measure_interp_error(field, interp: PiecewisePoly, norm: str = "l2") -> float:
    """L2 or max-norm distance between a callable field and a piecewise
    polynomial, chunk by chunk of the leading cell axis; the max norm samples
    the quadrature nodes plus both cell ends per axis.  field must be a pure
    function of its coordinates.  In 1D its node samples come from the
    one-entry cache that the 1D composites fill, so a measure right after the
    composite of the same field and mesh, or after the other norm, samples
    only the cell ends."""
    if norm not in ("l2", "linf"):
        raise ValueError(f"norm must be 'l2' or 'linf', got {norm!r}")
    mesh, k, dim = interp.mesh, interp.degree, len(interp.mesh.shape)
    rule, ends = layer_rule(k), np.array([-1.0, 1.0])
    zx = _samples(field, mesh, k)
    t = rule.nodes if norm == "l2" or zx is not None else np.concatenate([rule.nodes, ends])
    grid = _grid(_cells(mesh), t) if zx is None else None  # 2D: each axis's points, built once
    phi, phi_e = legendre_basis(k, t), legendre_basis(k, ends)
    sums, linf = np.empty(mesh.shape), 0.0
    for s in _chunks(mesh.shape[0], math.prod(mesh.shape[1:]) * t.size**dim):
        c = interp.coeffs[s]
        diff = _values(c, *(phi,) * dim)  # interpolant minus field, in place
        diff -= zx[s] if grid is None else field(grid[0][s], *grid[1:])
        if norm == "l2":
            sums[s] = _cell_sums(np.square(diff, out=diff), rule.weights, dim)
            continue
        linf = np.maximum(linf, np.abs(diff).max())
        if grid is None:  # 1D: the cell ends, apart from the shared node samples
            linf = np.maximum(linf, np.abs(c @ phi_e - field(*_grid(_cells(mesh, s), ends))).max())
    if norm == "l2":
        return float(np.sqrt(reduce(lambda v, m: 0.5 * m.widths @ v, mesh.axes, sums)))
    return float(linf)


measure_interp_error_2d = measure_interp_error  # the name perfbench's interp workload calls
