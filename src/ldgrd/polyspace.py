"""Legendre reference-cell machinery: quadrature, basis evaluation, the cell
grids of a chunk of cells, and one piecewise-polynomial container for the
broken spaces on 1D and tensor-product meshes.  What depends on the
dimension is how each axis is contracted: values take the last mode axis
from the right and, in 2D, x from the left (_values); a trace is one dot per
cell in 1D and one einsum in 2D, the sums the error reports have always had.
The per-cell sums (_cell_sums) serve the reports, the interpolation measure
and the bilinear form's volume term; _check_degree is the one degree rule."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .mesh import _frozen, _quad_points

__all__ = [
    "QuadratureRule",
    "gauss_rule",
    "layer_rule",
    "legendre_basis",
    "leg_mass",
    "grad_matrix",
    "end_vals",
    "PiecewisePoly",
]


def _check_degree(k) -> None:
    """The one degree rule of the solvers, composites and study: an integer >= 1."""
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"polynomial degree must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {k}")


def _check_input(mesh, k, dim: int, user: str) -> None:
    """The solvers' and composites' rule: a degree by _check_degree, a dim-D mesh."""
    _check_degree(k)
    if len(mesh.shape) != dim:
        raise ValueError(f"a {len(mesh.shape)}D mesh does not fit the {dim}D {user}")


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on the reference interval [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule, exact for polynomials of degree 2n-1;
    one read-only rule per n."""
    if n < 1:
        raise ValueError(f"quadrature rule needs at least one node, got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(nodes=_frozen(nodes), weights=_frozen(weights))


LAYER_EXTRA_NODES = 4  # k+5 nodes: the integrands contain layer exponentials


def layer_rule(k: int) -> QuadratureRule:
    """Rule for integrals of non-polynomial functions (exact solutions,
    their errors and projections) against degree-k polynomials:
    k+1+LAYER_EXTRA_NODES nodes, the constant read at call time."""
    return gauss_rule(k + 1 + LAYER_EXTRA_NODES)


def legendre_basis(k: int, t: np.ndarray) -> np.ndarray:
    """Rows P_0..P_k evaluated at the nodes t, shape (k+1, len(t)), by the
    three-term recurrence; computed on every call, nothing is cached."""
    t = np.ravel(np.asarray(t, dtype=float))
    vals = np.empty((k + 1, t.size))
    vals[0] = 1.0
    vals[1:2] = t
    for m in range(1, k):
        vals[m + 1] = ((2 * m + 1) * t * vals[m] - m * vals[m - 1]) / (m + 1)
    return vals


@lru_cache(maxsize=None)
def leg_mass(k: int) -> np.ndarray:
    """Diagonal of the reference mass matrix: integral of P_m^2 = 2/(2m+1)."""
    d = 2.0 / (2.0 * np.arange(k + 1) + 1.0)
    return _frozen(d)


@lru_cache(maxsize=None)
def grad_matrix(k: int) -> np.ndarray:
    """G[a, n] = integral over [-1,1] of P_a'(t) P_n(t) dt, by k+1 Gauss nodes."""
    rule = gauss_rule(k + 1)
    phi = legendre_basis(k, rule.nodes)
    dphi = np.zeros_like(phi)
    dphi[1:2] = 1.0
    for m in range(2, k + 1):
        dphi[m] = dphi[m - 2] + (2 * m - 1) * phi[m - 1]
    G = np.einsum("g,ag,ng->an", rule.weights, dphi, phi)
    return _frozen(G)


@lru_cache(maxsize=None)
def end_vals(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis values at the cell ends: (at t=-1, at t=+1)."""
    minus = (-1.0) ** np.arange(k + 1)
    plus = np.ones(k + 1)
    return _frozen(minus), _frozen(plus)


CHUNK_VALUES = 1 << 15  # doubles per grid temporary of a whole-mesh evaluation (256 KiB)


def _chunks(ncells: int, per_cell: int) -> list[slice]:
    """Near-equal consecutive slices of the ncells leading cells (x-rows in 2D), of at
    most max(2, CHUNK_VALUES // per_cell) each, the constant read at call time; for even
    ncells none holds one cell, whose products numpy would round by its vector kernel."""
    m = -(-ncells // max(2, CHUNK_VALUES // per_cell))
    return [slice(i * ncells // m, (i + 1) * ncells // m) for i in range(m)]


def _cell_sums(f: np.ndarray, weights: np.ndarray, dim: int) -> np.ndarray:
    """The per-cell sums of f[..., node per axis] times the tensor-product
    weights over its dim trailing node axes, by one np.einsum, which calls no
    BLAS: each cell's sum has the same bits whatever cells come with it, and
    so whatever the chunking."""
    axes = "xy"[:dim]
    return np.einsum(f"...{axes},{axes}->...", f, reduce(np.multiply.outer, [weights] * dim))


def _cells(mesh, s: slice = slice(None)) -> list[tuple[np.ndarray, np.ndarray]]:
    """The cell intervals (a, b), one per axis, of the cells s of the leading
    axis and all cells of the others, each shaped to broadcast to (cells per axis)."""
    axes = mesh.axes
    shape = [(1,) * a + (-1,) + (1,) * (len(axes) - 1 - a) for a in range(len(axes))]
    return [(m.points[:-1][r].reshape(sh), m.points[1:][r].reshape(sh))
            for m, sh, r in zip(axes, shape, [s] + [slice(None)] * (len(axes) - 1))]


def _grid(cells, t: np.ndarray) -> list[np.ndarray]:
    """Points of the reference nodes t on the cells, one array per axis, each
    shaped to broadcast to (cells per axis, then len(t) per axis)."""
    points = [_quad_points(cell, t) for cell in cells]
    return [x.reshape(x.shape[:-1] + (1,) * a + (t.size,) + (1,) * (len(cells) - 1 - a))
            for a, x in enumerate(points)]


def _values(c: np.ndarray, *phi: np.ndarray) -> np.ndarray:
    """Values of the coefficients c (..., k+1 per axis) on the tensor grid of
    the nodes of phi (the basis at them, one per axis): the last axis
    contracted from the right, x from the left in 2D."""
    v = c @ phi[-1]
    return phi[0].T @ v if len(phi) == 2 else v


class PiecewisePoly:
    """Element of the broken polynomial space on a 1D mesh or a tensor-product
    mesh: tensor-Legendre coefficients shaped (cells per axis, then k+1 modes
    per axis, the x-mode first), no continuity across cell faces.

    Face convention, per axis: jump(i, axis) = v^- - v^+ on the mesh line
    (point in 1D) i normal to `axis`, v^- from cell i-1 along the axis and
    v^+ from cell i (0-based); it is -v^+ at i=0 and v^- at i=n, and raises
    IndexError outside 0..n.  Traces and jumps are scalars in 1D and the
    tangential Legendre coefficients (cells along the line, k+1) in 2D.
    """

    def __init__(self, mesh, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        shape, dim = mesh.shape, len(mesh.shape)
        if (coeffs.ndim != 2 * dim or coeffs.shape[:dim] != shape
                or len(set(coeffs.shape[dim:])) != 1):
            raise ValueError(f"coefficient array must be {shape} then k+1 modes per axis; "
                             f"got {coeffs.shape}")
        self.mesh = mesh
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-1] - 1

    def values_on_ref(self, *ts: np.ndarray) -> np.ndarray:
        """Values on the tensor grid of the reference nodes ts (one array per
        axis) in every cell, shape (cells per axis, then len(t) per axis)."""
        return _values(self.coeffs, *(legendre_basis(self.degree, t) for t in ts))

    def _ncells(self, axis: int) -> int:
        if axis not in range(len(self.mesh.shape)):
            raise ValueError(f"axis must be in 0..{len(self.mesh.shape) - 1}, got {axis!r}")
        return self.mesh.shape[axis]

    def trace(self, i: int, side: str, axis: int = 0):
        """Trace on the mesh line i normal to `axis`: side 'left' from cell
        i-1 along the axis, 'right' from cell i."""
        n = self._ncells(axis)
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        c = i - 1 if side == "left" else i
        if not 0 <= c < n:
            raise IndexError(f"no cell {side} of line {i} along axis {axis}")
        em, ep = end_vals(self.degree)
        slab, end = self.coeffs[(slice(None),) * axis + (c,)], ep if side == "left" else em
        if slab.ndim == 1:  # 1D: one dot per cell, as the 1D reports have always summed it
            return slab @ end
        return np.einsum("jmn,m->jn" if axis == 0 else "imn,n->im", slab, end)

    def jump(self, i: int, axis: int = 0):
        """Jump across the mesh line i normal to `axis` (see the class docstring)."""
        n = self._ncells(axis)
        if i == 0:
            return -self.trace(0, "right", axis)
        if i == n:
            return self.trace(n, "left", axis)
        return self.trace(i, "left", axis) - self.trace(i, "right", axis)
