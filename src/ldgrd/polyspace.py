"""Legendre reference-cell machinery: quadrature, basis evaluation and
piecewise-polynomial containers for the broken spaces in 1D and 2D."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import ShishkinMesh1D, TensorMesh2D

__all__ = [
    "QuadratureRule",
    "gauss_rule",
    "layer_nq",
    "legendre_eval",
    "legendre_basis",
    "legendre_basis_deriv",
    "leg_mass",
    "grad_matrix",
    "end_vals",
    "LocalPoly",
    "PiecewisePoly1D",
    "PiecewisePoly2D",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on the reference interval [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size


@lru_cache(maxsize=None)
def _gauss_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule, exact for polynomials of degree 2n-1."""
    if n < 1:
        raise ValueError(f"quadrature rule needs at least one node, got {n}")
    nodes, weights = _gauss_cached(n)
    return QuadratureRule(nodes=nodes, weights=weights)


LAYER_EXTRA_NODES = 4  # k+5 nodes: the integrands contain layer exponentials


def layer_nq(k: int, nq: int | None = None) -> int:
    """Node count for integrals of non-polynomial functions (exact
    solutions, their errors and projections) against degree-k polynomials:
    nq if given, else k+1+LAYER_EXTRA_NODES."""
    return nq if nq is not None else k + 1 + LAYER_EXTRA_NODES


def legendre_eval(degree: int, t):
    """Value of the Legendre polynomial of the given degree at t in [-1, 1]."""
    t = np.asarray(t, dtype=float)
    return legendre_basis(degree, t)[degree].reshape(t.shape)


def legendre_basis(k: int, t: np.ndarray) -> np.ndarray:
    """Rows P_0..P_k evaluated at the nodes t, shape (k+1, len(t)), by the
    three-term recurrence; computed on every call, nothing is cached."""
    t = np.ravel(np.asarray(t, dtype=float))
    vals = np.empty((k + 1, t.size))
    vals[0] = 1.0
    if k >= 1:
        vals[1] = t
    for m in range(1, k):
        vals[m + 1] = ((2 * m + 1) * t * vals[m] - m * vals[m - 1]) / (m + 1)
    return vals


def legendre_basis_deriv(k: int, t: np.ndarray) -> np.ndarray:
    """Rows P_0'..P_k' at the nodes t (derivatives in the reference variable)."""
    vals = legendre_basis(k, t)
    der = np.zeros_like(vals)
    if k >= 1:
        der[1] = 1.0
    for m in range(2, k + 1):
        der[m] = der[m - 2] + (2 * m - 1) * vals[m - 1]
    return der


@lru_cache(maxsize=None)
def leg_mass(k: int) -> np.ndarray:
    """Diagonal of the reference mass matrix: integral of P_m^2 = 2/(2m+1)."""
    d = 2.0 / (2.0 * np.arange(k + 1) + 1.0)
    d.flags.writeable = False
    return d


@lru_cache(maxsize=None)
def grad_matrix(k: int) -> np.ndarray:
    """G[a, n] = integral over [-1,1] of P_a'(t) P_n(t) dt."""
    rule = gauss_rule(k + 1)
    phi = legendre_basis(k, rule.nodes)
    dphi = legendre_basis_deriv(k, rule.nodes)
    G = np.einsum("g,ag,ng->an", rule.weights, dphi, phi)
    G.flags.writeable = False
    return G


@lru_cache(maxsize=None)
def end_vals(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis values at the cell ends: (at t=-1, at t=+1)."""
    minus = (-1.0) ** np.arange(k + 1)
    plus = np.ones(k + 1)
    minus.flags.writeable = False
    plus.flags.writeable = False
    return minus, plus


@dataclass(frozen=True, eq=False)
class LocalPoly:
    """Polynomial on one reference cell, stored as Legendre coefficients."""

    degree: int
    coeffs: np.ndarray

    def eval(self, t):
        out = self.coeffs @ legendre_basis(self.degree, t)
        return out if np.ndim(t) else float(out[0])


class PiecewisePoly1D:
    """Element of the broken polynomial space: one Legendre coefficient row
    per mesh cell, no continuity across interfaces.

    Interface convention: trace_left(j) is the limit at x_j from cell j-1,
    trace_right(j) from cell j (0-based cells).  jump(j) is
    trace_left - trace_right at interior interfaces, -trace_right at j=0
    and +trace_left at j=N.
    """

    def __init__(self, mesh: ShishkinMesh1D, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[0] != mesh.ncells:
            raise ValueError(
                f"coefficient array must be (ncells, k+1); got {coeffs.shape} "
                f"for {mesh.ncells} cells"
            )
        self.mesh = mesh
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def eval(self, x):
        """Point values; at an interior mesh point the right-cell limit is taken."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x)
        pts = self.mesh.points
        cells = np.clip(np.searchsorted(pts, xf, side="right") - 1, 0, self.mesh.ncells - 1)
        t = 2.0 * (xf - pts[cells]) / self.mesh.widths[cells] - 1.0
        phi = legendre_basis(self.degree, t)
        vals = sum(self.coeffs[cells, m] * phi[m] for m in range(self.degree + 1))
        return float(vals[0]) if scalar else vals

    def values_on_ref(self, t: np.ndarray) -> np.ndarray:
        """Values at the same reference nodes in every cell, shape (ncells, len(t))."""
        return self.coeffs @ legendre_basis(self.degree, t)

    def deriv_values_on_ref(self, t: np.ndarray) -> np.ndarray:
        """Physical-derivative values at reference nodes per cell."""
        ref = self.coeffs @ legendre_basis_deriv(self.degree, t)
        return ref * (2.0 / self.mesh.widths)[:, None]

    def trace_left(self, j: int) -> float:
        if j < 1 or j > self.mesh.ncells:
            raise IndexError(f"no cell to the left of interface {j}")
        em, ep = end_vals(self.degree)
        return float(self.coeffs[j - 1] @ ep)

    def trace_right(self, j: int) -> float:
        if j < 0 or j >= self.mesh.ncells:
            raise IndexError(f"no cell to the right of interface {j}")
        em, ep = end_vals(self.degree)
        return float(self.coeffs[j] @ em)

    def jump(self, j: int) -> float:
        N = self.mesh.ncells
        if j == 0:
            return -self.trace_right(0)
        if j == N:
            return self.trace_left(N)
        return self.trace_left(j) - self.trace_right(j)


class PiecewisePoly2D:
    """Tensor-Legendre coefficients per cell of a tensor-product mesh,
    shape (nx, ny, k+1, k+1) with the x-mode first."""

    def __init__(self, mesh: TensorMesh2D, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        nx, ny = mesh.shape
        if coeffs.ndim != 4 or coeffs.shape[:2] != (nx, ny) or coeffs.shape[2] != coeffs.shape[3]:
            raise ValueError(f"coefficient array must be (nx, ny, k+1, k+1); got {coeffs.shape}")
        self.mesh = mesh
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return self.coeffs.shape[2] - 1

    def values_on_ref(self, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
        """Values on the tensor reference grid per cell, shape (nx, ny, len(tx), len(ty))."""
        k = self.degree
        px = legendre_basis(k, tx)
        py = legendre_basis(k, ty)
        return np.einsum("ijmn,mx,ny->ijxy", self.coeffs, px, py)

    def eval(self, x: float, y: float) -> float:
        mx, my = self.mesh.mesh_x, self.mesh.mesh_y
        i = int(np.clip(np.searchsorted(mx.points, x, side="right") - 1, 0, mx.ncells - 1))
        j = int(np.clip(np.searchsorted(my.points, y, side="right") - 1, 0, my.ncells - 1))
        tx = 2.0 * (x - mx.points[i]) / mx.widths[i] - 1.0
        ty = 2.0 * (y - my.points[j]) / my.widths[j] - 1.0
        px, py = legendre_basis(self.degree, [tx, ty]).T.copy()
        return float(px @ self.coeffs[i, j] @ py)

    def _ncells(self, axis: int) -> int:
        if axis not in (0, 1):
            raise ValueError(f"axis must be 0 or 1, got {axis!r}")
        return self.mesh.shape[axis]

    def trace(self, axis: int, i: int, side: str) -> np.ndarray:
        """Tangential Legendre coefficients of the trace on the mesh line i
        normal to `axis`: x = x_i, shape (ny, k+1), for axis 0; y = y_i,
        shape (nx, k+1), for axis 1.  Side 'left' uses cell i-1 along the
        axis, 'right' cell i."""
        n = self._ncells(axis)
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        c = i - 1 if side == "left" else i
        if c < 0 or c >= n:
            raise IndexError(f"no cell {side} of line {i} along axis {axis}")
        em, ep = end_vals(self.degree)
        end = ep if side == "left" else em
        if axis == 0:
            return np.einsum("jmn,m->jn", self.coeffs[c], end)
        return np.einsum("imn,n->im", self.coeffs[:, c], end)

    def jump(self, axis: int, i: int) -> np.ndarray:
        """Jump coefficients across mesh line i normal to `axis`, with the
        1D interface convention."""
        n = self._ncells(axis)
        if i == 0:
            return -self.trace(axis, 0, "right")
        if i == n:
            return self.trace(axis, n, "left")
        return self.trace(axis, i, "left") - self.trace(axis, i, "right")
