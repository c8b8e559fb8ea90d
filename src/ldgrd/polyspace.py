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
    "layer_rule",
    "legendre_basis",
    "legendre_basis_deriv",
    "leg_mass",
    "grad_matrix",
    "end_vals",
    "tensor_sum",
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
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule, exact for polynomials of degree 2n-1;
    one read-only rule per n."""
    if n < 1:
        raise ValueError(f"quadrature rule needs at least one node, got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


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
    return np.einsum(f"...{axes},{axes}->...", f, np.multiply.outer(weights, weights)
                     if dim == 2 else weights)


def tensor_sum(vals: np.ndarray, weights: np.ndarray, wx: np.ndarray, wy: np.ndarray) -> float:
    """Sum of vals[i, j, x, y] * weights[x] * weights[y] * wx[i] * wy[j]:
    per-cell sums, then the widths contracted one axis at a time."""
    return float(wx @ _cell_sums(vals, weights, 2) @ wy)


class PiecewisePoly1D:
    """Element of the broken polynomial space: one Legendre coefficient row
    per mesh cell, no continuity across interfaces.

    Interface convention: jump(j) = v^- - v^+ at x_j, with v^- the limit
    from cell j-1 and v^+ from cell j (0-based cells); it is -v^+ at j=0
    and v^- at j=N, and raises IndexError outside 0..N.
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

    def values_on_ref(self, t: np.ndarray) -> np.ndarray:
        """Values at the same reference nodes in every cell, shape (ncells, len(t))."""
        return self.coeffs @ legendre_basis(self.degree, t)

    def jump(self, j: int) -> float:
        N = self.mesh.ncells
        if not 0 <= j <= N:
            raise IndexError(f"interface {j} outside 0..{N}")
        em, ep = end_vals(self.degree)
        minus = float(self.coeffs[j - 1] @ ep) if j > 0 else 0.0
        plus = float(self.coeffs[j] @ em) if j < N else 0.0
        return minus - plus


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
        return legendre_basis(k, tx).T @ (self.coeffs @ legendre_basis(k, ty))

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
