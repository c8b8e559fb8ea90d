"""Manufactured reaction-diffusion test problems with exact solutions and fluxes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ProblemSpec1D",
    "ProblemSpec2D",
    "layer1d",
    "layer2d",
    "layer2d_variable_b",
    "poly_exact_1d",
    "poly_exact_2d",
    "get_problem",
    "PROBLEM_NAMES",
]


@dataclass(frozen=True)
class ProblemSpec1D:
    """-eps*u'' + b(x)*u = f(x) on (0,1) with u(0) = u(1) = 0.

    q_exact is the scaled flux eps*u'; du/d2u are the analytic first and
    second derivatives of u (used by residual and cross checks).
    """

    name: str
    eps: float
    beta: float
    b: Callable
    f: Callable
    u_exact: Callable
    du_exact: Callable
    d2u_exact: Callable
    q_exact: Callable


@dataclass(frozen=True)
class ProblemSpec2D:
    """-eps*Lap(u) + b(x,y)*u = f(x,y) on (0,1)^2 with u = 0 on the boundary.

    p_exact = eps*u_x and q_exact = eps*u_y; lap_exact is the analytic
    Laplacian of u.
    """

    name: str
    eps: float
    beta: float
    b: Callable
    f: Callable
    u_exact: Callable
    p_exact: Callable
    q_exact: Callable
    lap_exact: Callable


def _exp(a: np.ndarray) -> np.ndarray:
    """exp(a), evaluated only where it does not underflow: exp is +0.0 below
    about -745.13, so +0.0 is written for every a <= -746 unevaluated (NaN
    stays NaN)."""
    return np.exp(a, out=np.zeros_like(a), where=~(a <= -746.0))


def _layer_parts(eps: float):
    """Closed-form two-layer profile g, g' and g'' with g(0) = 1, g(1) = -1.

    g(x) = (exp(-x/s) - exp(-(1-x)/s)) / (1 - exp(-1/s)) with s = sqrt(eps).
    All exponentials have nonpositive arguments, so evaluation underflows
    gracefully for small eps.
    """
    s = math.sqrt(eps)
    denom = 1.0 - math.exp(-1.0 / s)

    def g(x):
        x = np.asarray(x, dtype=float)
        return (_exp(-x / s) - _exp(-(1.0 - x) / s)) / denom

    def dg(x):
        x = np.asarray(x, dtype=float)
        return -(_exp(-x / s) + _exp(-(1.0 - x) / s)) / (s * denom)

    def d2g(x):
        x = np.asarray(x, dtype=float)
        return (_exp(-x / s) - _exp(-(1.0 - x) / s)) / (s * s * denom)

    return g, dg, d2g


def layer1d(eps: float) -> ProblemSpec1D:
    """Two-boundary-layer problem with b = 1 and exact solution
    g(x) - cos(pi*x), where g is the layer profile of _layer_parts."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    g, dg, d2g = _layer_parts(eps)

    def u(x):
        return g(x) - np.cos(np.pi * np.asarray(x, dtype=float))

    def du(x):
        return dg(x) + np.pi * np.sin(np.pi * np.asarray(x, dtype=float))

    def d2u(x):
        return d2g(x) + np.pi**2 * np.cos(np.pi * np.asarray(x, dtype=float))

    def q(x):
        return eps * du(x)

    def f(x):
        # -eps*u'' + u collapses: the layer terms cancel exactly.
        return -(1.0 + eps * np.pi**2) * np.cos(np.pi * np.asarray(x, dtype=float))

    def b(x):
        return np.ones_like(np.asarray(x, dtype=float))

    return ProblemSpec1D(
        name="layer1d", eps=eps, beta=1.0, b=b, f=f,
        u_exact=u, du_exact=du, d2u_exact=d2u, q_exact=q,
    )


def poly_exact_1d(eps: float) -> ProblemSpec1D:
    """Quadratic exact solution u = x(1-x) with b = 1; lies in the discrete
    space for degree >= 2, making it a solver exactness oracle."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")

    def u(x):
        x = np.asarray(x, dtype=float)
        return x * (1.0 - x)

    def du(x):
        return 1.0 - 2.0 * np.asarray(x, dtype=float)

    def d2u(x):
        return np.full_like(np.asarray(x, dtype=float), -2.0)

    def q(x):
        return eps * du(x)

    def f(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * eps + x - x * x

    def b(x):
        return np.ones_like(np.asarray(x, dtype=float))

    return ProblemSpec1D(
        name="poly1d", eps=eps, beta=1.0, b=b, f=f,
        u_exact=u, du_exact=du, d2u_exact=d2u, q_exact=q,
    )


def _two(x, y):
    return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, 2.0)


def _tensor_2d(base: ProblemSpec1D, name: str, b: Callable) -> ProblemSpec2D:
    """Separable problem u(x,y) = u1(x)*u1(y), with u1 the exact solution of
    the 1D problem base, reaction coefficient b and f = -eps*Lap(u) + b*u."""
    eps = base.eps
    u1, du1, d2u1 = base.u_exact, base.du_exact, base.d2u_exact

    def u(x, y):
        return u1(x) * u1(y)

    def p(x, y):
        return eps * du1(x) * u1(y)

    def q(x, y):
        return eps * u1(x) * du1(y)

    def lap(x, y):
        return d2u1(x) * u1(y) + u1(x) * d2u1(y)

    def f(x, y):
        return -eps * lap(x, y) + b(x, y) * u(x, y)

    return ProblemSpec2D(
        name=name, eps=eps, beta=base.beta, b=b, f=f,
        u_exact=u, p_exact=p, q_exact=q, lap_exact=lap,
    )


def layer2d(eps: float) -> ProblemSpec2D:
    """Two-dimensional layer problem u(x,y) = u1(x)*u1(y) with u1 the
    solution of layer1d and b = 2, so layers form along all four edges and
    in the corners."""
    return _tensor_2d(layer1d(eps), "layer2d", _two)


def layer2d_variable_b(eps: float) -> ProblemSpec2D:
    """layer2d's u with the variable reaction coefficient b = 2 + x(1-y)."""
    return _tensor_2d(layer1d(eps), "layer2d_varb", lambda x, y: 2.0 + x * (1.0 - y))


def poly_exact_2d(eps: float) -> ProblemSpec2D:
    """Biquadratic exact solution u = x(1-x)y(1-y) with b = 2, the tensor
    product of poly_exact_1d."""
    return _tensor_2d(poly_exact_1d(eps), "poly2d", _two)


PROBLEM_NAMES = {
    "layer1d": (1, layer1d),
    "poly1d": (1, poly_exact_1d),
    "layer2d": (2, layer2d),
    "layer2d_varb": (2, layer2d_variable_b),
    "poly2d": (2, poly_exact_2d),
}


def get_problem(name: str, eps: float):
    """Look up a shipped problem by its CLI name."""
    try:
        _, factory = PROBLEM_NAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; available: {sorted(PROBLEM_NAMES)}"
        ) from None
    return factory(eps)
