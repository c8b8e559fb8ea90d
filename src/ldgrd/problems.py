"""Manufactured reaction-diffusion test problems with exact solutions and
fluxes, one ProblemSpec for 1D and 2D.  The 2D problems are tensor products
u1(x)*u1(y) of a 1D profile (u1, u1', u1''), the exact solution of a 1D
problem and its first two derivatives."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ProblemSpec",
    "layer1d",
    "layer2d",
    "layer2d_variable_b",
    "poly_exact_1d",
    "poly_exact_2d",
    "get_problem",
    "PROBLEM_NAMES",
]


@dataclass(frozen=True, kw_only=True)
class ProblemSpec:
    """-eps*Lap(u) + b*u = f on (0,1) or (0,1)^2 with u = 0 on the boundary.

    The callables take x, or x and y.  q_exact is the scaled flux eps*u' in
    1D and eps*u_y in 2D, p_exact = eps*u_x in 2D and None exactly in 1D;
    lap_exact is the analytic Laplacian of u (u'' in 1D), used by residual
    and cross checks.
    """

    name: str
    eps: float
    beta: float
    b: Callable
    f: Callable
    u_exact: Callable
    q_exact: Callable
    lap_exact: Callable
    p_exact: Callable | None = None

    @property
    def fluxes(self) -> tuple[Callable, ...]:
        """The exact flux of each axis in axis order, as LdgSolution.fluxes:
        (q_exact,) in 1D, (p_exact, q_exact) in 2D."""
        return (self.q_exact,) if self.p_exact is None else (self.p_exact, self.q_exact)


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


def _layer_profile(eps: float):
    """u1 = g(x) - cos(pi*x), g the layer profile of _layer_parts, with u1'
    and u1''."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    g, dg, d2g = _layer_parts(eps)

    def u(x):
        return g(x) - np.cos(np.pi * np.asarray(x, dtype=float))

    def du(x):
        return dg(x) + np.pi * np.sin(np.pi * np.asarray(x, dtype=float))

    def d2u(x):
        return d2g(x) + np.pi**2 * np.cos(np.pi * np.asarray(x, dtype=float))

    return u, du, d2u


def _poly_profile(eps: float):
    """u1 = x(1-x) with u1' and u1''."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")

    def u(x):
        x = np.asarray(x, dtype=float)
        return x * (1.0 - x)

    def du(x):
        return 1.0 - 2.0 * np.asarray(x, dtype=float)

    def d2u(x):
        return np.full_like(np.asarray(x, dtype=float), -2.0)

    return u, du, d2u


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _two(x, y):
    return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, 2.0)


def _problem_1d(name: str, eps: float, profile, f: Callable) -> ProblemSpec:
    """The problem with exact solution u1 of profile (u1, u1', u1''), b = 1
    and the given f."""
    u, du, d2u = profile

    def q(x):
        return eps * du(x)

    return ProblemSpec(name=name, eps=eps, beta=1.0, b=_one, f=f,
                       u_exact=u, q_exact=q, lap_exact=d2u)


def layer1d(eps: float) -> ProblemSpec:
    """Two-boundary-layer problem with b = 1 and exact solution
    g(x) - cos(pi*x), where g is the layer profile of _layer_parts."""
    def f(x):
        # -eps*u'' + u collapses: the layer terms cancel exactly.
        return -(1.0 + eps * np.pi**2) * np.cos(np.pi * np.asarray(x, dtype=float))

    return _problem_1d("layer1d", eps, _layer_profile(eps), f)


def poly_exact_1d(eps: float) -> ProblemSpec:
    """Quadratic exact solution u = x(1-x) with b = 1; lies in the discrete
    space for degree >= 2, making it a solver exactness oracle."""
    def f(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * eps + x - x * x

    return _problem_1d("poly1d", eps, _poly_profile(eps), f)


def _tensor_2d(name: str, eps: float, profile, b: Callable) -> ProblemSpec:
    """Separable problem u(x,y) = u1(x)*u1(y), with (u1, u1', u1'') the 1D
    profile, reaction coefficient b and f = -eps*Lap(u) + b*u."""
    u1, du1, d2u1 = profile

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

    return ProblemSpec(name=name, eps=eps, beta=1.0, b=b, f=f,
                       u_exact=u, q_exact=q, lap_exact=lap, p_exact=p)


def layer2d(eps: float) -> ProblemSpec:
    """Two-dimensional layer problem u(x,y) = u1(x)*u1(y) with u1 the
    solution of layer1d and b = 2, so layers form along all four edges and
    in the corners."""
    return _tensor_2d("layer2d", eps, _layer_profile(eps), _two)


def layer2d_variable_b(eps: float) -> ProblemSpec:
    """layer2d's u with the variable reaction coefficient b = 2 + x(1-y)."""
    return _tensor_2d("layer2d_varb", eps, _layer_profile(eps),
                      lambda x, y: 2.0 + x * (1.0 - y))


def poly_exact_2d(eps: float) -> ProblemSpec:
    """Biquadratic exact solution u = x(1-x)y(1-y) with b = 2, the tensor
    product of poly_exact_1d."""
    return _tensor_2d("poly2d", eps, _poly_profile(eps), _two)


PROBLEM_NAMES = {
    "layer1d": (1, layer1d),
    "poly1d": (1, poly_exact_1d),
    "layer2d": (2, layer2d),
    "layer2d_varb": (2, layer2d_variable_b),
    "poly2d": (2, poly_exact_2d),
}


def get_problem(name: str, eps: float) -> ProblemSpec:
    """Look up a shipped problem by its CLI name."""
    try:
        _, factory = PROBLEM_NAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; available: {sorted(PROBLEM_NAMES)}"
        ) from None
    return factory(eps)
