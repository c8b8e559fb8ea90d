import math

import numpy as np
import pytest

from ldgrd.problems import (PROBLEM_NAMES, _layer_parts, get_problem, layer1d, layer2d,
                            layer2d_variable_b, poly_exact_1d, poly_exact_2d)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-8, 1e-12])
def test_layer1d_boundary_and_midpoint(eps):
    p = layer1d(eps)
    assert abs(p.u_exact(np.array([0.0]))[0]) < 1e-12
    assert abs(p.u_exact(np.array([1.0]))[0]) < 1e-12
    assert abs(p.u_exact(np.array([0.5]))[0]) < 1e-12  # layer parts cancel, cos vanishes


@pytest.mark.parametrize("name", list(PROBLEM_NAMES))
@pytest.mark.parametrize("eps", [1e-2, 1e-8, 1e-12])
def test_shipped_problem_vanishes_on_the_boundary(name, eps, rng):
    # the norms take every error jump from the discrete solution alone, which
    # holds because u is continuous and vanishes on the boundary
    dim, _ = PROBLEM_NAMES[name]
    p = get_problem(name, eps)
    if dim == 1:
        assert np.all(p.u_exact(np.array([0.0, 1.0])) == 0.0)
        return
    s, zero, one = rng.uniform(0.0, 1.0, 50), np.zeros(50), np.ones(50)
    for x, y in ((zero, s), (one, s), (s, zero), (s, one)):
        assert np.all(p.u_exact(x, y) == 0.0)


@pytest.mark.parametrize("name", list(PROBLEM_NAMES))
@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
def test_residual_vanishes(name, eps, rng):
    dim, _ = PROBLEM_NAMES[name]
    p = get_problem(name, eps)
    x = rng.uniform(0.0, 1.0, size=(dim, 100))
    resid = -eps * p.lap_exact(*x) + p.b(*x) * p.u_exact(*x) - p.f(*x)
    assert np.abs(resid).max() < 1e-12


@pytest.mark.parametrize("name", list(PROBLEM_NAMES))
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_fluxes_are_eps_times_the_gradient_in_axis_order(name, eps, rng):
    # fluxes[a] is eps times the derivative of u along axis a, as the report
    # pairs it with LdgSolution.fluxes[a]; five points per axis sit in the
    # layer at 0, where the flux is largest
    dim, _ = PROBLEM_NAMES[name]
    p = get_problem(name, eps)
    assert len(p.fluxes) == dim and (p.p_exact is None) == (dim == 1)
    s = math.sqrt(eps)
    x = rng.uniform(0.0, 1.0, size=(dim, 40))
    x[:, :5] = 0.2 * s * (1 + np.arange(5))
    h = 1e-6 * s
    for a, flux in enumerate(p.fluxes):
        step = h * (np.arange(dim) == a)[:, None]
        fd = eps * (p.u_exact(*(x + step)) - p.u_exact(*(x - step))) / (2 * h)
        exact = flux(*x)
        assert np.abs(fd - exact).max() <= 1e-4 * np.abs(exact).max(), a


def test_layer1d_flux_at_left_boundary():
    eps = 1e-4
    p = layer1d(eps)
    q0 = p.q_exact(np.array([0.0]))[0]
    assert math.isclose(q0, -math.sqrt(eps), rel_tol=1e-6)


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_layer1d_derivatives_against_finite_differences(eps, rng):
    p = layer1d(eps)
    s = math.sqrt(eps)
    xs = np.concatenate([rng.uniform(0.3, 0.7, 5), 0.2 * s * (1 + np.arange(5))])
    h = 1e-6 * s
    du = p.q_exact(xs) / eps
    fd1 = (p.u_exact(xs + h) - p.u_exact(xs - h)) / (2 * h)
    assert np.abs((fd1 - du) / du).max() < 1e-4
    fd2 = (p.q_exact(xs + h) / eps - p.q_exact(xs - h) / eps) / (2 * h)
    assert np.abs((fd2 - p.lap_exact(xs)) / np.abs(p.lap_exact(xs)).max()).max() < 1e-4


def test_layer1d_underflow_safe():
    p = layer1d(1e-12)
    x = np.linspace(0.0, 1.0, 1001)
    for fn in (p.u_exact, p.q_exact, p.lap_exact, p.f):
        assert np.all(np.isfinite(fn(x)))


EPS_POOL = (1e-8, 1e-6, 1e-7, 1e-9, 1e-10, 1e-11, 1e-12)  # the benchmark's eps pool


def plain_layer_parts(eps):
    """g, g' and g'' of _layer_parts with every exponential evaluated: the
    formula before the underflowing ones were skipped, kept as the oracle."""
    s = math.sqrt(eps)
    denom = 1.0 - math.exp(-1.0 / s)
    return (lambda x: (np.exp(-x / s) - np.exp(-(1.0 - x) / s)) / denom,
            lambda x: -(np.exp(-x / s) + np.exp(-(1.0 - x) / s)) / (s * denom),
            lambda x: (np.exp(-x / s) - np.exp(-(1.0 - x) / s)) / (s * s * denom))


@pytest.mark.parametrize("eps", EPS_POOL + (1e-4,))
def test_layer_parts_skip_only_underflowing_exponentials(eps):
    # Both exponentials' arguments sweep -800..-700, across exp's underflow to
    # +0.0 (about -745.13) and the -746 below which exp is not evaluated, plus
    # the floats next to -746 itself; the values must keep every bit.
    s = math.sqrt(eps)
    a = np.concatenate([np.linspace(-800.0, -700.0, 4001),
                        np.nextafter(-746.0, [-np.inf, 0.0]), [-746.0, -745.13]])
    x = np.concatenate([-a * s, 1.0 + a * s, np.linspace(0.0, 1.0, 1001)])
    x = x[(x >= 0.0) & (x <= 1.0)]
    for fn, ref in zip(_layer_parts(eps), plain_layer_parts(eps)):
        got, want = fn(x), ref(x)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.isnan(fn(np.array([np.nan]))).all()


def test_poly1d_hand_values():
    eps = 1e-4
    p = poly_exact_1d(eps)
    assert p.u_exact(np.array([0.0]))[0] == 0.0
    assert p.u_exact(np.array([1.0]))[0] == 0.0
    assert abs(p.q_exact(np.array([0.5]))[0]) < 1e-16
    assert math.isclose(p.f(np.array([0.0]))[0], 2 * eps, rel_tol=1e-14)


@pytest.mark.parametrize("eps", [1e-4, 1e-8])
def test_layer2d_boundary_zero(eps, rng):
    p = layer2d(eps)
    edge = rng.uniform(0.0, 1.0, 20)
    for xb, yb in [(np.zeros(20), edge), (np.ones(20), edge),
                   (edge, np.zeros(20)), (edge, np.ones(20))]:
        assert np.abs(p.u_exact(xb, yb)).max() < 1e-12
    assert abs(p.u_exact(np.array(0.5), np.array(0.5))) < 1e-12
    assert abs(p.p_exact(np.array(0.0), np.array(0.5))) < 1e-12


def test_layer2d_laplacian_against_finite_differences(rng):
    eps = 1e-2
    p = layer2d(eps)
    xs = rng.uniform(0.2, 0.8, 8)
    ys = rng.uniform(0.2, 0.8, 8)
    h = 1e-4
    lap_fd = ((p.u_exact(xs + h, ys) - 2 * p.u_exact(xs, ys) + p.u_exact(xs - h, ys))
              + (p.u_exact(xs, ys + h) - 2 * p.u_exact(xs, ys) + p.u_exact(xs, ys - h))) / h**2
    lap = p.lap_exact(xs, ys)
    assert np.abs(lap_fd - lap).max() / np.abs(lap).max() < 1e-4


def test_layer2d_residual(rng):
    # layer2d_varb is layer2d's u with b = 2 + x(1-y), so its f, which
    # test_residual_vanishes checks against p.b, is the residual of that b
    eps = 1e-6
    xs = rng.uniform(0.0, 1.0, 50)
    ys = rng.uniform(0.0, 1.0, 50)
    p = layer2d_variable_b(eps)
    assert np.all(p.u_exact(xs, ys) == layer2d(eps).u_exact(xs, ys))
    assert np.abs(p.b(xs, ys) - (2.0 + xs * (1.0 - ys))).max() == 0.0


def test_poly2d_hand_values(rng):
    eps = 1e-4
    p = poly_exact_2d(eps)
    assert abs(p.u_exact(np.array(0.25), np.array(0.0))) == 0.0
    # lap(u) for u = x(1-x)y(1-y)
    xs, ys = rng.uniform(0, 1, 10), rng.uniform(0, 1, 10)
    ref = -2 * ys * (1 - ys) - 2 * xs * (1 - xs)
    assert np.abs(p.lap_exact(xs, ys) - ref).max() < 1e-15
    assert np.all(p.b(xs, ys) == 2.0)


def test_get_problem_rejects_unknown():
    with pytest.raises(ValueError, match="unknown problem"):
        get_problem("nosuch", 1e-4)


@pytest.mark.parametrize("factory", [factory for _, factory in PROBLEM_NAMES.values()])
def test_eps_domain_validated(factory):
    # the flux weights sqrt(eps) and 1/sqrt(eps) must be finite and positive,
    # as the energy identity and the 2D solve's flux-block inverse need
    for eps in (0.0, -1.0, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
            factory(eps)
