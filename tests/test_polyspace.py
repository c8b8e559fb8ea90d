import math
import tracemalloc

import numpy as np
import pytest

from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from ldgrd.polyspace import (
    PiecewisePoly1D,
    PiecewisePoly2D,
    gauss_rule,
    grad_matrix,
    leg_mass,
    legendre_basis,
    legendre_basis_deriv,
    legendre_eval,
)

from conftest import uniform_mesh, uniform_mesh_2d


def test_one_point_rule():
    rule = gauss_rule(1)
    assert rule.nodes[0] == 0.0
    assert rule.weights[0] == 2.0


def test_two_point_rule():
    rule = gauss_rule(2)
    assert np.allclose(np.sort(rule.nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_three_point_rule_integrates_quartic():
    rule = gauss_rule(3)
    val = float(rule.weights @ rule.nodes**4)
    assert abs(val - 2.0 / 5.0) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_rule_weights_and_exactness(n, rng):
    rule = gauss_rule(n)
    assert abs(rule.weights.sum() - 2.0) < 1e-14
    assert np.all(rule.weights > 0)
    # exact for a random polynomial of degree 2n-1
    coef = rng.standard_normal(2 * n)
    vals = np.polynomial.polynomial.polyval(rule.nodes, coef)
    exact = sum(c * ((1.0 - (-1.0) ** (m + 1)) / (m + 1)) for m, c in enumerate(coef))
    assert abs(float(rule.weights @ vals) - exact) < 1e-13


def test_legendre_point_values():
    assert legendre_eval(0, 0.7) == 1.0
    assert legendre_eval(1, 0.7) == 0.7
    assert abs(legendre_eval(2, 0.5) - (-0.125)) < 1e-15
    assert legendre_eval(3, 1.0) == 1.0
    assert legendre_eval(3, -1.0) == -1.0


def test_legendre_orthogonality():
    rule = gauss_rule(8)
    phi = legendre_basis(6, rule.nodes)
    gram = np.einsum("g,ig,jg->ij", rule.weights, phi, phi)
    expected = np.diag(2.0 / (2.0 * np.arange(7) + 1.0))
    assert np.abs(gram - expected).max() < 1e-13


def test_basis_derivative_against_finite_differences():
    t = np.linspace(-0.9, 0.9, 7)
    h = 1e-6
    der = legendre_basis_deriv(5, t)
    fd = (legendre_basis(5, t + h) - legendre_basis(5, t - h)) / (2 * h)
    assert np.abs(der - fd).max() < 1e-8


def test_grad_matrix_closed_form():
    # integral of P_a' P_n over [-1,1] is 2 when a > n with a-n odd, else 0
    G = grad_matrix(3)
    expected = np.zeros((4, 4))
    for a in range(4):
        for n in range(4):
            if a > n and (a - n) % 2 == 1:
                expected[a, n] = 2.0
    assert np.abs(G - expected).max() < 1e-13


def test_piecewise_eval_matches_monomial_oracle(rng):
    mesh = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=16))
    k = 3
    coeffs = rng.standard_normal((16, k + 1))
    poly = PiecewisePoly1D(mesh, coeffs)
    xs = rng.uniform(0.0, 1.0, size=200)
    vals = poly.eval(xs)
    for x, v in zip(xs, vals):
        j = int(np.searchsorted(mesh.points, x, side="right") - 1)
        t = 2.0 * (x - mesh.points[j]) / mesh.widths[j] - 1.0
        mono = np.polynomial.legendre.leg2poly(coeffs[j])
        ref = np.polynomial.polynomial.polyval(t, mono)
        assert abs(v - ref) < 1e-12


def test_jump_conventions_for_constant_one():
    mesh = uniform_mesh(8)
    poly = PiecewisePoly1D(mesh, np.column_stack([np.ones(8), np.zeros(8)]))
    for j in range(1, 8):
        assert abs(poly.jump(j)) < 1e-15
    assert poly.jump(0) == -1.0
    assert poly.jump(8) == 1.0


def test_jump_of_single_cell_linear():
    # p = x on the first cell of a uniform 4-cell mesh, zero elsewhere
    mesh = uniform_mesh(4)
    coeffs = np.zeros((4, 2))
    coeffs[0] = [0.125, 0.125]  # x = 0.125 + 0.125 t on [0, 0.25]
    poly = PiecewisePoly1D(mesh, coeffs)
    assert abs(poly.trace_left(1) - 0.25) < 1e-15
    assert abs(poly.jump(1) - 0.25) < 1e-15


def test_trace_errors_outside_domain():
    mesh = uniform_mesh(4)
    poly = PiecewisePoly1D(mesh, np.ones((4, 2)))
    with pytest.raises(IndexError):
        poly.trace_left(0)
    with pytest.raises(IndexError):
        poly.trace_right(4)


def test_values_on_ref_consistent_with_eval(rng):
    mesh = build_shishkin_1d(MeshParams(eps=1e-6, beta=1.0, sigma=3.0, N=8))
    coeffs = rng.standard_normal((8, 3))
    poly = PiecewisePoly1D(mesh, coeffs)
    t = np.array([-0.3, 0.1, 0.8])
    vals = poly.values_on_ref(t)
    mid = 0.5 * (mesh.points[:-1] + mesh.points[1:])
    for j in range(8):
        xs = mid[j] + 0.5 * mesh.widths[j] * t
        assert np.abs(poly.eval(xs) - vals[j]).max() < 1e-13


def test_deriv_values_on_ref(rng):
    mesh = uniform_mesh(4)
    coeffs = rng.standard_normal((4, 4))
    poly = PiecewisePoly1D(mesh, coeffs)
    t = np.array([-0.5, 0.25])
    der = poly.deriv_values_on_ref(t)
    h = 1e-7
    vp = poly.values_on_ref(t + h)
    vm = poly.values_on_ref(t - h)
    fd = (vp - vm) / (2 * h) * (2.0 / mesh.widths)[:, None]
    assert np.abs(der - fd).max() < 1e-5


def test_2d_eval_and_traces(rng):
    mesh2 = uniform_mesh_2d(4)
    k = 2
    coeffs = rng.standard_normal((4, 4, k + 1, k + 1))
    poly = PiecewisePoly2D(mesh2, coeffs)
    # point evaluation against direct tensor contraction
    x, y = 0.3, 0.9
    i = int(np.searchsorted(mesh2.mesh_x.points, x, side="right") - 1)
    j = int(np.searchsorted(mesh2.mesh_y.points, y, side="right") - 1)
    tx = 2 * (x - mesh2.mesh_x.points[i]) / mesh2.mesh_x.widths[i] - 1
    ty = 2 * (y - mesh2.mesh_y.points[j]) / mesh2.mesh_y.widths[j] - 1
    px = legendre_basis(k, np.array([tx]))[:, 0]
    py = legendre_basis(k, np.array([ty]))[:, 0]
    assert abs(poly.eval(x, y) - px @ coeffs[i, j] @ py) < 1e-13

    # traces: evaluating the tangential coefficients reproduces edge values
    line = poly.trace(0, 2, "left")  # from cells (1, :)
    ty_nodes = np.array([-0.7, 0.2])
    phi = legendre_basis(k, ty_nodes)
    vals = line @ phi
    for jj in range(4):
        y0, y1 = mesh2.mesh_y.cell(jj)
        ys = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * ty_nodes
        x_edge = mesh2.mesh_x.points[2]
        direct = [poly.eval(x_edge - 1e-12, yy) for yy in ys]
        assert np.abs(vals[jj] - direct).max() < 1e-9

    # y traces on the line y = y_j, from cells (:, j-1) ('left') and (:, j) ('right')
    for j, side, offset in ((2, "left", -1e-12), (2, "right", 1e-12), (4, "left", 0.0),
                            (0, "right", 0.0)):
        vals = poly.trace(1, j, side) @ phi
        y_edge = mesh2.mesh_y.points[j] + offset
        for ii in range(4):
            x0, x1 = mesh2.mesh_x.cell(ii)
            xs = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * ty_nodes
            direct = [poly.eval(xx, y_edge) for xx in xs]
            assert np.abs(vals[ii] - direct).max() < 1e-9


def test_eval_does_not_grow_memory(rng):
    # point evaluation at arbitrary points keeps nothing per point: 20,000
    # evaluations at distinct points once left 40,000 basis-cache entries
    m = build_shishkin_1d(MeshParams(eps=1e-6, beta=1.0, sigma=3.0, N=8))
    poly = PiecewisePoly2D(build_tensor_2d(m, m), rng.standard_normal((8, 8, 3, 3)))
    points = rng.uniform(0.0, 1.0, size=(20000, 2)).tolist()
    poly.eval(0.5, 0.5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for x, y in points:
            poly.eval(x, y)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 2**20, f"{grown / 2**20:.1f} MiB retained by 20,000 evaluations"


def test_2d_jump_conventions(rng):
    mesh2 = uniform_mesh_2d(4)
    coeffs = np.zeros((4, 4, 2, 2))
    coeffs[..., 0, 0] = 1.0  # constant one
    poly = PiecewisePoly2D(mesh2, coeffs)
    for axis in (0, 1):
        for i in range(1, 4):
            assert np.abs(poly.jump(axis, i)).max() < 1e-15
        assert np.allclose(poly.jump(axis, 0)[:, 0], -1.0)
        assert np.allclose(poly.jump(axis, 4)[:, 0], 1.0)


def test_2d_trace_rejects_bad_line(rng):
    mesh2 = build_tensor_2d(uniform_mesh(4), uniform_mesh(8))
    poly = PiecewisePoly2D(mesh2, rng.standard_normal((4, 8, 2, 2)))
    assert poly.trace(1, 8, "left").shape == (4, 2)
    for axis in (2, -1):
        with pytest.raises(ValueError):
            poly.trace(axis, 1, "left")
        with pytest.raises(ValueError):
            poly.jump(axis, 1)
    with pytest.raises(ValueError):
        poly.trace(0, 1, "up")
    for axis, i, side in ((0, 0, "left"), (0, 4, "right"), (0, 5, "left"),
                          (1, 8, "right"), (1, 9, "left"), (1, -1, "right")):
        with pytest.raises(IndexError):
            poly.trace(axis, i, side)
    with pytest.raises(IndexError):
        poly.jump(0, 5)


def test_mass_diag():
    assert np.allclose(leg_mass(3), [2.0, 2.0 / 3.0, 0.4, 2.0 / 7.0], atol=1e-15)
