import math

import numpy as np
import pytest
from numpy.polynomial.legendre import legval, legval2d

from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from ldgrd.polyspace import (
    PiecewisePoly,
    end_vals,
    gauss_rule,
    grad_matrix,
    leg_mass,
    legendre_basis,
    _cell_sums,
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
    assert legendre_basis(0, 0.7)[0] == 1.0
    assert legendre_basis(1, 0.7)[1] == 0.7
    assert abs(legendre_basis(2, 0.5)[2] - (-0.125)) < 1e-15
    assert legendre_basis(3, 1.0)[3] == 1.0
    assert legendre_basis(3, -1.0)[3] == -1.0


def test_legendre_orthogonality():
    rule = gauss_rule(8)
    phi = legendre_basis(6, rule.nodes)
    gram = np.einsum("g,ig,jg->ij", rule.weights, phi, phi)
    expected = np.diag(2.0 / (2.0 * np.arange(7) + 1.0))
    assert np.abs(gram - expected).max() < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_grad_matrix_closed_form(k):
    # integral of P_a' P_n over [-1,1] is 2 when a > n with a-n odd, else 0.
    # P_a' has degree a-1 < k, so row a of G fixes it: G checks every
    # derivative that grad_matrix's recurrence forms at the k+1 Gauss nodes.
    G = grad_matrix(k)
    expected = np.zeros((k + 1, k + 1))
    for a in range(k + 1):
        for n in range(k + 1):
            if a > n and (a - n) % 2 == 1:
                expected[a, n] = 2.0
    assert np.abs(G - expected).max() < 1e-13


def test_piecewise_eval_matches_monomial_oracle(rng):
    mesh = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=16))
    k = 3
    coeffs = rng.standard_normal((16, k + 1))
    poly = PiecewisePoly(mesh, coeffs)
    t = rng.uniform(-1.0, 1.0, size=200)
    vals = poly.values_on_ref(t)
    for j in range(16):
        mono = np.polynomial.legendre.leg2poly(coeffs[j])
        assert np.abs(vals[j] - np.polynomial.polynomial.polyval(t, mono)).max() < 1e-12


def test_jump_conventions_for_constant_one():
    mesh = uniform_mesh(8)
    poly = PiecewisePoly(mesh, np.column_stack([np.ones(8), np.zeros(8)]))
    for j in range(1, 8):
        assert abs(poly.jump(j)) < 1e-15
    assert poly.jump(0) == -1.0
    assert poly.jump(8) == 1.0


def test_jump_of_single_cell_linear():
    # p = x on the first cell of a uniform 4-cell mesh, zero elsewhere
    mesh = uniform_mesh(4)
    coeffs = np.zeros((4, 2))
    coeffs[0] = [0.125, 0.125]  # x = 0.125 + 0.125 t on [0, 0.25]
    poly = PiecewisePoly(mesh, coeffs)
    assert abs(poly.jump(1) - 0.25) < 1e-15
    # in 1D a trace is a scalar: the value at the point from the cell on its side
    assert np.ndim(poly.trace(1, "left")) == np.ndim(poly.jump(1)) == 0
    assert abs(poly.trace(1, "left") - 0.25) < 1e-15 and poly.trace(1, "right") == 0.0
    assert poly.jump(0) == -poly.trace(0, "right") == 0.0


def test_trace_errors_outside_domain():
    mesh = uniform_mesh(4)
    poly = PiecewisePoly(mesh, np.ones((4, 2)))
    with pytest.raises(IndexError):
        poly.jump(-1)
    with pytest.raises(IndexError):
        poly.jump(5)
    with pytest.raises(IndexError):
        poly.trace(0, "left")
    with pytest.raises(ValueError):
        poly.jump(1, axis=1)  # a 1D mesh has one axis


def test_values_on_ref_consistent_with_eval(rng):
    # values_on_ref(t)[j] is the value at mesh.quad_points(t)[j], evaluated
    # by numpy's legval at that point's reference coordinate on cell j
    mesh = build_shishkin_1d(MeshParams(eps=1e-6, beta=1.0, sigma=3.0, N=8))
    coeffs = rng.standard_normal((8, 3))
    poly = PiecewisePoly(mesh, coeffs)
    t = np.array([-0.3, 0.1, 0.8])
    vals, X = poly.values_on_ref(t), mesh.quad_points(t)
    for j in range(8):
        tj = 2.0 * (X[j] - mesh.points[j]) / mesh.widths[j] - 1.0
        assert np.abs(legval(tj, coeffs[j]) - vals[j]).max() < 1e-13


def test_2d_values_on_ref_consistent_with_eval(rng):
    # different x and y meshes and reference nodes, so that the two axes of
    # the sum-factorized evaluation cannot be swapped unseen
    mx = build_shishkin_1d(MeshParams(eps=1e-6, beta=1.0, sigma=2.0, N=4))
    my = build_shishkin_1d(MeshParams(eps=1e-6, beta=1.0, sigma=3.0, N=4))
    mesh2 = build_tensor_2d(mx, my)
    coeffs = rng.standard_normal((4, 4, 3, 3))
    poly = PiecewisePoly(mesh2, coeffs)
    tx, ty = np.array([-0.3, 0.1, 0.8]), np.array([-0.9, 0.5])
    vals = poly.values_on_ref(tx, ty)
    assert vals.shape == (4, 4, 3, 2)
    X, Y = mesh2.quad_points(tx, ty)
    assert X.shape == (4, 1, 3, 1) and Y.shape == (1, 4, 1, 2)
    for i, j in np.ndindex(4, 4):
        sx = 2.0 * (X[i, 0, :, 0] - mx.points[i]) / mx.widths[i] - 1.0
        sy = 2.0 * (Y[0, j, 0, :] - my.points[j]) / my.widths[j] - 1.0
        ref = legval2d(*np.meshgrid(sx, sy, indexing="ij"), coeffs[i, j])
        assert np.abs(vals[i, j] - ref).max() < 1e-12


def test_cell_sums_then_widths_match_einsum(rng):
    # the 2D volume sums of the reports and of the bilinear form: per-cell
    # sums, then the widths contracted one axis at a time
    vals = rng.standard_normal((3, 4, 5, 5))
    w, wx, wy = rng.random(5), rng.random(3), rng.random(4)
    ref = np.einsum("ijxy,x,y,i,j->", vals, w, w, wx, wy)
    assert abs(wy @ (wx @ _cell_sums(vals, w, 2)) - ref) <= 1e-14 * np.einsum(
        "ijxy,x,y,i,j->", np.abs(vals), w, w, wx, wy)


def test_2d_eval_and_traces(rng):
    mesh2 = uniform_mesh_2d(4)
    k = 2
    coeffs = rng.standard_normal((4, 4, k + 1, k + 1))
    poly = PiecewisePoly(mesh2, coeffs)
    # evaluation at one reference point against direct tensor contraction
    tx, ty = 0.3, -0.6
    px, py = legendre_basis(k, [tx, ty]).T
    vals = poly.values_on_ref(np.array([tx]), np.array([ty]))[..., 0, 0]
    assert np.abs(vals - px @ coeffs @ py).max() < 1e-13

    # traces: evaluating the tangential coefficients reproduces the values of
    # the cell they are taken from at its edge (reference coordinate -1 or +1
    # normal to the line)
    nodes = np.array([-0.7, 0.2])
    vals = poly.trace(2, "left", 0) @ legendre_basis(k, nodes)  # from cells (1, :)
    for jj in range(4):
        assert np.abs(vals[jj] - legval2d(np.ones(2), nodes, coeffs[1, jj])).max() < 1e-13

    # y traces on the line y = y_j, from cells (:, j-1) ('left') and (:, j) ('right')
    for j, side, cell, end in ((2, "left", 1, 1.0), (2, "right", 2, -1.0), (4, "left", 3, 1.0),
                               (0, "right", 0, -1.0)):
        vals = poly.trace(j, side, 1) @ legendre_basis(k, nodes)
        for ii in range(4):
            ref = legval2d(nodes, np.full(2, end), coeffs[ii, cell])
            assert np.abs(vals[ii] - ref).max() < 1e-13


def test_2d_jump_conventions(rng):
    mesh2 = uniform_mesh_2d(4)
    coeffs = np.zeros((4, 4, 2, 2))
    coeffs[..., 0, 0] = 1.0  # constant one
    poly = PiecewisePoly(mesh2, coeffs)
    for axis in (0, 1):
        for i in range(1, 4):
            assert np.abs(poly.jump(i, axis)).max() < 1e-15
        assert np.allclose(poly.jump(0, axis)[:, 0], -1.0)
        assert np.allclose(poly.jump(4, axis)[:, 0], 1.0)


def test_2d_trace_rejects_bad_line(rng):
    mesh2 = build_tensor_2d(uniform_mesh(4), uniform_mesh(8))
    poly = PiecewisePoly(mesh2, rng.standard_normal((4, 8, 2, 2)))
    assert poly.trace(8, "left", 1).shape == (4, 2)
    for axis in (2, -1):
        with pytest.raises(ValueError):
            poly.trace(1, "left", axis)
        with pytest.raises(ValueError):
            poly.jump(1, axis)
    with pytest.raises(ValueError):
        poly.trace(1, "up", 0)
    for axis, i, side in ((0, 0, "left"), (0, 4, "right"), (0, 5, "left"),
                          (1, 8, "right"), (1, 9, "left"), (1, -1, "right")):
        with pytest.raises(IndexError):
            poly.trace(i, side, axis)
    with pytest.raises(IndexError):
        poly.jump(5, 0)


def test_piecewise_poly_rejects_a_wrong_coefficient_shape(rng):
    mesh, mesh2 = uniform_mesh(4), build_tensor_2d(uniform_mesh(4), uniform_mesh(8))
    for m, shape in ((mesh, (5, 3)),           # wrong cell count in 1D
                     (mesh2, (4, 4, 2, 2)),    # wrong cell count along y
                     (mesh2, (4, 2)),          # 1D coefficients on a 2D mesh
                     (mesh2, (4, 8, 2)),       # one mode axis on a 2D mesh
                     (mesh, (4, 2, 2)),        # 2D modes on a 1D mesh
                     (mesh2, (4, 8, 2, 3))):   # mode axes that are not square
        with pytest.raises(ValueError, match="coefficient array"):
            PiecewisePoly(m, rng.standard_normal(shape))
    assert PiecewisePoly(mesh2, np.zeros((4, 8, 3, 3))).degree == 2
    assert PiecewisePoly(mesh, np.zeros((4, 3))).degree == 2


@pytest.mark.parametrize("shared", [lambda: gauss_rule(3).nodes, lambda: gauss_rule(3).weights,
                                    lambda: leg_mass(2), lambda: grad_matrix(2),
                                    lambda: end_vals(2)[0], lambda: end_vals(2)[1]],
                         ids=["nodes", "weights", "leg_mass", "grad_matrix", "end_minus", "end_plus"])
def test_cached_reference_arrays_are_read_only(shared):
    # every cache entry is shared by all its callers: a write is refused
    with pytest.raises(ValueError):
        shared()[...] = 0.0


def test_mass_diag():
    assert np.allclose(leg_mass(3), [2.0, 2.0 / 3.0, 0.4, 2.0 / 7.0], atol=1e-15)
