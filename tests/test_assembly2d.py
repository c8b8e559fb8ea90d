import dataclasses
import math

import numpy as np
import pytest

from ldgrd.assembly2d import (
    FluxConfig2D,
    LdgSolution2D,
    assemble2d,
    bilinear_B2d,
    coeffs_to_solution_2d,
    solution_to_coeffs_2d,
    solve_2d,
)
from ldgrd.linalg import matvec
from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from ldgrd.norms import discrete_energy_sq_2d
from ldgrd.polyspace import PiecewisePoly2D
from ldgrd.problems import layer2d, poly_exact_2d

from conftest import uniform_mesh_2d


def two_b(x, y):
    return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, 2.0)


def make_triple(mesh2, k, rng):
    nx, ny = mesh2.shape
    shape = (nx, ny, k + 1, k + 1)
    return LdgSolution2D(
        u=PiecewisePoly2D(mesh2, rng.standard_normal(shape)),
        p=PiecewisePoly2D(mesh2, rng.standard_normal(shape)),
        q=PiecewisePoly2D(mesh2, rng.standard_normal(shape)),
    )


def test_system_dimension():
    eps = 1e-4
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=4))
    mesh2 = build_tensor_2d(m, m)
    system = assemble2d(mesh2, poly_exact_2d(eps), 1, FluxConfig2D.paper(eps, 4))
    assert system.matrix.shape[0] == 192  # 3 * N^2 * (k+1)^2


@pytest.mark.parametrize("eps", [1e-4, 1e-8])
def test_polynomial_exactness_2d(eps):
    N, k = 8, 2
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=3.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    prob = poly_exact_2d(eps)
    t = solve_2d(mesh2, prob, k, FluxConfig2D.paper(eps, N))
    ext = np.linspace(-1.0, 1.0, 5)
    mids_x = 0.5 * (m.points[:-1] + m.points[1:])
    X = mids_x[:, None] + 0.5 * m.widths[:, None] * ext[None, :]
    X4 = X[:, None, :, None]
    Y4 = X[None, :, None, :]
    for poly, exact in ((t.u, prob.u_exact), (t.p, prob.p_exact), (t.q, prob.q_exact)):
        diff = poly.values_on_ref(ext, ext) - exact(X4, Y4)
        assert np.abs(diff).max() < 1e-9


def test_bilinear_2d_hand_value():
    # T = Z = (U=1, P=0, Q=0), b = 2: volume term 2 plus four boundary edge
    # families at weight sqrt(eps) each
    eps = 1e-4
    mesh2 = uniform_mesh_2d(4)
    cfg = FluxConfig2D(eps=eps, lambda_boundary=0.01, lambda_p=100.0,
                       lambda_q=100.0, special_index=3)
    nx, ny = mesh2.shape
    zero = np.zeros((nx, ny, 2, 2))
    one = zero.copy()
    one[..., 0, 0] = 1.0
    t = LdgSolution2D(u=PiecewisePoly2D(mesh2, one), p=PiecewisePoly2D(mesh2, zero),
                      q=PiecewisePoly2D(mesh2, zero))
    val = bilinear_B2d(t, t, two_b, cfg)
    assert math.isclose(val, 2.0 + 4.0 * 0.01, rel_tol=1e-13)
    z = LdgSolution2D(u=PiecewisePoly2D(mesh2, zero), p=PiecewisePoly2D(mesh2, zero),
                      q=PiecewisePoly2D(mesh2, zero))
    assert bilinear_B2d(z, z, two_b, cfg) == 0.0


@pytest.mark.parametrize("eps", [1e-4, 1e-10])
@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("k", [1, 2])
def test_energy_identity_2d(eps, N, k, rng):
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    cfg = FluxConfig2D.paper(eps, N)
    for _ in range(3):
        z = make_triple(mesh2, k, rng)
        b_val = bilinear_B2d(z, z, two_b, cfg)
        e_val = discrete_energy_sq_2d(z, two_b, cfg)
        assert abs(b_val - e_val) <= 1e-9 * abs(e_val)


FLUXES = {
    "paper": FluxConfig2D.paper,
    "classic": FluxConfig2D.classic,
    "paper_m1": lambda eps, N: dataclasses.replace(FluxConfig2D.paper(eps, N), special_index=1),
}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("flux", sorted(FLUXES))
def test_bilinear_matches_assembled_matrix_2d(flux, k, rng):
    eps = 1e-4
    N = 4
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    prob = layer2d(eps)
    cfg = FLUXES[flux](eps, N)
    system = assemble2d(mesh2, prob, k, cfg)
    t = make_triple(mesh2, k, rng)
    z = make_triple(mesh2, k, rng)
    lhs = solution_to_coeffs_2d(z) @ matvec(system.matrix, solution_to_coeffs_2d(t))
    rhs = bilinear_B2d(t, z, prob.b, cfg)
    assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1.0)


def test_assembly_2d_deterministic():
    eps = 1e-6
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=8))
    mesh2 = build_tensor_2d(m, m)
    prob = layer2d(eps)
    cfg = FluxConfig2D.paper(eps, 8)
    s1 = assemble2d(mesh2, prob, 1, cfg)
    s2 = assemble2d(mesh2, prob, 1, cfg)
    assert np.array_equal(s1.matrix.indptr, s2.matrix.indptr)
    assert np.array_equal(s1.matrix.indices, s2.matrix.indices)
    assert np.array_equal(s1.matrix.data, s2.matrix.data)
    assert np.array_equal(s1.rhs, s2.rhs)


def test_coefficient_roundtrip_2d(rng):
    mesh2 = uniform_mesh_2d(4)
    t = make_triple(mesh2, 2, rng)
    x = solution_to_coeffs_2d(t)
    t2 = coeffs_to_solution_2d(mesh2, 2, x)
    for a, b in ((t.u, t2.u), (t.p, t2.p), (t.q, t2.q)):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_classic_flux_config():
    cfg = FluxConfig2D.classic(1e-8, 16)
    assert cfg.lambda_p == 0.0 and cfg.lambda_q == 0.0
    assert cfg.lambda_boundary == 1e-4
    assert cfg.special_index == 12


def smooth_sine_problem(eps):
    # manufactured non-polynomial solution without layers
    from ldgrd.problems import ProblemSpec2D

    pi = np.pi

    def u(x, y):
        return np.sin(pi * np.asarray(x)) * np.sin(pi * np.asarray(y))

    def p(x, y):
        return eps * pi * np.cos(pi * np.asarray(x)) * np.sin(pi * np.asarray(y))

    def q(x, y):
        return eps * pi * np.sin(pi * np.asarray(x)) * np.cos(pi * np.asarray(y))

    def lap(x, y):
        return -2.0 * pi**2 * u(x, y)

    def f(x, y):
        return (2.0 * eps * pi**2 + 2.0) * u(x, y)

    def b(x, y):
        return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, 2.0)

    return ProblemSpec2D(name="sine2d", eps=eps, beta=1.0, b=b, f=f,
                         u_exact=u, p_exact=p, q_exact=q, lap_exact=lap)


def test_smooth_solution_converges_at_optimal_order():
    from ldgrd.norms import error_report_2d

    eps, k = 1e-4, 1
    prob = smooth_sine_problem(eps)
    errs = []
    for N in (8, 16, 32):
        m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
        mesh2 = build_tensor_2d(m, m)
        cfg = FluxConfig2D.paper(eps, N)
        t = solve_2d(mesh2, prob, k, cfg)
        errs.append(error_report_2d(t, prob, cfg).err_l2_u)
    order = math.log(errs[1] / errs[2]) / math.log(2.0)
    assert abs(order - (k + 1)) < 0.25, f"errors {errs}, observed order {order}"
