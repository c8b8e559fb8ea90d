import math

import numpy as np
import pytest

from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d

# Hand-evaluated from the three-branch point formula with
# eps=1e-4, beta=1, sigma=2, N=32: tau = 2*0.01*ln(32), x_1 = 4*0.02*ln(32)/32.
TAU_REF = 0.06931471805599453
X1_REF = 0.008664339756999316


def test_transition_point_value():
    p = MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=32)
    assert math.isclose(p.tau, TAU_REF, rel_tol=1e-14)


def test_points_match_hand_values():
    mesh = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=32))
    assert mesh.points[0] == 0.0
    assert mesh.points[32] == 1.0
    assert math.isclose(mesh.points[1], X1_REF, rel_tol=1e-14)
    assert math.isclose(mesh.points[8], TAU_REF, rel_tol=1e-14)
    assert math.isclose(mesh.points[16], 0.5, rel_tol=1e-14)
    assert math.isclose(mesh.points[24], 1.0 - TAU_REF, rel_tol=1e-14)


@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("N", [8, 32, 128])
@pytest.mark.parametrize("sigma", [2.0, 4.0])
def test_symmetry_and_region_widths(eps, N, sigma):
    params = MeshParams(eps=eps, beta=1.0, sigma=sigma, N=N)
    mesh = build_shishkin_1d(params)
    pts = mesh.points
    assert np.all(np.diff(pts) > 0)
    assert np.abs(pts + pts[::-1] - 1.0).max() < 1e-14
    tau = params.tau
    fine = 4.0 * tau / N
    coarse = 2.0 * (1.0 - 2.0 * tau) / N
    w = mesh.widths
    assert np.allclose(w[: N // 4], fine, rtol=1e-12)
    assert np.allclose(w[3 * N // 4:], fine, rtol=1e-12)
    assert np.allclose(w[N // 4: 3 * N // 4], coarse, rtol=1e-12)
    # exactly N/4 + N/2 + N/4 cells per region
    assert np.sum(pts <= tau + 1e-15) == N // 4 + 1
    assert np.sum(pts >= 1.0 - tau - 1e-15) == N // 4 + 1
    assert w.max() <= 2.0 / N + 1e-15


@pytest.mark.parametrize("bad_n", [0, 2, 6, 33, -4])
def test_rejects_bad_cell_count(bad_n):
    with pytest.raises(ValueError):
        MeshParams(eps=1e-4, N=bad_n)


@pytest.mark.parametrize("bad_n", [8.0, 8.5])
def test_cell_count_must_be_an_integer(bad_n):
    # a float count failed inside numpy with a TypeError that named no field
    with pytest.raises(ValueError, match=f"N must be an integer, got {bad_n}"):
        build_shishkin_1d(MeshParams(eps=1e-6, N=bad_n))
    mesh = build_shishkin_1d(MeshParams(eps=1e-6, N=np.int64(8)))
    assert np.array_equal(mesh.points, build_shishkin_1d(MeshParams(eps=1e-6, N=8)).points)


def test_rejects_large_transition_point():
    # tau = 2*0.1*ln(32) = 0.693 > 1/4
    with pytest.raises(ValueError, match="tau"):
        MeshParams(eps=1e-2, beta=1.0, sigma=2.0, N=32)


def test_rejects_bad_eps():
    with pytest.raises(ValueError):
        MeshParams(eps=0.0, N=8)
    with pytest.raises(ValueError):
        MeshParams(eps=1.5, N=8)


@pytest.mark.parametrize("field", ["beta", "sigma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_rejects_bad_beta_and_sigma(field, bad):
    # NaN fails every comparison, so a check like `beta <= 0` lets it through
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        MeshParams(eps=1e-8, N=16, **{field: bad})


def test_points_are_immutable():
    mesh = build_shishkin_1d(MeshParams(eps=1e-4, N=8))
    with pytest.raises(ValueError):
        mesh.points[0] = 0.5


def test_tensor_mesh_tiles_unit_square():
    m = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=4))
    mesh2 = build_tensor_2d(m, m)
    assert mesh2.ncells == 16
    area = float(np.outer(mesh2.mesh_x.widths, mesh2.mesh_y.widths).sum())
    assert math.isclose(area, 1.0, rel_tol=1e-14)
    # symmetric under coordinate swap when both 1D meshes coincide
    X, Y = mesh2.quad_points(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))
    assert np.array_equal(X[:, 0, :, 0], Y[0, :, 0, :])


def test_tensor_first_cell_matches_1d_formula():
    m = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=32))
    mesh2 = build_tensor_2d(m, m)
    (x0, x1), (y0, y1) = mesh2.mesh_x.points[:2], mesh2.mesh_y.points[:2]
    assert x0 == 0.0 and y0 == 0.0
    assert math.isclose(x1, X1_REF, rel_tol=1e-14)
    assert math.isclose(y1, X1_REF, rel_tol=1e-14)
