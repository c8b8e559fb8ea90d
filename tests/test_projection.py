import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legval

from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from ldgrd.polyspace import gauss_rule, legendre_basis
from ldgrd import polyspace, projection
from ldgrd.problems import layer1d, layer2d
from ldgrd.projection import (
    _fine_band,
    _node_samples,
    _project,
    composite_px_2d,
    composite_q_1d,
    composite_qy_2d,
    composite_u_1d,
    composite_u_2d,
    measure_interp_error,
    measure_interp_error_2d,
)

from conftest import uniform_mesh, uniform_mesh_2d


def smooth(x):
    return np.sin(3.0 * x) + x**2 - 0.4 * x


def smooth2(x, y):
    return np.sin(2.0 * x + 0.3) * np.cos(1.5 * y) + x * y**2


# The single-cell checks call the projection kernel on one cell, the 0-d
# case of the arrays of cells the composites pass, given as one interval per
# axis: L2 alone, or with one Gauss-Radau fix (axis, side, where); values at
# reference points come from numpy's legval.


def radau(z, cells, k, axis, side, where=True):
    return _project(z, cells, k, [(axis, side, where)])


def test_l2_constant():
    c = _project(lambda x: np.full_like(x, 5.0), [(0.2, 0.7)], 1)
    assert np.allclose(c, [5.0, 0.0], atol=1e-14)


def test_l2_of_x_squared_hand_solution():
    # moments of x^2 against {1, x} on (0,1) give -1/6 + x
    c = _project(lambda x: x**2, [(0.0, 1.0)], 1)
    assert abs(legval(-1.0, c) - (-1.0 / 6.0)) < 1e-14
    assert abs(legval(1.0, c) - 5.0 / 6.0) < 1e-14


def test_gauss_radau_minus_hand_solution():
    # match the mean (1/3) and the right endpoint value 1: -1/3 + 4x/3
    c = radau(lambda x: x**2, [(0.0, 1.0)], 1, 0, "minus")
    assert abs(legval(-1.0, c) - (-1.0 / 3.0)) < 1e-14
    assert abs(legval(1.0, c) - 1.0) < 1e-14


def test_gauss_radau_plus_left_endpoint():
    c = radau(lambda x: x**2, [(0.0, 1.0)], 1, 0, "plus")
    assert abs(legval(-1.0, c)) < 1e-14
    assert abs(legval(1.0, c) - 2.0 / 3.0) < 1e-14  # (2/3) x at x=1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_projections_reproduce_polynomials(k, rng):
    coef = rng.standard_normal(k + 1)

    def z(x):
        return np.polynomial.polynomial.polyval(x, coef)

    cell = (0.3, 0.55)
    t = np.linspace(-1, 1, 9)
    xs = 0.5 * (cell[0] + cell[1]) + 0.5 * (cell[1] - cell[0]) * t
    for c in (_project(z, [cell], k), radau(z, [cell], k, 0, "minus"), radau(z, [cell], k, 0, "plus")):
        assert np.abs(legval(t, c) - z(xs)).max() < 1e-13


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("cell", [(0.0, 0.25), (0.13, 0.2), (0.5, 0.53)])
def test_orthogonality_conditions(k, cell):
    # mesh-scale cells (width <= 1/4); moments checked with an independent,
    # much finer quadrature
    rule = gauss_rule(30)
    a, b = cell
    xs = 0.5 * (a + b) + 0.5 * (b - a) * rule.nodes
    phi = legendre_basis(k, rule.nodes)
    zx = smooth(xs)

    c = _project(smooth, [cell], k)
    resid = zx - legval(rule.nodes, c)
    moments = phi @ (rule.weights * resid)
    assert np.abs(moments).max() < 1e-12

    cm = radau(smooth, [cell], k, 0, "minus")
    resid = zx - legval(rule.nodes, cm)
    moments = phi[:k] @ (rule.weights * resid)
    assert np.abs(moments).max() < 1e-12
    assert abs(legval(1.0, cm) - smooth(np.array([b]))[0]) < 1e-12

    cp = radau(smooth, [cell], k, 0, "plus")
    resid = zx - legval(rule.nodes, cp)
    moments = phi[:k] @ (rule.weights * resid)
    assert np.abs(moments).max() < 1e-12
    assert abs(legval(-1.0, cp) - smooth(np.array([a]))[0]) < 1e-12


def test_gauss_radau_rejects_degree_zero():
    # every composite with Gauss-Radau cells, whatever its region mask, by
    # the solvers' degree rule
    mesh = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=8))
    mesh2 = build_tensor_2d(mesh, mesh)
    for composite, args in ((composite_u_1d, (smooth, mesh)), (composite_q_1d, (smooth, mesh)),
                            (composite_u_2d, (smooth2, mesh2)), (composite_px_2d, (smooth2, mesh2)),
                            (composite_qy_2d, (smooth2, mesh2))):
        with pytest.raises(ValueError, match="polynomial degree must be >= 1, got 0"):
            composite(*args, 0)


@pytest.mark.parametrize("composite, dim", [(composite_u_1d, 1), (composite_q_1d, 1),
                                            (composite_u_2d, 2), (composite_px_2d, 2),
                                            (composite_qy_2d, 2)])
def test_composites_check_the_degree_and_the_mesh_dimension(composite, dim):
    # the solvers' degree rule and a ValueError naming both dimensions, where
    # numpy raised a TypeError, an IndexError or a broadcast error
    m = build_shishkin_1d(MeshParams(eps=1e-8, beta=1.0, sigma=3.0, N=16))
    meshes = {1: m, 2: build_tensor_2d(m, m)}
    field = {1: layer1d, 2: layer2d}[dim](1e-8).u_exact
    for k in (1.0, 2.5):
        with pytest.raises(ValueError, match=f"polynomial degree must be an integer, got {k}"):
            composite(field, meshes[dim], k)
    with pytest.raises(ValueError, match=f"a {3 - dim}D mesh does not fit the {dim}D composite"):
        composite(field, meshes[3 - dim], 2)
    _node_samples.cache_clear()
    got = composite(field, meshes[dim], np.int64(2)).coeffs
    _node_samples.cache_clear()
    want = composite(field, meshes[dim], 2).coeffs
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


def test_composite_u_region_table():
    mesh = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=8))
    k = 1
    comp = composite_u_1d(smooth, mesh, k)
    for j in range(8):
        cell = mesh.points[j], mesh.points[j + 1]
        if j < 2 or j in (6,):  # fine bands except the final cell
            ref = radau(smooth, [cell], k, 0, "minus")
        else:  # coarse middle cells and the last cell
            ref = _project(smooth, [cell], k)
        assert np.array_equal(comp.coeffs[j], ref)


def test_composite_q_region_table():
    mesh = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=8))
    k = 2
    comp = composite_q_1d(smooth, mesh, k)
    ref0 = _project(smooth, [(mesh.points[0], mesh.points[1])], k)
    assert np.array_equal(comp.coeffs[0], ref0)
    for j in range(1, 8):
        ref = radau(smooth, [(mesh.points[j], mesh.points[j + 1])], k, 0, "plus")
        assert np.array_equal(comp.coeffs[j], ref)


@pytest.mark.parametrize("k", [1, 2])
def test_composites_reproduce_global_polynomials(k, rng):
    mesh = build_shishkin_1d(MeshParams(eps=1e-6, beta=1.0, sigma=2.0, N=16))
    coef = rng.standard_normal(k + 1)

    def z(x):
        return np.polynomial.polynomial.polyval(x, coef)

    for comp in (composite_u_1d(z, mesh, k), composite_q_1d(z, mesh, k)):
        assert measure_interp_error(z, comp, "linf") < 1e-13


def test_measure_interp_error_zero_for_member():
    mesh = uniform_mesh(8)
    comp = composite_u_1d(lambda x: 1.0 - 2.0 * x, mesh, 1)
    assert measure_interp_error(lambda x: 1.0 - 2.0 * x, comp, "l2") < 1e-13
    assert measure_interp_error(lambda x: 1.0 - 2.0 * x, comp, "linf") < 1e-13


def test_flux_interpolant_eps_scaling():
    # L2 interpolation error of the flux scales like eps^{3/4} at fixed N
    k, N = 1, 64
    errs = {}
    for eps in (1e-8, 1e-12):
        mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
        prob = layer1d(eps)
        comp = composite_q_1d(prob.q_exact, mesh, k)
        errs[eps] = measure_interp_error(prob.q_exact, comp, "l2")
    ratio = errs[1e-8] / errs[1e-12]
    assert 1e3 / 3.0 < ratio < 3e3  # (1e-8/1e-12)^{3/4} = 1e3


# -- 2D ----------------------------------------------------------------------


@pytest.mark.parametrize("axis,side", [(0, "minus"), (0, "plus"), (1, "minus"), (1, "plus")])
def test_2d_gauss_radau_defining_conditions(axis, side):
    k = 2
    cell = ((0.2, 0.45), ((0.6, 0.9)))
    c = radau(smooth2, cell, k, axis, side)
    rule = gauss_rule(20)
    (ax, bx), (ay, by) = cell
    xs = 0.5 * (ax + bx) + 0.5 * (bx - ax) * rule.nodes
    ys = 0.5 * (ay + by) + 0.5 * (by - ay) * rule.nodes
    phi = legendre_basis(k, rule.nodes)
    zz = smooth2(xs[:, None], ys[None, :])
    proj = np.einsum("mn,mx,ny->xy", c, phi, phi)
    resid = zz - proj
    # volume moments against modes one degree lower in the graded axis
    mom = np.einsum("x,y,xy,ax,by->ab", rule.weights, rule.weights, resid, phi, phi)
    if axis == 0:
        assert np.abs(mom[:k, :]).max() < 1e-12
    else:
        assert np.abs(mom[:, :k]).max() < 1e-12
    # edge condition: trace on the matched edge L2-matches along the edge
    if axis == 0:
        x_edge = bx if side == "minus" else ax
        edge_resid = smooth2(np.full_like(ys, x_edge), ys) - np.einsum(
            "mn,m,ny->y", c, legendre_basis(k, np.array([1.0 if side == "minus" else -1.0]))[:, 0], phi)
        edge_mom = phi @ (rule.weights * edge_resid)
    else:
        y_edge = by if side == "minus" else ay
        edge_resid = smooth2(xs, np.full_like(xs, y_edge)) - np.einsum(
            "mn,mx,n->x", c, phi, legendre_basis(k, np.array([1.0 if side == "minus" else -1.0]))[:, 0])
        edge_mom = phi @ (rule.weights * edge_resid)
    assert np.abs(edge_mom).max() < 1e-12


def test_2d_gauss_radau_tensor_factorization(rng):
    # separable z(x,y) = a(x) b(y): graded projection factorizes into
    # 1D Gauss-Radau in x times 1D L2 in y
    k = 2
    cell = ((0.1, 0.5), (0.3, 0.8))

    def a(x):
        return np.sin(2.0 * x) + 0.5 * x

    def b(y):
        return np.cos(y) - y**2

    def ab(x, y):
        return a(x) * b(y)

    c2 = radau(ab, cell, k, 0, "minus")
    ca = radau(a, [cell[0]], k, 0, "minus")
    cb = _project(b, [cell[1]], k)
    assert np.abs(c2 - np.outer(ca, cb)).max() < 1e-12


def test_composite_px_2d_factorizes_on_the_whole_mesh():
    # separable z(x,y) = a(x) b(y) on a mesh graded differently in x and y:
    # the x-flux interpolant is composite_q_1d(a) in x (L2 on the first
    # cell, left-end Gauss-Radau elsewhere) times the L2 moments of b in y
    k = 2
    mx = build_shishkin_1d(MeshParams(eps=1e-6, beta=1.0, sigma=3.0, N=16))
    my = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=8))

    def a(x):
        return np.sin(2.0 * x) + 0.5 * x

    def b(y):
        return np.cos(y) - y**2

    c2 = composite_px_2d(lambda x, y: a(x) * b(y), build_tensor_2d(mx, my), k).coeffs
    ca = composite_q_1d(a, mx, k).coeffs
    cb = _project(b, [(my.points[:-1], my.points[1:])], k)
    assert c2.shape == (16, 8, k + 1, k + 1)
    assert np.abs(c2 - ca[:, None, :, None] * cb[None, :, None, :]).max() < 1e-14


def test_composite_u_2d_region_table():
    m = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=8))
    mesh2 = build_tensor_2d(m, m)
    k = 1
    comp = composite_u_2d(smooth2, mesh2, k)
    # fine bands without the final cell are 0, 1 and 6; the coarse middle is 2..5
    fine, mid = {0, 1, 6}, {2, 3, 4, 5}
    for i in range(8):
        for j in range(8):
            cell = (m.points[i], m.points[i + 1]), (m.points[j], m.points[j + 1])
            if i in fine and j in mid:  # x-layer band against the coarse middle in y
                ref = radau(smooth2, cell, k, 0, "minus")
            elif i in mid and j in fine:  # y-layer band: graded in y
                ref = radau(smooth2, cell, k, 1, "minus")
            else:  # interior block, corners, final row and column: plain tensor L2
                ref = _project(smooth2, cell, k)
            assert np.array_equal(comp.coeffs[i, j], ref), (i, j)


def test_composite_flux_2d_region_tables():
    m = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=8))
    mesh2 = build_tensor_2d(m, m)
    k = 1
    cp = composite_px_2d(smooth2, mesh2, k)
    cq = composite_qy_2d(smooth2, mesh2, k)
    for i in range(8):
        for j in range(8):
            cell = (m.points[i], m.points[i + 1]), (m.points[j], m.points[j + 1])
            # x-flux: L2 on the first column, left-edge Gauss-Radau in x elsewhere
            ref = radau(smooth2, cell, k, 0, "plus") if i > 0 else _project(smooth2, cell, k)
            assert np.array_equal(cp.coeffs[i, j], ref), (i, j)
            # y-flux: L2 on the first row, bottom-edge Gauss-Radau in y elsewhere
            ref = radau(smooth2, cell, k, 1, "plus") if j > 0 else _project(smooth2, cell, k)
            assert np.array_equal(cq.coeffs[i, j], ref), (i, j)


@pytest.mark.parametrize("k", [1, 2])
def test_2d_composites_reproduce_tensor_polynomials(k, rng):
    mesh2 = uniform_mesh_2d(4)
    ca = rng.standard_normal(k + 1)
    cb = rng.standard_normal(k + 1)

    def z(x, y):
        return (np.polynomial.polynomial.polyval(x, ca)
                * np.polynomial.polynomial.polyval(y, cb))

    for comp in (composite_u_2d(z, mesh2, k), composite_px_2d(z, mesh2, k),
                 composite_qy_2d(z, mesh2, k)):
        assert measure_interp_error_2d(z, comp, "linf") < 1e-12


def test_measure_interp_error_2d_linf_samples_only_its_own_grid():
    # The max norm samples the nodes plus both cell ends, which contain the
    # nodes, and nothing else: its tracemalloc peak (5.16 MiB) stays below
    # that of also sampling the node grid first (6.69 MiB).
    eps, N, k = 1e-8, 64, 2
    spec = layer2d(eps)
    m = build_shishkin_1d(MeshParams(eps=eps, beta=spec.beta, sigma=k + 1.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    comp = composite_u_2d(spec.u_exact, mesh2, k)
    measure_interp_error_2d(spec.u_exact, comp, "linf")  # warm the reference-cell caches
    tracemalloc.start()
    try:
        measure_interp_error_2d(spec.u_exact, comp, "linf")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.69 * 2**20


def test_measure_interp_error_rejects_a_bad_norm_before_sampling():
    def field(*args):
        raise AssertionError("the field was sampled")

    mesh, mesh2 = uniform_mesh(4), uniform_mesh_2d(4)
    u1 = composite_u_1d(lambda x: x, mesh, 1)
    u2 = composite_u_2d(lambda x, y: x * y, mesh2, 1)
    for measure, interp in ((measure_interp_error, u1), (measure_interp_error_2d, u2)):
        with pytest.raises(ValueError, match="norm must be 'l2' or 'linf', got 'l1'"):
            measure(field, interp, "l1")


def test_measure_interp_error_linf_keeps_nan_at_a_cell_end():
    # NaN only at x = 1 (or x = 0), a cell end and no quadrature node: the
    # max norm must report it, not the finite node maximum.
    mesh = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=8))
    comp = composite_u_1d(lambda x: x, mesh, 1)
    for end in (0.0, 1.0):
        err = measure_interp_error(lambda x, end=end: np.where(x == end, np.nan, x), comp, "linf")
        assert np.isnan(err), end
    assert measure_interp_error(lambda x: x, comp, "linf") < 1e-15


# -- the shared 1D node samples ----------------------------------------------


def layer_case(k, N=1024, eps=1e-8):
    spec = layer1d(eps)
    return spec, build_shishkin_1d(MeshParams(eps=eps, beta=spec.beta, sigma=k + 1.0, N=N))


class Counted:
    """A 1D field that counts the node values it is asked for: the points of
    calls whose last axis holds quadrature nodes, not the one or two cell
    ends of a Gauss-Radau fix or of the max norm."""

    def __init__(self, field):
        self.field, self.nodes = field, 0

    def __call__(self, x):
        if np.shape(x)[-1] > 2:
            self.nodes += np.size(x)
        return self.field(x)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_shared_node_samples_are_bitwise_those_of_cold_calls(k):
    """The composites and both measures give the same bits whether every
    call samples afresh or all share one sampling, and the composites are
    the whole-mesh kernel's coefficients, which samples the field itself."""
    spec, mesh = layer_case(k)
    cells = mesh.points[:-1], mesh.points[1:]
    j = np.arange(mesh.params.N)
    for build, exact, side, where in ((composite_u_1d, spec.u_exact, "minus", _fine_band(j, j.size)),
                                      (composite_q_1d, spec.q_exact, "plus", j > 0)):
        field = Counted(exact)
        cold = []
        for norm in ("l2", "linf"):
            _node_samples.cache_clear()
            comp = build(field, mesh, k)
            _node_samples.cache_clear()
            cold.append(measure_interp_error(field, comp, norm))
        _node_samples.cache_clear()
        field.nodes = 0
        shared = build(field, mesh, k)
        warm = [measure_interp_error(field, shared, norm) for norm in ("l2", "linf")]
        assert field.nodes == mesh.params.N * polyspace.layer_rule(k).nodes.size  # the nodes, sampled once
        assert np.array_equal(shared.coeffs, comp.coeffs)
        assert np.array_equal(shared.coeffs, radau(field, [cells], k, 0, side, where))
        assert warm == cold


def test_node_samples_are_keyed_on_field_mesh_and_degree():
    spec, mesh = layer_case(2, N=64)
    _, other_mesh = layer_case(2, N=64)
    u, same_u = Counted(spec.u_exact), Counted(spec.u_exact)
    nodes = {k: 64 * polyspace.layer_rule(k).nodes.size for k in (2, 3)}  # one sampling of the nodes
    _node_samples.cache_clear()
    composite_u_1d(u, mesh, 2)
    samples = _node_samples(u, mesh, 2)
    assert u.nodes == nodes[2]  # the composite sampled, the direct call did not

    for args in ((same_u, mesh, 2), (u, other_mesh, 2), (u, mesh, 3)):
        before = args[0].nodes
        assert _node_samples(*args) is not samples
        assert args[0].nodes == before + nodes[args[2]]
    assert _node_samples.cache_info().currsize == 1
    # q measured right after u on the same mesh never gets u's samples
    q = Counted(spec.q_exact)
    qc = composite_q_1d(q, mesh, 2)
    composite_u_1d(u, mesh, 2)
    before = q.nodes
    err = measure_interp_error(q, qc, "l2")
    assert q.nodes == before + nodes[2]
    _node_samples.cache_clear()
    assert err == measure_interp_error(q, qc, "l2")
    # resampled, the same bits
    assert np.array_equal(_node_samples(u, mesh, 2), samples)


def test_node_samples_are_read_only_and_one_package_cache_entry():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracer import clear_package_caches

    spec, mesh = layer_case(1, N=64)
    samples = _node_samples(spec.u_exact, mesh, 1)
    assert samples.shape == (64, 6) and not samples.flags.writeable
    with pytest.raises(ValueError):
        samples[0, 0] = 0.0
    assert _node_samples.cache_info().maxsize == 1
    assert getattr(projection, _node_samples.__name__) is _node_samples
    clear_package_caches()
    assert _node_samples.cache_info()[:4] == (0, 0, 1, 0)  # hits, misses, maxsize, currsize


def test_an_unhashable_field_is_sampled_without_the_cache():
    spec, mesh = layer_case(2, N=64)

    class Field:
        __hash__ = None

        def __call__(self, x):
            return spec.u_exact(x)

    _node_samples.cache_clear()
    comp = composite_u_1d(Field(), mesh, 2)
    errs = [measure_interp_error(Field(), comp, norm) for norm in ("l2", "linf")]
    assert _node_samples.cache_info()[:2] == (0, 0)
    assert np.array_equal(comp.coeffs, composite_u_1d(spec.u_exact, mesh, 2).coeffs)
    assert errs == [measure_interp_error(spec.u_exact, comp, norm) for norm in ("l2", "linf")]


def test_an_unhashable_field_leaves_the_cached_samples_in_place():
    # u is sampled once on the node grid across its composite and both of its
    # measures, even with an unhashable field's composite in between.
    spec, mesh = layer_case(2, N=64)

    class Field:
        __hash__ = None

        def __call__(self, x):
            return spec.q_exact(x)

    _node_samples.cache_clear()
    u = Counted(spec.u_exact)
    comp = composite_u_1d(u, mesh, 2)
    composite_u_1d(Field(), mesh, 2)
    assert _node_samples.cache_info().currsize == 1
    for norm in ("l2", "linf"):
        measure_interp_error(u, comp, norm)
    assert u.nodes == 64 * polyspace.layer_rule(2).nodes.size


def test_shared_node_samples_keep_one_chunked_array():
    # At k=3, N=16384 one sample array is 1 MiB.  After both composites and
    # their four measures only the last field's samples stay beyond the
    # coefficients (a second cache entry would keep 2 MiB); the old entry is
    # dropped before the next field is sampled, so the peak holds one sample
    # array plus chunk-sized temporaries (a whole-mesh sampling would add
    # several MiB).
    k = 3
    spec, mesh = layer_case(k, N=16384)
    samples = 16384 * (k + 5) * 8

    def run():
        out = []
        for build, field in ((composite_u_1d, spec.u_exact), (composite_q_1d, spec.q_exact)):
            comp = build(field, mesh, k)
            for norm in ("l2", "linf"):
                measure_interp_error(field, comp, norm)
            out.append(comp)
        return out

    run()  # warm the reference-cell caches
    _node_samples.cache_clear()
    tracemalloc.start()
    try:
        out = run()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    coeffs = sum(comp.coeffs.nbytes for comp in out)
    assert retained <= coeffs + samples + 2**16, (retained - coeffs) / 2**20
    assert peak <= coeffs + samples + 2**20, (peak - coeffs) / 2**20


# -- defining conditions of every composite cell (property tests) ------------

EPS_POOL = (1e-8, 1e-6, 1e-7, 1e-9, 1e-10, 1e-11, 1e-12)  # the benchmark's eps pool
PROPERTY = settings(derandomize=True, deadline=None, database=None)
weights = st.floats(-1.0, 1.0, allow_nan=False)


def check_cells_1d(z, comp, region, tol=1e-12):
    """Every cell of comp meets the defining conditions of its region: 'l2',
    'minus' (right endpoint matched) or 'plus' (left endpoint matched).
    Moments are taken with an independent 30-point rule."""
    mesh, k = comp.mesh, comp.degree
    fine = gauss_rule(30)
    phi = legendre_basis(k, fine.nodes)
    resid = z(mesh.quad_points(fine.nodes)) - comp.values_on_ref(fine.nodes)
    moments = (resid * fine.weights) @ phi.T
    ends = {"minus": (mesh.points[1:], 1.0), "plus": (mesh.points[:-1], -1.0)}
    for j in range(mesh.params.N):
        side = region(j)
        upto = k + 1 if side == "l2" else k
        assert np.abs(moments[j, :upto]).max() < tol, (j, side)
        if side != "l2":
            x, t = ends[side]
            dev = comp.values_on_ref(np.array([t]))[j, 0] - z(x[j:j + 1])[0]
            assert abs(dev) < tol, (j, side)


@PROPERTY
@given(k=st.integers(1, 4), eps=st.sampled_from(EPS_POOL), N=st.sampled_from([8, 16]),
       w=st.tuples(weights, weights, weights))
def test_composite_1d_cells_meet_defining_conditions(k, eps, N, w):
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))

    def z(x):
        return w[0] * np.sin(3.0 * x) + w[1] * x**2 + w[2]

    # Gauss-Radau on the fine bands except the final cell, L2 elsewhere
    check_cells_1d(z, composite_u_1d(z, mesh, k),
                   lambda j: "minus" if j < N // 4 or 3 * N // 4 <= j < N - 1 else "l2")
    check_cells_1d(z, composite_q_1d(z, mesh, k), lambda j: "l2" if j == 0 else "plus")


def check_cells_2d(z, comp, region, tol=1e-12):
    """Every cell of comp meets the defining conditions of its region: None
    for tensor L2, else (axis, side) of the directional Gauss-Radau
    projection (volume moments one degree lower in that axis, trace on the
    matched edge L2-fitted along it), with an independent 30-point rule."""
    mesh, k = comp.mesh, comp.degree
    mx, my = mesh.mesh_x, mesh.mesh_y
    fine = gauss_rule(30)
    wphi = legendre_basis(k, fine.nodes) * fine.weights
    X, Y = mx.quad_points(fine.nodes), my.quad_points(fine.nodes)
    resid = z(X[:, None, :, None], Y[None, :, None, :]) - comp.values_on_ref(fine.nodes, fine.nodes)
    vol = wphi @ resid @ wphi.T
    edges = {}
    for side, t, xs, ys in (("minus", 1.0, mx.points[1:], my.points[1:]),
                            ("plus", -1.0, mx.points[:-1], my.points[:-1])):
        ex = z(xs[:, None, None], Y[None, :, :]) - comp.values_on_ref(np.array([t]), fine.nodes)[:, :, 0]
        ey = z(X[:, None, :], ys[None, :, None]) - comp.values_on_ref(fine.nodes, np.array([t]))[..., 0]
        edges[0, side] = ex @ wphi.T
        edges[1, side] = ey @ wphi.T
    nx, ny = mesh.shape
    for i in range(nx):
        for j in range(ny):
            rule = region(i, j)
            if rule is None:
                assert np.abs(vol[i, j]).max() < tol, (i, j)
                continue
            axis, side = rule
            low = vol[i, j, :k, :] if axis == 0 else vol[i, j, :, :k]
            assert np.abs(low).max() < tol, (i, j, rule)
            assert np.abs(edges[axis, side][i, j]).max() < tol, (i, j, rule)


@PROPERTY
@given(k=st.integers(1, 2), eps=st.sampled_from(EPS_POOL), w=st.tuples(weights, weights, weights))
def test_composite_2d_cells_meet_defining_conditions(k, eps, w):
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=8))
    mesh2 = build_tensor_2d(m, m)

    def z(x, y):
        return w[0] * np.sin(2.0 * x + 0.1) * (w[1] + np.cos(y)) + w[2] * x * y

    def u_region(i, j):
        fine, mid = {0, 1, 6}, {2, 3, 4, 5}
        if i in fine and j in mid:
            return 0, "minus"
        if i in mid and j in fine:
            return 1, "minus"
        return None

    check_cells_2d(z, composite_u_2d(z, mesh2, k), u_region)
    check_cells_2d(z, composite_px_2d(z, mesh2, k), lambda i, j: None if i == 0 else (0, "plus"))
    check_cells_2d(z, composite_qy_2d(z, mesh2, k), lambda i, j: None if j == 0 else (1, "plus"))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: a point near x = 1 carries the rounding "
                   "of 1 - x, so the right layer has an error floor of about 1e-16/sqrt(eps)")
def test_l2_projection_is_mirror_symmetric_at_small_eps():
    # z(x) = z(1 - x) on a mesh symmetric about 1/2, so in exact arithmetic
    # the coefficients of cell N-1-j are those of cell j with the odd modes
    # negated.  The left layer's distances to the boundary are the points
    # themselves; the right layer's are 1 - x, rounded.
    k, N, eps = 4, 16384, 1e-12
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    s = np.sqrt(eps)
    c = _project(lambda x: np.exp(-x / s) + np.exp(-(1.0 - x) / s), [(m.points[:-1], m.points[1:])], k)
    mirrored = c[::-1] * (-1.0) ** np.arange(k + 1)
    assert np.abs(c - mirrored).max() <= 1e-13
