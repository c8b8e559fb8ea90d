import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

from ldgrd import polyspace
from ldgrd.assembly1d import LdgSolution, bilinear_B, solve_1d
from ldgrd.assembly2d import solve_2d
from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from ldgrd.norms import error_report
from ldgrd.polyspace import PiecewisePoly
from ldgrd.problems import _one, _two, layer1d, layer2d, layer2d_variable_b, poly_exact_1d
from ldgrd.projection import (composite_px_2d, composite_q_1d, composite_qy_2d, composite_u_1d,
                              composite_u_2d, measure_interp_error, measure_interp_error_2d)

from conftest import energy_sq, uniform_mesh, uniform_mesh_2d, zero_problem


def zero_1d(eps):
    return zero_problem(eps, _one, 1)


def zero_2d(eps):
    return zero_problem(eps, _two, 2)


def random_solution(mesh, k, rng):
    """An LdgSolution on mesh with standard normal coefficients."""
    dim = len(mesh.shape)
    shape = mesh.shape + (k + 1,) * dim
    return LdgSolution(**{f: PiecewisePoly(mesh, rng.standard_normal(shape))
                          for f in "uqp"[:dim + 1]})


def unit_pair(mesh, eps):
    zero = np.zeros((mesh.params.N, 2))
    one = zero + np.array([1.0, 0.0])
    return LdgSolution(q=PiecewisePoly(mesh, zero), u=PiecewisePoly(mesh, one))


def test_energy_error_hand_value():
    eps = 1e-4
    mesh = uniform_mesh(8)
    prob = zero_1d(eps)
    w = unit_pair(mesh, eps)
    val = error_report(w, prob).err_energy
    assert math.isclose(val, math.sqrt(1.0 + 2.0 * 0.01), rel_tol=1e-13)


def test_balanced_error_hand_value():
    eps = 1e-4
    mesh = uniform_mesh(8)
    prob = zero_1d(eps)
    w = unit_pair(mesh, eps)
    assert math.isclose(error_report(w, prob).err_balanced, math.sqrt(3.0), rel_tol=1e-13)


def test_discrete_energy_hand_value():
    eps = 1e-4
    mesh = uniform_mesh(8)
    w = unit_pair(mesh, eps)
    val = energy_sq(w, lambda x: np.ones_like(x), eps)
    assert math.isclose(val, 1.02, rel_tol=1e-13)
    z = LdgSolution(q=PiecewisePoly(mesh, np.zeros((8, 2))),
                    u=PiecewisePoly(mesh, np.zeros((8, 2))))
    assert energy_sq(z, lambda x: np.ones_like(x), eps) == 0.0


def test_energy_error_reads_special_interface(rng):
    # the jump term sits where the scheme puts it, at the mesh's 3N/4 = 6
    mesh = uniform_mesh(8)
    eps = mesh.params.eps
    w = LdgSolution(q=PiecewisePoly(mesh, rng.standard_normal((8, 3))),
                    u=PiecewisePoly(mesh, rng.standard_normal((8, 3))))
    prob = zero_1d(eps)
    b_val = bilinear_B(w, w, prob)
    assert math.isclose(error_report(w, prob).err_energy ** 2, b_val, rel_tol=1e-12)


def test_exact_solution_has_zero_error():
    eps = 1e-4
    N, k = 8, 2
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=3.0, N=N))
    prob = poly_exact_1d(eps)
    w = solve_1d(mesh, prob, k)
    rep = error_report(w, prob)
    assert rep.err_energy < 1e-10
    assert rep.err_balanced < 1e-9
    assert rep.err_l2_u < 1e-11
    assert rep.err_linf_u < 1e-10
    assert rep.err_l2_q < 1e-11
    assert rep.err_l2_p is None


@pytest.mark.parametrize("s", [2.0, 1e-3])
def test_norm_homogeneity(s, rng):
    eps = 1e-6
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=16))
    prob = zero_1d(eps)
    qc = rng.standard_normal((16, 3))
    uc = rng.standard_normal((16, 3))
    w1 = LdgSolution(q=PiecewisePoly(mesh, qc), u=PiecewisePoly(mesh, uc))
    ws = LdgSolution(q=PiecewisePoly(mesh, s * qc), u=PiecewisePoly(mesh, s * uc))
    for fn in (lambda w: error_report(w, prob).err_energy,
               lambda w: error_report(w, prob).err_balanced):
        assert math.isclose(fn(ws), s * fn(w1), rel_tol=1e-12)
    rep1 = error_report(w1, prob)
    reps = error_report(ws, prob)
    assert math.isclose(reps.err_linf_u, s * rep1.err_linf_u, rel_tol=1e-12)


@pytest.mark.parametrize("dim, N, problem, solve", [(1, 64, layer1d, solve_1d),
                                                     (2, 16, layer2d, solve_2d)], ids=["1d", "2d"])
def test_quadrature_refinement_stability(dim, N, problem, solve, monkeypatch):
    eps, k = 1e-8, 1
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
    prob = problem(eps)
    w = solve(m if dim == 1 else build_tensor_2d(m, m), prob, k)
    base = error_report(w, prob)  # the default rule, k+5 nodes per axis
    monkeypatch.setattr(polyspace, "LAYER_EXTRA_NODES", k + 9)  # 2(k+5) nodes per axis
    fine = error_report(w, prob)
    for name in ("err_energy", "err_balanced", "err_l2_u", "err_l2_q", "err_l2_p")[:dim + 3]:
        b, f = getattr(base, name), getattr(fine, name)
        assert abs(b - f) / f < 1e-3


def test_error_monotone_under_refinement():
    eps = 1e-8
    prob = layer1d(eps)
    prev = None
    for N in (16, 32, 64, 128):
        mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
        w = solve_1d(mesh, prob, 1)
        val = error_report(w, prob).err_balanced
        if prev is not None:
            assert val <= 1.05 * prev
        prev = val


def test_balanced_at_least_energy_on_solver_errors():
    # holds for the shipped layer problems whenever eps <= 1 because the
    # flux term dominates and its weight grows from eps^{-1} to eps^{-3/2}
    eps = 1e-8
    prob = layer1d(eps)
    for N in (16, 64):
        mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
        w = solve_1d(mesh, prob, 1)
        rep = error_report(w, prob)
        assert rep.err_balanced >= rep.err_energy


# -- 2D hand values -----------------------------------------------------------


def unit_triple(mesh2):
    nx, ny = mesh2.shape
    zero = np.zeros((nx, ny, 2, 2))
    one = zero.copy()
    one[..., 0, 0] = 1.0
    return LdgSolution(u=PiecewisePoly(mesh2, one),
                       p=PiecewisePoly(mesh2, zero),
                       q=PiecewisePoly(mesh2, zero))


def test_2d_hand_values():
    eps = 1e-4
    mesh2 = uniform_mesh_2d(4)
    prob = zero_2d(eps)
    t = unit_triple(mesh2)
    # b=2 volume term plus four unit boundary edge families
    assert math.isclose(error_report(t, prob).err_balanced, math.sqrt(6.0), rel_tol=1e-13)
    assert math.isclose(error_report(t, prob).err_energy, math.sqrt(2.0 + 4.0 * 0.01),
                        rel_tol=1e-13)
    rep = error_report(t, prob)
    assert rep.err_l2_p is not None and rep.err_l2_p == 0.0
    assert math.isclose(rep.err_l2_u, 1.0, rel_tol=1e-13)
    assert math.isclose(rep.err_linf_u, 1.0, rel_tol=1e-13)


def test_2d_zero_error():
    mesh2 = uniform_mesh_2d(4)
    prob = zero_2d(1e-4)
    nx, ny = mesh2.shape
    zero = np.zeros((nx, ny, 2, 2))
    t = LdgSolution(u=PiecewisePoly(mesh2, zero), p=PiecewisePoly(mesh2, zero),
                    q=PiecewisePoly(mesh2, zero))
    assert error_report(t, prob).err_balanced == 0.0
    assert error_report(t, prob).err_energy == 0.0


def test_2d_energy_norms_read_special_index(rng):
    # the jump lines sit where the scheme puts them, at the mesh's 3N/4 = 6
    mesh2 = uniform_mesh_2d(8)
    eps = mesh2.mesh_x.params.eps
    t = LdgSolution(**{f: PiecewisePoly(mesh2, rng.standard_normal((8, 8, 3, 3)))
                       for f in "upq"})
    prob = zero_2d(eps)
    b_val = bilinear_B(t, t, prob)
    assert math.isclose(error_report(t, prob).err_energy ** 2, b_val, rel_tol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_balanced_norm_does_not_depend_on_the_flux(dim, rng):
    # The balanced norm weighs the special-line jumps alike for both fluxes
    # (1 in 1D, eps^{-1/2} in 2D); only the energy norm takes the flux's
    # lambda_jump, which is 0 for the classic flux.  A pair and a triple take
    # the same report.
    N, k, eps = 8, 2, 1e-6
    mesh, prob = (uniform_mesh(N), zero_1d(eps)) if dim == 1 else (uniform_mesh_2d(N), zero_2d(eps))
    w = random_solution(mesh, k, rng)
    paper, classic = error_report(w, prob, True), error_report(w, prob, False)
    assert paper.err_balanced == classic.err_balanced
    assert paper.err_energy > classic.err_energy


@pytest.mark.parametrize("case", ["solve_1d", "solve_2d", "report_1d", "report_2d"])
def test_dimension_mismatch_is_a_clear_error(case, rng):
    # a problem of the other dimension fails up front, naming both, instead
    # of deep inside a callable's arguments or an exact flux that is not there
    eps, N, k = 1e-4, 8, 1
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    run = {"solve_1d": lambda: solve_1d(m, layer2d(eps), k),
           "solve_2d": lambda: solve_2d(mesh2, layer1d(eps), k),
           "report_1d": lambda: error_report(random_solution(m, k, rng), layer2d(eps)),
           "report_2d": lambda: error_report(random_solution(mesh2, k, rng), layer1d(eps))}[case]
    dim = int(case[-2])  # the mesh's; the problem has the other
    with pytest.raises(ValueError, match=f"a {3 - dim}D problem does not fit a {dim}D mesh"):
        run()


# -- what the error reports evaluate, and their memory ---------------------------


def recorded(problem, names):
    """problem with the callables `names` wrapped to record the broadcast
    shape of every call."""
    calls = []

    def wrap(name, fn):
        def call(*args):
            calls.append((name, np.broadcast(*args).shape))
            return fn(*args)
        return call

    return replace(problem, **{name: wrap(name, getattr(problem, name)) for name in names}), calls


@pytest.mark.parametrize("problem", [layer1d, layer2d, layer2d_variable_b])
def test_error_reports_sample_exact_fields_on_the_volume_grid_only(problem, rng):
    # The exact fields are continuous and u vanishes on the boundary, so the
    # jump terms need no exact value on a mesh line or at a point; u is
    # sampled once, on the nodes plus the cell ends.
    eps, N, k = 1e-4, 8, 2
    spec = problem(eps)
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    dim = len(spec.fluxes)
    names = ("u_exact", "b", "q_exact", "p_exact")[:dim + 2]
    w = random_solution(m if dim == 1 else build_tensor_2d(m, m), k, rng)
    spec, calls = recorded(spec, names)
    error_report(w, spec)
    n = polyspace.layer_rule(k).nodes.size
    assert [name for name, _ in calls].count("u_exact") == 1
    assert {name for name, _ in calls} == set(names)
    for name, shape in calls:
        # (cells per axis..., points per cell per axis...), at least the nodes
        assert len(shape) == 2 * dim and shape[:dim] == (N,) * dim, (name, shape)
        assert min(shape[dim:]) >= n, (name, shape)


def test_error_report_2d_peak_memory(rng):
    # u is sampled once on the nodes-plus-ends grid and each error field is
    # formed in place, reduced and dropped before the next, so the peak stays
    # under 5 arrays the size of the node grid (3.7 at k=1 when every field
    # spanned the whole mesh; 0.68 now that they are streamed over chunks)
    eps, N, k = 1e-8, 64, 1
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    mesh2, problem = build_tensor_2d(m, m), layer2d(eps)
    t = LdgSolution(**{f: PiecewisePoly(mesh2, rng.standard_normal((N, N, k + 1, k + 1)))
                       for f in "upq"})
    error_report(t, problem)
    tracemalloc.start()
    try:
        error_report(t, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    node_grid = (N * polyspace.layer_rule(k).nodes.size) ** 2 * 8
    assert peak <= 5 * node_grid, peak / node_grid


# -- streaming over chunks of cells ------------------------------------------------


@pytest.mark.parametrize("problem", [layer1d, layer2d, layer2d_variable_b])
def test_streamed_error_reports_sample_each_cell_once(problem, rng, monkeypatch):
    # With chunks forced small, u is sampled once per chunk, the chunks' leading
    # cell counts add up to N (no cell is sampled twice), and every call still
    # covers the quadrature nodes per axis.
    eps, N, k = 1e-4, 8, 2
    monkeypatch.setattr(polyspace, "CHUNK_VALUES", 1)  # two cells, or x-rows, per chunk
    spec = problem(eps)
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    dim = len(spec.fluxes)
    names = ("u_exact", "b", "q_exact", "p_exact")[:dim + 2]
    w = random_solution(m if dim == 1 else build_tensor_2d(m, m), k, rng)
    spec, calls = recorded(spec, names)
    error_report(w, spec)
    n = polyspace.layer_rule(k).nodes.size
    chunks = [name for name, _ in calls].count("u_exact")
    assert chunks >= 3
    for name in names:
        shapes = [shape for called, shape in calls if called == name]
        assert len(shapes) == chunks, name
        assert sum(shape[0] for shape in shapes) == N, (name, shapes)
        for shape in shapes:
            assert len(shape) == 2 * dim and shape[1:dim] == (N,) * (dim - 1), (name, shape)
            assert min(shape[dim:]) >= n, (name, shape)


def streamed_results(dim, k):
    """Every streamed result on layer1d at N=1024 (1D) or layer2d on a 16x24
    mesh (2D), eps 1e-8: the composite interpolants' coefficients, both
    measures of each in both norms, and the error report of the composites
    taken as the discrete pair or triple."""
    eps = 1e-8
    spec = (layer1d if dim == 1 else layer2d)(eps)

    def mesh(N):
        return build_shishkin_1d(MeshParams(eps=eps, beta=spec.beta, sigma=k + 1.0, N=N))

    if dim == 1:
        m, measure = mesh(1024), measure_interp_error
        fields = (composite_q_1d, spec.q_exact), (composite_u_1d, spec.u_exact)
        names = "qu"
    else:
        m, measure = build_tensor_2d(mesh(16), mesh(24)), measure_interp_error_2d
        fields = ((composite_u_2d, spec.u_exact), (composite_px_2d, spec.p_exact),
                  (composite_qy_2d, spec.q_exact))
        names = "upq"
    polys = [(build(exact, m, k), exact) for build, exact in fields]
    results = [poly.coeffs for poly, _ in polys]
    results += [measure(exact, poly, norm) for poly, exact in polys for norm in ("l2", "linf")]
    w = LdgSolution(**{name: poly for name, (poly, _) in zip(names, polys)})
    return results + [astuple(error_report(w, spec))]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
def test_streamed_results_do_not_depend_on_the_chunk_size(dim, k, monkeypatch):
    # Every result is bitwise that of the default chunk size, with two cells
    # (or x-rows) per chunk and with an odd size that splits them unevenly.
    base = streamed_results(dim, k)
    for size in (1, 3001):
        monkeypatch.setattr(polyspace, "CHUNK_VALUES", size)
        for a, b in zip(base, streamed_results(dim, k), strict=True):
            assert np.array_equal(a, b), (size, a, b)


def test_1d_per_cell_sums_do_not_depend_on_the_chunking(rng):
    # The reports, both interpolation l2 errors and the bilinear form's volume
    # term share one per-cell sum, an einsum that calls no BLAS: a cell's
    # bits do not depend on the cells beside it.  A matrix-vector product's
    # do (OpenBLAS rounds its rows in blocks of four), and the reported
    # scalars would not show it: row counts here are not multiples of 4, at
    # 8 nodes and more.
    from ldgrd import norms, projection

    assert norms._cell_sums is projection._cell_sums is polyspace._cell_sums
    for nodes in (3, 8, 13):
        f, weights = rng.standard_normal((1023, nodes)), rng.random(nodes)
        whole = polyspace._cell_sums(f, weights, 1)
        for size in (1, 2, 3, 5, 7, 250):
            parts = [polyspace._cell_sums(f[i:i + size], weights, 1) for i in range(0, len(f), size)]
            assert np.array_equal(np.concatenate(parts), whole), (nodes, size)


def test_2d_per_cell_sums_do_not_depend_on_the_chunking(rng):
    # As in 1D, on blocks of 1, 3 and 5 x-rows of 4 to 12 cells: as
    # matrix-vector products, these row counts are not all multiples of 4.
    for nodes in (7, 9):
        for ny in (4, 5, 7, 12):
            f, weights = rng.standard_normal((15, ny, nodes, nodes)), rng.random(nodes)
            whole = polyspace._cell_sums(f, weights, 2)
            for size in (1, 3, 5):
                parts = [polyspace._cell_sums(f[i:i + size], weights, 2)
                         for i in range(0, len(f), size)]
                assert np.array_equal(np.concatenate(parts), whole), (nodes, ny, size)


@pytest.mark.parametrize("name, bound", [("error_report", 4), ("measure_interp_error_2d", 2),
                                         ("composite_u_2d", 2)])
def test_streamed_evaluations_have_bounded_memory(name, bound):
    # At k=1, N=256 one array on the node grid is 18 MiB and the whole-mesh
    # evaluations peaked at 64 MiB (the report and the max-norm measure) and
    # 24 MiB (the composite); streamed, each stays within `bound` MiB beyond
    # what it returns.
    eps, N, k = 1e-8, 256, 1
    spec = layer2d(eps)
    m = build_shishkin_1d(MeshParams(eps=eps, beta=spec.beta, sigma=k + 1.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    u = composite_u_2d(spec.u_exact, mesh2, k)
    run = {"error_report": lambda: error_report(LdgSolution(u=u, p=u, q=u), spec),
           "measure_interp_error_2d": lambda: measure_interp_error_2d(spec.u_exact, u, "linf"),
           "composite_u_2d": lambda: composite_u_2d(spec.u_exact, mesh2, k)}[name]
    run()  # warm the reference-cell caches
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = u.coeffs.nbytes if name == "composite_u_2d" else 0
    assert peak <= returned + bound * 2**20, (peak - returned) / 2**20
