import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import ldgrd.assembly1d as assembly1d
from ldgrd.assembly1d import (
    FluxConfig,
    LdgSolution1D,
    assemble,
    bilinear_B,
    coeffs_to_solution,
    flux_q_hat,
    flux_u_hat,
    solution_to_coeffs,
    solve_1d,
    table_matrix,
)
from ldgrd.linalg import from_coo, lu_solve, matvec, residual_inf
from ldgrd.mesh import MeshParams, build_shishkin_1d
from ldgrd.norms import discrete_energy_sq, error_report_1d
from ldgrd.polyspace import PiecewisePoly1D, gauss_rule, legendre_basis
from ldgrd.problems import layer1d, poly_exact_1d
from ldgrd.projection import l2_interpolant_1d

from conftest import uniform_mesh


def ones_b(x):
    return np.ones_like(np.asarray(x, dtype=float))


def make_pair(mesh, k, rng):
    n = mesh.ncells
    return LdgSolution1D(
        q=PiecewisePoly1D(mesh, rng.standard_normal((n, k + 1))),
        u=PiecewisePoly1D(mesh, rng.standard_normal((n, k + 1))),
    )


def test_system_dimension():
    eps = 1e-4
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=4))
    system = assemble(mesh, poly_exact_1d(eps), 1, FluxConfig.paper(eps, 4))
    assert system.matrix.shape[0] == 16  # 2 * N * (k+1)
    assert "Q_0" in system.ordering


def test_flux_u_hat_boundaries_and_interior(rng):
    mesh = uniform_mesh(8)
    cfg = FluxConfig.paper(mesh.params.eps, 8)
    w = make_pair(mesh, 1, rng)
    assert flux_u_hat(w, 0, cfg) == 0.0
    assert flux_u_hat(w, 8, cfg) == 0.0
    for j in (1, 2, 3, 4, 5, 7):
        assert flux_u_hat(w, j, cfg) == w.u.trace_left(j)


def test_flux_u_hat_jump_penalty_values():
    # piecewise constants around the special interface m=3: Q jumps by 2
    eps = 1e-4
    mesh = uniform_mesh(4)
    cfg = FluxConfig(eps=eps, lambda_boundary=0.01, lambda_jump=100.0, special_index=3)
    qc = np.zeros((4, 2))
    qc[3, 0] = 2.0  # Q = 2 on the cell right of interface 3, 0 to the left
    uc = np.zeros((4, 2))
    uc[2, 0] = 1.0  # U^- at interface 3 is 1
    w = LdgSolution1D(q=PiecewisePoly1D(mesh, qc), u=PiecewisePoly1D(mesh, uc))
    # penalty takes the downwind-minus-upwind trace difference of Q
    expected = 1.0 + 100.0 * (w.q.trace_right(3) - w.q.trace_left(3))
    assert expected == 201.0
    assert flux_u_hat(w, 3, cfg) == expected
    # continuous Q across the interface: penalty vanishes
    qc2 = np.ones((4, 2)) * np.array([1.0, 0.0])
    w2 = LdgSolution1D(q=PiecewisePoly1D(mesh, qc2), u=PiecewisePoly1D(mesh, uc))
    assert flux_u_hat(w2, 3, cfg) == 1.0


def test_flux_q_hat_values(rng):
    eps = 1e-4
    mesh = uniform_mesh(4)
    cfg = FluxConfig.paper(eps, 4)
    qc = np.zeros((4, 2))
    uc = np.zeros((4, 2))
    uc[0] = [0.5, -0.5]  # U = 0.5 - 0.5 t on first cell: U+(0) = 1
    w = LdgSolution1D(q=PiecewisePoly1D(mesh, qc), u=PiecewisePoly1D(mesh, uc))
    assert math.isclose(flux_q_hat(w, 0, cfg), 0.01, rel_tol=1e-14)  # lambda_boundary * 1
    w2 = make_pair(mesh, 2, rng)
    for j in (1, 2, 3):
        assert flux_q_hat(w2, j, cfg) == w2.q.trace_right(j)
    # zero trace of U at the right boundary: penalty vanishes
    qc3 = rng.standard_normal((4, 2))
    uc3 = np.zeros((4, 2))
    w3 = LdgSolution1D(q=PiecewisePoly1D(mesh, qc3), u=PiecewisePoly1D(mesh, uc3))
    assert flux_q_hat(w3, 4, cfg) == w3.q.trace_left(4)


def test_flux_consistency_for_continuous_fields():
    # globally continuous (U, Q) with U(0) = U(1) = 0: hats return traces
    mesh = uniform_mesh(8)
    cfg = FluxConfig.paper(mesh.params.eps, 8)
    k = 2
    u = l2_interpolant_1d(lambda x: x * (1.0 - x), mesh, k)
    q = l2_interpolant_1d(lambda x: 1.0 - 2.0 * x, mesh, k)
    w = LdgSolution1D(q=q, u=u)
    for j in range(1, 8):
        assert abs(flux_u_hat(w, j, cfg) - w.u.trace_left(j)) < 1e-12
        assert abs(flux_q_hat(w, j, cfg) - w.q.trace_right(j)) < 1e-13
    assert abs(flux_q_hat(w, 0, cfg) - w.q.trace_right(0)) < 1e-13
    assert abs(flux_q_hat(w, 8, cfg) - w.q.trace_left(8)) < 1e-13


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
@pytest.mark.parametrize("N", [8, 16])
def test_polynomial_exactness(eps, N):
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=3.0, N=N))
    prob = poly_exact_1d(eps)
    w = solve_1d(mesh, prob, 2, FluxConfig.paper(eps, N))
    xs = np.linspace(0.0, 1.0, 257)
    assert np.abs(w.u.eval(xs) - prob.u_exact(xs)).max() < 1e-10
    assert np.abs(w.q.eval(xs) - prob.q_exact(xs)).max() < 1e-10


def test_bilinear_hand_value():
    # W = chi = (Q=0, U=1), b=1, eps=1e-4: volume term 1 plus two boundary
    # penalties sqrt(eps) each
    eps = 1e-4
    mesh = uniform_mesh(8)
    cfg = FluxConfig(eps=eps, lambda_boundary=0.01, lambda_jump=100.0, special_index=6)
    coeffs = np.zeros((8, 2))
    u1 = PiecewisePoly1D(mesh, coeffs + np.array([1.0, 0.0]))
    w = LdgSolution1D(q=PiecewisePoly1D(mesh, coeffs), u=u1)
    val = bilinear_B(w, w, ones_b, cfg)
    assert math.isclose(val, 1.02, rel_tol=1e-13)


def test_bilinear_zero():
    mesh = uniform_mesh(4)
    cfg = FluxConfig.paper(mesh.params.eps, 4)
    z = LdgSolution1D(q=PiecewisePoly1D(mesh, np.zeros((4, 2))),
                      u=PiecewisePoly1D(mesh, np.zeros((4, 2))))
    assert bilinear_B(z, z, ones_b, cfg) == 0.0


@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_energy_identity_on_random_pairs(eps, N, k, rng):
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    cfg = FluxConfig.paper(eps, N)
    for _ in range(4):
        chi = make_pair(mesh, k, rng)
        b_val = bilinear_B(chi, chi, ones_b, cfg)
        e_val = discrete_energy_sq(chi, ones_b, cfg)
        assert abs(b_val - e_val) <= 1e-10 * abs(e_val)


FLUXES = {
    "paper": FluxConfig.paper,
    "classic": FluxConfig.classic,
    "paper_m3": lambda eps, N: dataclasses.replace(FluxConfig.paper(eps, N), special_index=3),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("flux", sorted(FLUXES))
def test_bilinear_matches_assembled_matrix(flux, k, rng):
    # chi^T (A w) must equal B(w; chi) for the same quadrature
    eps = 1e-4
    N = 8
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
    prob = layer1d(eps)
    cfg = FLUXES[flux](eps, N)
    system = assemble(mesh, prob, k, cfg)
    w = make_pair(mesh, k, rng)
    chi = make_pair(mesh, k, rng)
    lhs = solution_to_coeffs(chi) @ matvec(system.matrix, solution_to_coeffs(w))
    rhs = bilinear_B(w, chi, prob.b, cfg)
    assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1.0)


def test_assembly_deterministic():
    eps = 1e-8
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=16))
    prob = layer1d(eps)
    cfg = FluxConfig.paper(eps, 16)
    s1 = assemble(mesh, prob, 1, cfg)
    s2 = assemble(mesh, prob, 1, cfg)
    assert np.array_equal(s1.matrix.indptr, s2.matrix.indptr)
    assert np.array_equal(s1.matrix.indices, s2.matrix.indices)
    assert np.array_equal(s1.matrix.data, s2.matrix.data)
    assert np.array_equal(s1.rhs, s2.rhs)


def coo_matrix_of(N, k, table):
    """from_coo of the table's triplets, built coupling by coupling: the
    assembly before the one-pass triplet builder, kept as the oracle."""
    B = k + 1
    parts = []
    for t in table:
        r0 = (2 * t.test_cell + t.test_field) * B
        c0 = (2 * t.trial_cell + t.trial_field) * B
        vals = np.broadcast_to(t.blocks, r0.shape + (B, B))
        rows = np.broadcast_to(r0[:, None, None] + np.arange(B)[:, None], vals.shape)
        cols = np.broadcast_to(c0[:, None, None] + np.arange(B), vals.shape)
        parts.append((rows.ravel(), cols.ravel(), vals.ravel()))
    return from_coo(2 * N * B, *(np.concatenate(a) for a in zip(*parts)))


def reaction_coupling(mesh, problem, k):
    """The reaction mass (b u, v) as assemble computes it."""
    rule = gauss_rule(k + 1 + assembly1d.ASSEMBLY_EXTRA_NODES)
    phi = legendre_basis(k, rule.nodes)
    X = mesh.quad_points(rule.nodes)
    bX = np.broadcast_to(np.asarray(problem.b(X), dtype=float), X.shape)
    blocks = (np.einsum("g,jg,ag,ng->jan", rule.weights, bX, phi, phi)
              * (0.5 * mesh.widths)[:, None, None])
    cells = np.arange(mesh.ncells)
    return assembly1d._Coupling(cells, assembly1d._PRIMAL, cells, assembly1d._PRIMAL, blocks)


def assert_bitwise(A, ref):
    for name in ("indptr", "indices"):
        a, r = getattr(A, name), getattr(ref, name)
        assert a.dtype == r.dtype and np.array_equal(a, r), name
    assert A.data.dtype == ref.data.dtype and A.data.shape == ref.data.shape
    assert np.array_equal(A.data.view(np.uint64), ref.data.view(np.uint64))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("flux", sorted(FLUXES))
def test_assembly_is_bitwise_from_coo(flux, k):
    """assemble and table_matrix equal from_coo of the table's triplets, in
    table order, bit for bit: pattern, index dtypes and every bit of every
    value (the reaction mass right after the volume entries in assemble).

    The triplet order is part of this, because it fixes the order in which
    scipy sums coincident entries: coo_tocsr buckets each row's triplets
    stably, then an unstable sort orders each row's columns.  Summing each
    entry's terms in table order instead is not the same.  At k = 3 (rows of
    more than 16 triplets) one entry of every matrix, whose terms cancel,
    comes out as -1.1e-16 instead of 0.0, and 13 of the benchmark's 90
    sweep1d cases then miss its 1e-12 reference gate.
    """
    for N in (8, 32, 1024):
        for eps in (1e-4, 1e-8, 1e-12):
            mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
            problem, cfg = layer1d(eps), FLUXES[flux](eps, N)
            volume, hats = assembly1d._couplings(mesh, k, cfg)
            assert_bitwise(table_matrix(mesh, k, cfg), coo_matrix_of(N, k, volume + hats))
            reaction = reaction_coupling(mesh, problem, k)
            assert_bitwise(assemble(mesh, problem, k, cfg).matrix,
                           coo_matrix_of(N, k, volume + [reaction] + hats))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_assembly_with_variable_b_is_bitwise_from_coo(k):
    """With b = 1 + x^2 the reaction blocks' summation order shows (b = 1 of
    layer1d hides it): assemble's node-by-node sum equals the einsum of
    reaction_coupling, and the matrix from_coo of the table's triplets, bit
    for bit."""
    for N in (8, 32, 1024):
        for eps in (1e-4, 1e-8, 1e-12):
            mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
            problem = dataclasses.replace(layer1d(eps), b=lambda x: 1.0 + x**2)
            cfg = FluxConfig.paper(eps, N)
            volume, hats = assembly1d._couplings(mesh, k, cfg)
            reaction = reaction_coupling(mesh, problem, k)
            assert_bitwise(assemble(mesh, problem, k, cfg).matrix,
                           coo_matrix_of(N, k, volume + [reaction] + hats))


def test_table_layout_is_cached_per_structure():
    """The eps-free layout is built once per (N, k, special index, jump
    penalty), is read-only, and is a package-level functools cache, which
    the benchmark's tracer empties before every execution."""
    layout = assembly1d._layout
    assert hasattr(layout, "cache_clear") and layout.__module__.startswith("ldgrd")
    assert getattr(assembly1d, layout.__name__) is layout
    layout.cache_clear()
    N, k = 32, 2
    for eps in (1e-4, 1e-8):
        mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
        assemble(mesh, layer1d(eps), k, FluxConfig.paper(eps, N))
    info = layout.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for flux in ("classic", "paper_m3"):
        table_matrix(mesh, k, FLUXES[flux](1e-8, N))
    assert layout.cache_info().currsize == 3
    assert layout.cache_info().misses == 3
    lay = layout(N, k, 3 * N // 4, True)
    arrays = [lay.codes, lay.traces, lay.hat_index, *lay.rows, *lay.cols]
    arrays += [a for t in lay.volume + lay.hats for a in (t.test_cell, t.trial_cell, t.blocks)]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_assembly_1d_peak_memory():
    # The triplets are built in one pass, without per-coupling pieces: the
    # transient peak of assemble is about 5.4x the finished CSR arrays
    # (7.7x when they were built coupling by coupling).
    eps, N, k = 1e-8, 4096, 3
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    problem, cfg = layer1d(eps), FluxConfig.paper(eps, N)
    assemble(mesh, problem, k, cfg)  # warm the caches of the reference-cell helpers
    tracemalloc.start()
    try:
        A = assemble(mesh, problem, k, cfg).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def test_residual_check_contract(rng):
    eps = 1e-4
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=4))
    system = assemble(mesh, poly_exact_1d(eps), 1, FluxConfig.paper(eps, 4))
    x = lu_solve(system.matrix, system.rhs)
    r = residual_inf(system.matrix, x, system.rhs)
    assert r <= 1e-10 * max(1.0, np.abs(system.rhs).max())
    xp = x.copy()
    xp[3] += 1.0
    assert residual_inf(system.matrix, xp, system.rhs) > 0.0
    assert math.isclose(residual_inf(system.matrix, np.zeros_like(x), system.rhs),
                        np.abs(system.rhs).max(), rel_tol=1e-15)


def test_coefficient_roundtrip(rng):
    mesh = uniform_mesh(4)
    w = make_pair(mesh, 2, rng)
    x = solution_to_coeffs(w)
    w2 = coeffs_to_solution(mesh, 2, x)
    assert np.array_equal(w.q.coeffs, w2.q.coeffs)
    assert np.array_equal(w.u.coeffs, w2.u.coeffs)


def test_eps_mismatch_rejected():
    mesh = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=8))
    with pytest.raises(ValueError, match="eps"):
        assemble(mesh, layer1d(1e-6), 1, FluxConfig.paper(1e-6, 8))


def test_degree_zero_rejected():
    mesh = uniform_mesh(4)
    with pytest.raises(ValueError):
        assemble(mesh, poly_exact_1d(mesh.params.eps), 0,
                 FluxConfig.paper(mesh.params.eps, 4))


@pytest.mark.parametrize("special", [0, 8])
def test_special_interface_out_of_range_rejected(special, rng):
    # interfaces 0 and N are boundaries: the jump penalty has no cell pair
    # there, and the energy identity silently fails (or bilinear_B and the
    # norms index past the mesh)
    mesh = uniform_mesh(8)
    eps = mesh.params.eps
    problem = poly_exact_1d(eps)
    cfg = dataclasses.replace(FluxConfig.paper(eps, 8), special_index=special)
    w = make_pair(mesh, 1, rng)
    for call in (lambda: assemble(mesh, problem, 1, cfg), lambda: bilinear_B(w, w, ones_b, cfg),
                 lambda: discrete_energy_sq(w, ones_b, cfg),
                 lambda: error_report_1d(w, problem, cfg)):
        with pytest.raises(ValueError, match=f"index {special} .* N=8"):
            call()


@pytest.mark.parametrize("value", [-1e-300, -1.0, -math.inf, math.inf, math.nan])
@pytest.mark.parametrize("name", ["lambda_boundary", "lambda_jump"])
def test_negative_or_nonfinite_penalty_rejected(name, value):
    # the energy identity, and the 2D solve's closed-form flux-block inverse,
    # need both weights finite and >= 0
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        dataclasses.replace(FluxConfig.paper(1e-8, 16), **{name: value})
