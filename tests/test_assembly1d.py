import dataclasses
import hashlib
import importlib
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import linalg as spla

import ldgrd
import ldgrd.assembly1d as assembly1d
import ldgrd.linalg as linalg
import ldgrd.projection as projection
from ldgrd.assembly1d import (
    LdgSolution,
    _table_sum,
    assemble,
    bilinear_B,
    coeffs_to_solution,
    solution_to_coeffs,
    solve_1d,
)
from ldgrd.assembly2d import LdgOperator2D, solve_2d
from ldgrd.linalg import matvec
from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from ldgrd.polyspace import PiecewisePoly
from ldgrd.problems import layer1d, layer2d, poly_exact_1d

from conftest import energy_sq, uniform_mesh, zero_problem


def ones_b(x):
    return np.ones_like(np.asarray(x, dtype=float))


def make_pair(mesh, k, rng):
    n = mesh.params.N
    return LdgSolution(
        q=PiecewisePoly(mesh, rng.standard_normal((n, k + 1))),
        u=PiecewisePoly(mesh, rng.standard_normal((n, k + 1))),
    )


def test_system_dimension():
    eps = 1e-4
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=4))
    system = assemble(mesh, poly_exact_1d(eps), 1)
    assert system.matrix.shape[0] == 16  # 2 * N * (k+1)


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
@pytest.mark.parametrize("N", [8, 16])
def test_polynomial_exactness(eps, N):
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=3.0, N=N))
    prob = poly_exact_1d(eps)
    w = solve_1d(mesh, prob, 2)
    t = np.linspace(-1.0, 1.0, 17)
    X = mesh.quad_points(t)
    assert np.abs(w.u.values_on_ref(t) - prob.u_exact(X)).max() < 1e-10
    assert np.abs(w.q.values_on_ref(t) - prob.q_exact(X)).max() < 1e-10


def test_bilinear_hand_value():
    eps = 1e-4

    def form(mesh, q, u, jump=True):
        w = LdgSolution(q=PiecewisePoly(mesh, q), u=PiecewisePoly(mesh, u))
        return bilinear_B(w, w, zero_problem(eps, ones_b, 1), jump)

    # W = (Q=0, U=1), b=1: volume term 1 plus two boundary penalties
    # sqrt(eps) each
    zeros = np.zeros((8, 2))
    assert math.isclose(form(uniform_mesh(8), zeros, zeros + [1.0, 0.0]), 1.02, rel_tol=1e-13)
    # W = (Q, U=0), Q = 2 on the last cell only: [[Q]] = -2 at the special
    # interface 3, so B(W; W) = |Q|^2/eps + lambda_jump*[[Q]]^2
    # = 4*0.25/eps + 100*4, and the jump penalty's share is 400
    q, u = np.zeros((4, 2)), np.zeros((4, 2))
    q[3, 0] = 2.0
    assert form(uniform_mesh(4), q, u) == 10400.0
    assert form(uniform_mesh(4), q, u, jump=False) == 10000.0


def test_bilinear_zero():
    mesh = uniform_mesh(4)
    z = LdgSolution(q=PiecewisePoly(mesh, np.zeros((4, 2))),
                    u=PiecewisePoly(mesh, np.zeros((4, 2))))
    assert bilinear_B(z, z, zero_problem(mesh.params.eps, ones_b, 1)) == 0.0


@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_energy_identity_on_random_pairs(eps, N, k, rng):
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    for _ in range(4):
        chi = make_pair(mesh, k, rng)
        b_val = bilinear_B(chi, chi, zero_problem(eps, ones_b, 1))
        e_val = energy_sq(chi, ones_b, eps)
        assert abs(b_val - e_val) <= 1e-12 * abs(e_val)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 4), N=st.integers(1, 16).map(lambda m: 4 * m),
       eps_exp=st.floats(3.0, 12.0), flux=st.sampled_from(["paper", "classic"]),
       b=st.sampled_from([ones_b, lambda x: 1.0 + x * x]), seed=st.integers(0, 2**32 - 1))
def test_energy_identity_property(k, N, eps_exp, flux, b, seed):
    """B(w; w) is the shipped error report's squared energy norm of w, for
    any degree, mesh, eps, flux and b, to rounding."""
    eps = 10.0 ** -eps_exp
    assume((k + 1.0) * math.sqrt(eps) * math.log(N) <= 0.25)  # tau of sigma = k+1
    jump = flux == "paper"
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    w = make_pair(mesh, k, np.random.default_rng(seed))
    e_val = energy_sq(w, b, eps, jump)
    assert abs(bilinear_B(w, w, zero_problem(eps, b, 1), jump) - e_val) <= 1e-12 * e_val


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("flux", ["classic", "paper"])
def test_bilinear_matches_assembled_matrix(flux, k, rng):
    # chi^T (A w) must equal B(w; chi) for the same quadrature
    eps = 1e-4
    N = 8
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
    prob = layer1d(eps)
    jump = flux == "paper"
    system = assemble(mesh, prob, k, jump)
    w = make_pair(mesh, k, rng)
    chi = make_pair(mesh, k, rng)
    lhs = solution_to_coeffs(chi) @ matvec(system.matrix, solution_to_coeffs(w))
    rhs = bilinear_B(w, chi, prob, jump)
    assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1.0)


def test_assembly_deterministic():
    eps = 1e-8
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=16))
    prob = layer1d(eps)
    s1 = assemble(mesh, prob, 1)
    s2 = assemble(mesh, prob, 1)
    assert np.array_equal(s1.matrix.indptr, s2.matrix.indptr)
    assert np.array_equal(s1.matrix.indices, s2.matrix.indices)
    assert np.array_equal(s1.matrix.data, s2.matrix.data)
    assert np.array_equal(s1.rhs, s2.rhs)


# sha256 of (dtype, bytes) of indptr, indices and data, over the b-free table
# (_table_sum without the reaction mass) then assemble for each N in (8, 32, 1024) and eps in (1e-4, 1e-8, 1e-12);
# with b = 1 + x^2 (paper_varb) over assemble only.
BIT_DIGESTS = {
    ('classic', 1): "d5f75d2897f58bfed14b31dc259d0c001f68775c39546baede3a01a43b42540b",
    ('classic', 2): "f625edad9bfeaca8cbcf5bda7adc21ac7fd57187a260d55293d5ea12348f3909",
    ('classic', 3): "a62c9bc6fa229f273adc1d49c14011be86c90bcb2471b710e69c687d946ea99e",
    ('classic', 4): "5739f901a1dca2de1141071f6ca6ff6fe29fa50ff2bd5d164c6d77916238a1e8",
    ('paper', 1): "148c2ae8648acdc8c468112b4d18f76e116f9b5bf1c6713f878a541ded3769ec",
    ('paper', 2): "745e6f3251046ddabae7176679c1e41e9388ab531cf12c0f06518dbe23c5aa54",
    ('paper', 3): "c407330dab36c5e7b35b2919af46d9b7c17bd4d1f04fc3397d73eee081750317",
    ('paper', 4): "78bdafb91074bf7466db4672a85dec985adf21c7ed8aef1e785c71b1f3c6664c",
    ('paper_varb', 1): "d09f469472d94dd612a964a68ee716ad51fde786b35b77a95de6becd0c9f33d0",
    ('paper_varb', 2): "fec224a9c6d564b8a2f5987ecc095c7ccd32ad1e67eb09f7adbb6f984e9a6435",
    ('paper_varb', 3): "ff28a739cf86211eb1b5398f9ad989bc3d7e2600551d538bda664d1ad1682521",
    ('paper_varb', 4): "e97fb4e0b6b11d542e26875bae72370a4ec1a950d3fca722e392dd649fbc05ff",
}


def bit_digest(matrices):
    h = hashlib.sha256()
    for A in matrices:
        for a in (A.indptr, A.indices, A.data):
            h.update(a.dtype.str.encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("flux", ["classic", "paper", "paper_varb"])
def test_assembly_is_bitwise_from_coo(flux, k):
    """assemble and the b-free table are, bit for bit (pattern, index dtypes and
    every bit of every value), from_coo of the table's triplets built
    coupling by coupling in table order, with the reaction mass right after
    the volume entries and its blocks from np.einsum("g,jg,ag,ng->jan", ...):
    BIT_DIGESTS are that construction's matrices.

    The triplet order is part of this, because it fixes the order in which
    scipy sums coincident entries: coo_tocsr buckets each row's triplets
    stably, then an unstable sort orders each row's columns.  Summing each
    entry's terms in table order instead is not the same.  At k = 3 (rows of
    more than 16 triplets) one entry of every matrix, whose terms cancel,
    comes out as -1.1e-16 instead of 0.0, and 13 of the benchmark's 90
    sweep1d cases then miss its 1e-12 reference gate.

    With b = 1 + x^2 the reaction blocks' summation order shows (b = 1 of
    layer1d hides it): assemble's node-by-node sum equals the einsum.
    """
    def matrices():
        for N in (8, 32, 1024):
            for eps in (1e-4, 1e-8, 1e-12):
                mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
                problem, jump = layer1d(eps), flux != "classic"
                if flux == "paper_varb":
                    problem = dataclasses.replace(problem, b=lambda x: 1.0 + x**2)
                else:
                    yield _table_sum(mesh, k, eps, jump)[0]
                yield assemble(mesh, problem, k, jump).matrix

    assert bit_digest(matrices()) == BIT_DIGESTS[flux, k]


def _plan_arrays(plan):
    pattern = plan.pattern
    arrays = [plan.traces, plan.codes, plan.hat_index, pattern.first, pattern.indptr,
              pattern.indices, *(a for pair in pattern.later for a in pair)]
    if pattern.perm_c is not None:
        arrays += [pattern.perm_c, pattern._to_csc, pattern._csc_indices, pattern._csc_indptr]
    return arrays


def plan_builds(monkeypatch) -> list:
    """A list that gains, per Pattern that _plan constructs, the size of
    _plan's cache at that moment."""
    sizes = []

    def pattern(*args):
        sizes.append(assembly1d._plan.cache_info().currsize)
        return linalg.Pattern(*args)

    monkeypatch.setattr(assembly1d, "Pattern", pattern)
    return sizes


def test_table_layout_is_cached_per_structure(monkeypatch):
    """The eps-free plan is built once per (N, k, special index, jump
    penalty, reaction mass) and serves every eps; its arrays are read-only,
    and rebuilt they are the same bit for bit.  It is a package-level
    functools cache of one entry, which the benchmark's tracer empties
    before every execution.  Builds are counted, not cache statistics,
    which every refill resets."""
    plan = assembly1d._plan
    assert hasattr(plan, "cache_clear") and plan.__module__.startswith("ldgrd")
    assert getattr(assembly1d, plan.__name__) is plan
    assert plan.cache_info().maxsize == 1
    plan.cache_clear()
    builds = plan_builds(monkeypatch)
    N, k = 32, 2
    for eps in (1e-4, 1e-8, 1e-12):
        mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
        solve_1d(mesh, layer1d(eps), k)
    assert len(builds) == 1
    built = plan(N, k, 3 * N // 4, True, True)
    assert len(builds) == 1
    assert built.pattern.perm_c is not None  # recorded by the first solve
    _table_sum(mesh, k, 1e-8, jump=False)  # another pattern takes the entry
    assert len(builds) == 2
    assert plan.cache_info().currsize == 1
    assert len(built.traces) == len(built.codes) == built.hat_index[-1] + 1
    assert built.pattern.later  # entries that sum several blocks' values
    arrays = _plan_arrays(built)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    # a matrix holds its plan's pattern: a change of it in place is refused,
    # a copy's goes through
    A = assemble(mesh, layer1d(1e-12), k).matrix
    with pytest.raises(ValueError):
        A.eliminate_zeros()
    A.copy().eliminate_zeros()
    plan.cache_clear()
    before = len(builds)
    again = plan(N, k, 3 * N // 4, True, True)
    assert len(builds) == before + 1
    assert again is not built and again.pattern.perm_c is None
    solve_1d(mesh, layer1d(1e-12), k)
    assert len(builds) == before + 1
    for a, b in zip(_plan_arrays(again), arrays, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _refill_plan(monkeypatch) -> list:
    assembly1d._plan(8, 1, 6, True, True)
    sizes = plan_builds(monkeypatch)
    assembly1d._plan(16, 1, 12, True, True)
    return sizes


def _refill_node_samples(monkeypatch) -> list:
    mesh = build_shishkin_1d(MeshParams(eps=1e-6, N=8))
    projection._node_samples(np.sin, mesh, 1)
    sizes = []

    def field(x):
        sizes.append(projection._node_samples.cache_info().currsize)
        return np.cos(x)

    projection._node_samples(field, mesh, 1)
    return sizes


ONE_ENTRY_CACHES = {assembly1d._plan: _refill_plan, projection._node_samples: _refill_node_samples}


@pytest.mark.parametrize("cache", ONE_ENTRY_CACHES, ids=lambda c: c.__name__)
def test_a_one_entry_cache_is_empty_while_it_refills(monkeypatch, cache):
    """Each one-entry cache drops its old entry before it computes the new
    one, so a refill never holds two.  Every such cache in ldgrd, found as
    the benchmark's tracer finds the caches it empties, is one of these."""
    modules = [importlib.import_module(f"ldgrd.{m.name}")
               for m in pkgutil.iter_modules(ldgrd.__path__)]
    one_entry = {obj for module in modules for obj in vars(module).values()
                 if hasattr(obj, "cache_clear")
                 and getattr(obj, "__module__", "").startswith("ldgrd")
                 and obj.cache_info().maxsize == 1}
    assert one_entry == set(ONE_ENTRY_CACHES)
    cache.cache_clear()
    sizes = ONE_ENTRY_CACHES[cache](monkeypatch)  # the cache's size inside the refill
    assert sizes and set(sizes) == {0}
    assert cache.cache_info().currsize == 1
    cache.cache_clear()


# sweep1d's grid (paper flux, b = 1, sigma = k + 1) and, on fewer N, k = 4,
# the classic flux and b = 1 + x^2.
SWEEP_EPS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
ORDERING_CASES = ([("paper", k, (32, 64, 128, 256, 512, 1024)) for k in (1, 2, 3)]
                  + [("paper", 4, (8, 32, 256, 1024))]
                  + [(flux, k, (8, 32, 256, 1024)) for flux in ("classic", "paper_varb")
                     for k in (1, 2, 3, 4)])


@pytest.mark.parametrize("flux, k, n_list", ORDERING_CASES,
                         ids=[f"{flux}-k{k}" for flux, k, _ in ORDERING_CASES])
def test_reused_ordering_is_bitwise_the_reference_lu(flux, k, n_list):
    """Once a pattern has been factored, every later matrix of it is factored
    in the recorded column order; its solution is bit for bit that of a
    fresh SuperLU factorization with COLAMD, and that factorization's perm_c
    is the recorded one.  Each case is compared, the first of each pattern
    too, after the pattern has recorded its order."""
    for N in n_list:
        for eps in SWEEP_EPS:
            try:
                mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
            except ValueError:  # tau > 1/4 at eps=1e-4 on the finer meshes for k >= 3
                continue
            problem = layer1d(eps)
            if flux == "paper_varb":
                problem = dataclasses.replace(problem, b=lambda x: 1.0 + x**2)
            system = assemble(mesh, problem, k, flux != "classic")
            A, rhs, pattern = system.matrix, system.rhs, system.pattern
            reference = spla.splu(A.tocsc())
            if pattern.perm_c is None:
                linalg._splu(A, pattern)
            solve, record = linalg._splu(A, pattern)
            assert record().endswith("ordering=reused")
            assert f"fill={reference.L.nnz + reference.U.nnz} " in record()
            assert np.array_equal(pattern.perm_c, reference.perm_c), (N, eps)
            assert np.array_equal(solve(rhs), reference.solve(rhs)), (N, eps)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 4), N=st.integers(1, 16).map(lambda m: 4 * m),
       eps_exp=st.floats(3.0, 12.0), flux=st.sampled_from(["paper", "classic"]))
def test_table_saddle_point_structure(k, N, eps_exp, flux):
    """The b-free table is [[Aqq, Aqu], [Auq, Auu]] with Aqq and Auu exactly
    symmetric and Auq = -Aqu^T up to rounding.  A sign error in any hat breaks
    this at O(1), and the check does not use the layout's offsets."""
    eps = 10.0 ** -eps_exp
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=1.0, N=N))  # tau <= 1/4
    table = _table_sum(mesh, k, eps, flux == "paper")[0].toarray()
    q = np.tile(np.repeat([True, False], k + 1), N)
    Aqq, Aqu = table[np.ix_(q, q)], table[np.ix_(q, ~q)]
    Auq, Auu = table[np.ix_(~q, q)], table[np.ix_(~q, ~q)]
    assert np.array_equal(Aqq, Aqq.T)
    assert np.array_equal(Auu, Auu.T)
    assert np.abs(Aqu + Auq.T).max() <= 1e-14 * np.abs(Aqu).max()


def test_assembly_1d_peak_memory():
    # The triplets are built in one pass, without per-coupling pieces: the
    # transient peak of assemble is about 5.4x the finished CSR arrays
    # (7.7x when they were built coupling by coupling).
    eps, N, k = 1e-8, 4096, 3
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    problem = layer1d(eps)
    assemble(mesh, problem, k)  # warm the caches of the reference-cell helpers
    tracemalloc.start()
    try:
        A = assemble(mesh, problem, k).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_coefficient_roundtrip(dim, rng):
    # The map reads each dimension's unknown ordering: 1D cell-major, Q then
    # U in each cell (the SuperLU input); 2D field-major [P; Q; U], each field
    # in Kronecker order (x cell, x mode, y cell, y mode).  Pinned on
    # x = arange(n), with nx != ny in 2D so that the two cell axes cannot
    # be swapped unseen.
    k = 2
    B = k + 1
    if dim == 1:
        mesh = uniform_mesh(4)
        w = LdgSolution(**{f: PiecewisePoly(mesh, rng.standard_normal((4, B))) for f in "qu"})
        j, m = np.ogrid[:4, :B]
        layout = {"q": 2 * j * B + m, "u": (2 * j + 1) * B + m}
    else:
        mesh = build_tensor_2d(uniform_mesh(4), uniform_mesh(8))
        nx, ny = mesh.shape
        w = LdgSolution(**{f: PiecewisePoly(mesh, rng.standard_normal((nx, ny, B, B)))
                           for f in "upq"})
        i, j, a, b = np.ogrid[:nx, :ny, :B, :B]
        layout = {name: ((f * nx + i) * B + a) * ny * B + j * B + b
                  for f, name in enumerate("pqu")}
    x = solution_to_coeffs(w)
    w2 = coeffs_to_solution(mesh, k, x)
    positions = coeffs_to_solution(mesh, k, np.arange(x.size, dtype=float))
    assert (w2.p is None) == (positions.p is None) == (dim == 1)
    for name, at in layout.items():
        assert np.array_equal(getattr(w2, name).coeffs, getattr(w, name).coeffs)
        assert np.array_equal(getattr(positions, name).coeffs, at)
        assert np.array_equal(x[at], getattr(w, name).coeffs)


def test_solution_container_checks(rng):
    # p is given exactly on a two-axis mesh; every field shares U's mesh
    # object and degree; the fields are keyword-only.
    m = uniform_mesh(4)
    mesh2 = build_tensor_2d(m, m)

    def poly(mesh, k=1):
        return PiecewisePoly(mesh, rng.standard_normal((*mesh.shape, *(k + 1,) * len(mesh.shape))))

    u, q = poly(m), poly(m)
    assert LdgSolution(u=u, q=q).fluxes == (q,)
    u2, p2, q2 = poly(mesh2), poly(mesh2), poly(mesh2)
    assert LdgSolution(u=u2, p=p2, q=q2).fluxes == (p2, q2)
    with pytest.raises(ValueError, match="P must be given"):
        LdgSolution(u=u, q=q, p=poly(m))
    with pytest.raises(ValueError, match="P must be given"):
        LdgSolution(u=u2, q=q2)
    with pytest.raises(ValueError, match="share mesh and degree"):
        LdgSolution(u=u, q=poly(uniform_mesh(4)))  # an equal mesh, another object
    with pytest.raises(ValueError, match="share mesh and degree"):
        LdgSolution(u=u2, p=poly(build_tensor_2d(m, m)), q=q2)
    with pytest.raises(ValueError, match="share mesh and degree"):
        LdgSolution(u=u, q=poly(m, 2))
    with pytest.raises(ValueError, match="share mesh and degree"):
        LdgSolution(u=u2, p=p2, q=poly(mesh2, 2))
    with pytest.raises(TypeError):
        LdgSolution(u, q)
    with pytest.raises(TypeError):
        LdgSolution(u2, p2, q2)


def test_both_solves_return_the_one_container():
    eps, k = 1e-4, 1
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=8))
    w = solve_1d(m, layer1d(eps), k)
    t = solve_2d(build_tensor_2d(m, m), layer2d(eps), k)
    assert type(w) is type(t) is LdgSolution
    assert w.p is None and w.fluxes == (w.q,)
    assert t.fluxes == (t.p, t.q)


def test_eps_mismatch_rejected():
    mesh = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=8))
    with pytest.raises(ValueError, match="eps"):
        assemble(mesh, layer1d(1e-6), 1)


@pytest.mark.parametrize("case", ["solve_1d", "solve_2d", "LdgOperator2D"])
def test_mesh_of_the_other_dimension_rejected(case):
    # checked before the problem, naming both dimensions, instead of an
    # AttributeError from inside the solver
    eps, k = 1e-4, 1
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=8))
    run = {"solve_1d": lambda: solve_1d(build_tensor_2d(m, m), layer2d(eps), k),
           "solve_2d": lambda: solve_2d(m, layer1d(eps), k),
           "LdgOperator2D": lambda: LdgOperator2D(m, layer1d(eps), k)}[case]
    mesh_dim, solver_dim = (2, 1) if case == "solve_1d" else (1, 2)
    with pytest.raises(ValueError, match=f"a {mesh_dim}D mesh does not fit the {solver_dim}D solver"):
        run()


@pytest.mark.parametrize("k", [1.0, 2.5])
@pytest.mark.parametrize("solve", [solve_1d, solve_2d])
def test_degree_must_be_an_integer(solve, k):
    # a float degree failed inside numpy with a TypeError that named no field
    eps = 1e-4
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=8))
    mesh, problem = ((m, layer1d(eps)) if solve is solve_1d
                     else (build_tensor_2d(m, m), layer2d(eps)))
    with pytest.raises(ValueError, match=f"polynomial degree must be an integer, got {k}"):
        solve(mesh, problem, k)
    got, want = solve(mesh, problem, np.int64(2)), solve(mesh, problem, 2)
    for a, b in zip((got.u, *got.fluxes), (want.u, *want.fluxes), strict=True):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_bilinear_form_rejects_a_problem_of_the_other_dimension(rng):
    eps, k = 1e-4, 1
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=8))
    w = make_pair(m, k, rng)
    with pytest.raises(ValueError, match="a 2D problem does not fit a 1D mesh"):
        bilinear_B(w, w, layer2d(eps))


def test_degree_zero_rejected():
    mesh = uniform_mesh(4)
    with pytest.raises(ValueError):
        assemble(mesh, poly_exact_1d(mesh.params.eps), 0)

