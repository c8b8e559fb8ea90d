import dataclasses
import gc
import logging
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from ldgrd import polyspace
from ldgrd.assembly1d import (LdgSolution, _flux_weights, _table_sum, assemble, bilinear_B,
                              solution_to_coeffs)
from ldgrd.assembly2d import LdgOperator2D, solve_2d
from ldgrd.linalg import KroneckerSumSolve, SingularSystemError, _refined_solve, lu_solve, matvec
from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from ldgrd.norms import error_report
from ldgrd.polyspace import PiecewisePoly, leg_mass
from ldgrd.problems import ProblemSpec, layer1d, layer2d, layer2d_variable_b, poly_exact_2d

from conftest import energy_sq, uniform_mesh_2d, zero_problem


def two_b(x, y):
    return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, 2.0)


def make_triple(mesh2, k, rng):
    nx, ny = mesh2.shape
    shape = (nx, ny, k + 1, k + 1)
    return LdgSolution(
        u=PiecewisePoly(mesh2, rng.standard_normal(shape)),
        p=PiecewisePoly(mesh2, rng.standard_normal(shape)),
        q=PiecewisePoly(mesh2, rng.standard_normal(shape)),
    )


def test_system_dimension():
    eps = 1e-4
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=4))
    mesh2 = build_tensor_2d(m, m)
    op = LdgOperator2D(mesh2, poly_exact_2d(eps), 1)
    assert op.matrix().shape[0] == op.rhs.size == 192  # 3 * N^2 * (k+1)^2


def cubic_by_quadratic(eps):
    """u = x(1-x)(1+x) y(1-y), in the discrete space for k >= 3, with the
    variable b = 2 + x(1-y): neither u nor b is symmetric in x and y."""
    def b(x, y):
        return 2.0 + x * (1.0 - y)

    def u(x, y):
        return (x - x**3) * (y - y**2)

    def p(x, y):
        return eps * (1.0 - 3.0 * x**2) * (y - y**2)

    def q(x, y):
        return eps * (x - x**3) * (1.0 - 2.0 * y)

    def lap(x, y):
        return -6.0 * x * (y - y**2) - 2.0 * (x - x**3)

    def f(x, y):
        return -eps * lap(x, y) + b(x, y) * u(x, y)

    return ProblemSpec(name="cubic_by_quadratic", eps=eps, beta=math.sqrt(2.0), b=b, f=f,
                       u_exact=u, p_exact=p, q_exact=q, lap_exact=lap)


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
def test_polynomial_exactness_2d(eps, monkeypatch):
    N, k = 8, 2
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=3.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    prob = poly_exact_2d(eps)
    t = solve_2d(mesh2, prob, k)
    ext = np.linspace(-1.0, 1.0, 5)
    mids_x = 0.5 * (m.points[:-1] + m.points[1:])
    X = mids_x[:, None] + 0.5 * m.widths[:, None] * ext[None, :]
    X4 = X[:, None, :, None]
    Y4 = X[None, :, None, :]
    for poly, exact in ((t.u, prob.u_exact), (t.p, prob.p_exact), (t.q, prob.q_exact)):
        diff = poly.values_on_ref(ext, ext) - exact(X4, Y4)
        assert np.abs(diff).max() < 1e-9
    # cubic_by_quadratic tells x from y, so an axis mix-up on an nx != ny mesh
    # would miss it; its report is also streamed with two x-rows per chunk
    prob, k = cubic_by_quadratic(eps), 3
    for shape in ((8, 12), (12, 8), (8, 8)):
        mx, my = (build_shishkin_1d(MeshParams(eps=eps, beta=prob.beta, sigma=k + 1.0, N=n))
                  for n in shape)
        for jump in (True, False):
            t = solve_2d(build_tensor_2d(mx, my), prob, k, jump)
            rep = error_report(t, prob, jump)
            assert max(rep.err_linf_u, rep.err_l2_p, rep.err_l2_q) < 1e-13, (shape, jump, rep)
            with monkeypatch.context() as patch:
                patch.setattr(polyspace, "CHUNK_VALUES", 1)
                assert error_report(t, prob, jump) == rep, (shape, jump)


def test_bilinear_2d_hand_value():
    # T = Z = (U=1, P=0, Q=0), b = 2: volume term 2 plus four boundary edge
    # families at weight sqrt(eps) each
    eps = 1e-4
    mesh2 = uniform_mesh_2d(4)
    nx, ny = mesh2.shape
    zero = np.zeros((nx, ny, 2, 2))
    one = zero.copy()
    one[..., 0, 0] = 1.0
    t = LdgSolution(u=PiecewisePoly(mesh2, one), p=PiecewisePoly(mesh2, zero),
                    q=PiecewisePoly(mesh2, zero))
    val = bilinear_B(t, t, zero_problem(eps, two_b, 2))
    assert math.isclose(val, 2.0 + 4.0 * 0.01, rel_tol=1e-13)
    z = LdgSolution(u=PiecewisePoly(mesh2, zero), p=PiecewisePoly(mesh2, zero),
                    q=PiecewisePoly(mesh2, zero))
    assert bilinear_B(z, z, zero_problem(eps, two_b, 2)) == 0.0


@pytest.mark.parametrize("eps", [1e-4, 1e-10])
@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("k", [1, 2])
def test_energy_identity_2d(eps, N, k, rng):
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    for _ in range(3):
        z = make_triple(mesh2, k, rng)
        b_val = bilinear_B(z, z, zero_problem(eps, two_b, 2))
        e_val = energy_sq(z, two_b, eps)
        assert abs(b_val - e_val) <= 1e-12 * abs(e_val)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 3), N=st.integers(1, 4).map(lambda m: 4 * m),
       eps_exp=st.floats(3.0, 12.0), flux=st.sampled_from(["paper", "classic"]),
       b=st.sampled_from([two_b, lambda x, y: 1.0 + x * (1.0 - y)]),
       seed=st.integers(0, 2**32 - 1))
def test_energy_identity_property_2d(k, N, eps_exp, flux, b, seed):
    """As test_energy_identity_property in 1D, for the triple (U, P, Q)."""
    eps = 10.0 ** -eps_exp
    assume((k + 1.0) * math.sqrt(eps) * math.log(N) <= 0.25)  # tau of sigma = k+1
    jump = flux == "paper"
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    t = make_triple(build_tensor_2d(m, m), k, np.random.default_rng(seed))
    e_val = energy_sq(t, b, eps, jump)
    assert abs(bilinear_B(t, t, zero_problem(eps, b, 2), jump) - e_val) <= 1e-12 * e_val


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("flux", ["classic", "paper"])
def test_bilinear_matches_assembled_matrix_2d(flux, k, rng):
    eps = 1e-4
    N = 4
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    prob = layer2d(eps)
    jump = flux == "paper"
    A = LdgOperator2D(mesh2, prob, k, jump).matrix()
    t = make_triple(mesh2, k, rng)
    z = make_triple(mesh2, k, rng)
    lhs = solution_to_coeffs(z) @ matvec(A, solution_to_coeffs(t))
    rhs = bilinear_B(t, z, prob, jump)
    assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1.0)


def test_bilinear_matches_assembled_matrix_2d_variable_b(rng):
    # The reaction mass is the one block placed per cell; a b that is not
    # symmetric in x and y tells its x and y modes apart.
    eps, N, k = 1e-4, 4, 2
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    prob = dataclasses.replace(layer2d(eps), b=lambda x, y: 1.0 + x * (1.0 - y))
    A = LdgOperator2D(mesh2, prob, k).matrix()
    t = make_triple(mesh2, k, rng)
    z = make_triple(mesh2, k, rng)
    lhs = solution_to_coeffs(z) @ matvec(A, solution_to_coeffs(t))
    rhs = bilinear_B(t, z, prob)
    assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1.0)


@pytest.mark.parametrize("shape", [(8, 12), (12, 8)])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("flux", ["classic", "paper"])
@pytest.mark.parametrize("eps", [1e-4, 1e-10])
def test_bilinear_form_on_rectangular_meshes(eps, flux, k, shape, rng):
    # The other form tests run on square meshes, where an x/y mix-up in the
    # form written over the axes would pass; b = 2 + x(1-y) also tells x
    # from y.  The form is the assembled matrix and, on the diagonal, the
    # squared energy norm of the report.
    jump = flux == "paper"
    mx, my = (build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=n)) for n in shape)
    mesh2 = build_tensor_2d(mx, my)
    prob = dataclasses.replace(layer2d(eps), b=lambda x, y: 2.0 + x * (1.0 - y))
    A = LdgOperator2D(mesh2, prob, k, jump).matrix()
    t, z = make_triple(mesh2, k, rng), make_triple(mesh2, k, rng)
    lhs = solution_to_coeffs(z) @ matvec(A, solution_to_coeffs(t))
    rhs = bilinear_B(t, z, prob, jump)
    assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1.0)
    e_val = energy_sq(t, prob.b, eps, jump)
    assert abs(bilinear_B(t, t, prob, jump) - e_val) <= 1e-12 * e_val


@pytest.mark.parametrize("flux", ["paper", "classic"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("dim", [1])
def test_dense_block_pattern(dim, k, flux):
    # Every coupled pair of 1D field blocks is stored as one dense block,
    # explicit zeros included: the 1D LU's input, and so its last bits, stay
    # as they are.  The 2D matrix is Kronecker-ordered and has no such blocks.
    eps, N = 1e-6, 8
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    A = assemble(m, layer1d(eps), k, flux == "paper").matrix
    B = (k + 1) ** dim
    assert sp.bsr_array(A, blocksize=(B, B)).data.size == A.nnz


def test_assembly_2d_peak_memory():
    # Assembly's transient memory is a small multiple of the matrix it
    # returns (about 4.3x), so it does not set the size of a 2D solve.
    eps, N, k = 1e-8, 64, 1
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    mesh2, problem = build_tensor_2d(m, m), layer2d(eps)
    tracemalloc.start()
    try:
        A = LdgOperator2D(mesh2, problem, k).matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def test_mesh_y_for_another_eps_rejected():
    eps, N = 1e-6, 8
    mx = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
    my = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=N))
    with pytest.raises(ValueError, match="does not match mesh eps"):
        LdgOperator2D(build_tensor_2d(mx, my), layer2d(eps), 1)


def flux_mask(mesh2, k):
    """The P and Q unknowns of the field-major [P; Q; U] ordering."""
    n = math.prod(mesh2.shape) * (k + 1) ** 2
    return np.arange(3 * n) < 2 * n


def component_inverse(A):
    """The inverse of A, one dense inverse per connected component."""
    _, labels = connected_components(A, directed=False)
    order = np.argsort(labels, kind="stable")  # each component's unknowns contiguous
    B, ends = A[order][:, order], np.cumsum(np.bincount(labels))
    inv = sp.block_diag([np.linalg.inv(B[a:e, a:e].toarray())
                         for a, e in zip(np.r_[0, ends[:-1]], ends)], format="csr")
    back = np.argsort(order)
    return inv[back][:, back]


def schur(A, mask):
    """The Schur complement of A in the unknowns outside mask."""
    f, u = np.flatnonzero(mask), np.flatnonzero(~mask)
    Af, Au = A[f], A[u]
    return Au[:, u] - Au[:, f] @ component_inverse(Af[:, f]) @ Af[:, u]


def with_variable_b(problem, c=1.0):
    return dataclasses.replace(problem, b=lambda x, y: 1.0 + c * x * (1.0 - y))


@pytest.mark.parametrize("problem", [layer2d, poly_exact_2d])
@pytest.mark.parametrize("flux", ["paper", "classic"])
@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_condensed_solve_matches_full_lu(k, eps, flux, problem):
    # With b = 1 + x(1-y), solve_2d condenses P and Q out and solves the
    # Schur complement in U by PCG with an inexact preconditioner.  Solution
    # vectors, not errors: poly_exact_2d is reproduced to ~1e-17 at k >= 2,
    # so a relative error difference means nothing.
    N = 16 if k <= 2 else 8
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    mesh2, jump = build_tensor_2d(m, m), flux == "paper"
    varied = with_variable_b(problem(eps))
    op = LdgOperator2D(mesh2, varied, k, jump)
    full = lu_solve(op.matrix(), op.rhs)
    condensed = solution_to_coeffs(solve_2d(mesh2, varied, k, jump))
    assert np.abs(condensed - full).max() <= 1e-12 * np.abs(full).max()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 3), eps=st.sampled_from([1e-4, 1e-6, 1e-8, 1e-10, 1e-12]),
       N=st.sampled_from([4, 8, 12, 16]), flux=st.sampled_from(["paper", "classic"]),
       c=st.floats(0.0, 4.0))
def test_saddle_point_structure(k, eps, N, flux, c):
    # The structure the condensed solve relies on, with a variable reaction
    # coefficient b = 1 + c*x*(1 - y).
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    A = LdgOperator2D(mesh2, with_variable_b(layer2d(eps), c), k,
                      flux == "paper").matrix()
    mask = flux_mask(mesh2, k)
    f, u = np.flatnonzero(mask), np.flatnonzero(~mask)
    Af, Au = A[f], A[u]
    assert abs(Af[:, u] + Au[:, f].T).max() <= 1e-15 * abs(A).max()
    _, labels = connected_components(Af[:, f], directed=False)
    assert np.bincount(labels).max() <= 2 * (k + 1) ** 2
    S = schur(A, mask)
    assert abs(S - S.T).max() <= 1e-14 * abs(S).max()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 3), N=st.sampled_from([4, 8]), eps_exp=st.floats(3.0, 12.0),
       flux=st.sampled_from(["paper", "classic"]), variable_b=st.booleans())
def test_schur_complement_is_symmetric_positive_definite(k, N, eps_exp, flux, variable_b):
    # PCG needs S = Kx⊗My + Mx⊗Ky + R, the Schur complement in U that
    # _schur_apply applies, symmetric positive definite, for b = 2 and for
    # b = 1 + x(1-y).
    eps = 10.0 ** -eps_exp
    assume((k + 1.0) * math.sqrt(eps) * math.log(N) <= 0.25)  # tau of sigma = k+1
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    problem = with_variable_b(layer2d(eps)) if variable_b else layer2d(eps)
    op = LdgOperator2D(build_tensor_2d(m, m), problem, k, flux == "paper")
    S = np.column_stack([op._schur_apply(e) for e in np.eye(op.x.mass.size * op.y.mass.size)])
    assert np.abs(S - S.T).max() <= 1e-14 * np.abs(S).max()
    np.linalg.cholesky(0.5 * (S + S.T))


@pytest.mark.parametrize("problem", [layer2d, poly_exact_2d])
@pytest.mark.parametrize("flux", ["paper", "classic"])
@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tensor_solve_matches_full_lu(k, eps, flux, problem, caplog):
    # b = 2 in both problems, so the fast-diagonalization preconditioner is
    # exact and PCG takes one step in the solve and one in the refinement.
    N = 16 if k <= 2 else 8
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    jump = flux == "paper"
    op = LdgOperator2D(mesh2, problem(eps), k, jump)
    full = lu_solve(op.matrix(), op.rhs)
    with caplog.at_level(logging.DEBUG, logger="ldgrd"):
        tensor = solution_to_coeffs(solve_2d(mesh2, problem(eps), k, jump))
    (record,) = [r.getMessage() for r in caplog.records if r.name == "ldgrd"]
    assert record.split()[1] == "path=pcg" and " iterations=1,1 " in record
    assert np.abs(tensor - full).max() <= 1e-12 * np.abs(full).max()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 3), eps=st.sampled_from([1e-4, 1e-6, 1e-8, 1e-10, 1e-12]),
       N=st.sampled_from([4, 8, 12, 16]), flux=st.sampled_from(["paper", "classic"]),
       b=st.floats(0.1, 4.0), same_mesh=st.booleans())
def test_schur_complement_is_a_kronecker_sum(k, eps, N, flux, b, same_mesh):
    # For constant b the Schur complement in U is b*M⊗M + Kx⊗My + Mx⊗Ky,
    # with K the 1D Schur operator in U of the b-free table and M its mass.
    mx = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    my = mx if same_mesh else build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 2.0,
                                                           N=N))
    jump = flux == "paper"
    problem = dataclasses.replace(layer2d(eps), b=lambda x, y: np.full(np.shape(x), b))
    op = LdgOperator2D(build_tensor_2d(mx, my), problem, k, jump)
    S = schur(op.matrix(), flux_mask(build_tensor_2d(mx, my), k))
    pairs = []
    for m, axis in ((mx, op.x), (my, op.y)):
        K = schur(_table_sum(m, k, eps, jump)[0],
                  np.tile(np.repeat([True, False], k + 1), N)).toarray()
        assert np.abs(K - K.T).max() <= 1e-13 * np.abs(K).max()
        assert np.linalg.eigvalsh(K).min() >= -1e-13 * np.abs(K).max()
        # the operator's closed-form flux-block inverse and its 1D Schur operator
        assert abs(axis.ff_inv @ axis.ff - sp.eye_array(K.shape[0])).max() <= 1e-14
        assert np.abs(axis.schur[0].toarray() - K).max() <= 1e-13 * np.abs(K).max()
        pairs.append((K, sp.diags_array(((0.5 * m.widths)[:, None] * leg_mass(k)).ravel())))
    (Kx, Mx), (Ky, My) = pairs
    kron_sum = b * sp.kron(Mx, My) + sp.kron(Kx, My) + sp.kron(Mx, Ky)
    assert abs(S - kron_sum).max() <= 1e-13 * abs(S).max()
    # and the fast-diagonalization solve inverts it
    solve = KroneckerSumSolve(b, (sp.csr_array(Kx), Mx.diagonal()),
                              (sp.csr_array(Ky), My.diagonal()))
    g = np.random.default_rng(N).standard_normal(S.shape[0])
    assert np.abs(S @ solve(g) - g).max() <= 1e-10 * np.abs(g).max()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 2), eps=st.sampled_from([1e-4, 1e-8, 1e-12]), N=st.sampled_from([4, 8]),
       flux=st.sampled_from(["paper", "classic"]), c=st.floats(0.0, 20.0),
       same_mesh=st.booleans())
def test_preconditioner_is_spectrally_equivalent(k, eps, N, flux, c, same_mesh):
    # The generalized eigenvalues of (S, b̄ M⊗M + Kx⊗My + Mx⊗Ky) lie in
    # [min(1, min b/b̄), max(1, max b/b̄)], b̄ = (min b + max b)/2 over the
    # quadrature grid: the preconditioned condition number, and with it the
    # PCG iteration count, is bounded by max b / min b alone.
    mx = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    my = mx if same_mesh else build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 2.0,
                                                           N=N))
    mesh2, jump = build_tensor_2d(mx, my), flux == "paper"
    op = LdgOperator2D(mesh2, with_variable_b(layer2d(eps), c), k, jump)
    S = schur(op.matrix(), flux_mask(mesh2, k)).toarray()
    lo, hi = op.b_range
    bbar = 0.5 * (lo + hi)
    (Kx, mx_), (Ky, my_) = op.x.schur, op.y.schur
    P = (bbar * np.diag(np.kron(mx_, my_)) + np.kron(Kx.toarray(), np.diag(my_))
         + np.kron(np.diag(mx_), Ky.toarray()))
    lam = scipy.linalg.eigh(0.5 * (S + S.T), 0.5 * (P + P.T), eigvals_only=True)
    assert lam.min() >= min(1.0, lo / bbar) * (1.0 - 1e-8)
    assert lam.max() <= max(1.0, hi / bbar) * (1.0 + 1e-8)


def test_solved_operator_is_freed_without_the_cycle_collector():
    # The PCG state lives in the solve, not on the operator: a reference
    # cycle would keep the operator's arrays until the collector runs.
    eps, N, k = 1e-6, 8, 1
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    op = LdgOperator2D(build_tensor_2d(m, m), layer2d_variable_b(eps), k)
    gc.disable()
    try:
        _refined_solve("pcg", op.apply, op.factor, op.rhs, always=True)
        freed = weakref.ref(op)
        del op
        assert freed() is None
    finally:
        gc.enable()


def test_missed_solve_raises_with_residual_and_iterations(monkeypatch, caplog):
    # PCG is invariant to a scaled preconditioner, so a solve that misses by
    # a factor still converges; without the preconditioner, PCG stops at its
    # cap far from the solution, and the refined residual misses its
    # tolerance.  For constant b (kappa = 1) the cap is
    # 2 * ceil(1/2 * ln(2/RESIDUAL_TOL)) = 2 * ceil(11.86) = 24.
    eps, N, k = 1e-8, 8, 2
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    op = LdgOperator2D(mesh2, layer2d(eps), k)
    full = lu_solve(op.matrix(), op.rhs)
    exact = KroneckerSumSolve.__call__
    monkeypatch.setattr(KroneckerSumSolve, "__call__", lambda self, g: 1.5 * exact(self, g))
    x = solution_to_coeffs(solve_2d(mesh2, layer2d(eps), k))
    assert np.abs(x - full).max() <= 1e-12 * np.abs(full).max()
    monkeypatch.setattr(KroneckerSumSolve, "__call__", lambda self, g: g)
    with pytest.raises(SingularSystemError, match=r"^pcg solve: residual (\S+) after one "
                       r"refinement step misses the tolerance \S+ \(factored=24 "
                       r"iterations=24,24\)$") as info:
        solve_2d(mesh2, layer2d(eps), k)
    residual = float(str(info.value).split()[3])
    assert residual > 1e-10 * max(1.0, np.abs(op.rhs).max())


def pcg_iterations(problem, k, N, caplog):
    """The PCG step count of each S-solve of a solve_2d call at eps 1e-8,
    from its DEBUG record."""
    eps = 1e-8
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    with caplog.at_level(logging.DEBUG, logger="ldgrd"):
        solve_2d(build_tensor_2d(m, m), problem(eps), k)
    (record,) = [r.getMessage() for r in caplog.records if r.name == "ldgrd"]
    return [int(n) for n in record.split(" iterations=")[1].split()[0].split(",")]


def test_constant_b_takes_one_fd_apply_per_s_solve(monkeypatch, caplog):
    # PCG stops at RESIDUAL_TOL, not at rounding level, so the exact
    # fast-diagonalization preconditioner of constant b ends each S-solve
    # (solve, refinement) in one step, also at N=256, where its own relative
    # residual (about 1.1e-13) is far from rounding level.
    exact, calls = KroneckerSumSolve.__call__, []
    monkeypatch.setattr(KroneckerSumSolve, "__call__",
                        lambda self, g: calls.append(g.size) or exact(self, g))
    assert pcg_iterations(layer2d, 1, 256, caplog) == [1, 1]
    assert len(calls) == 2


def test_variable_b_pcg_step_bound(caplog):
    # b = 2 + x(1-y): kappa < 3/2 bounds the steps by the CG estimate
    # ceil(sqrt(3/2)/2 * ln(2/RESIDUAL_TOL)) = 15; 11 are taken, and the
    # refinement step still meets the full-system tolerance (else solve_2d
    # raises).
    assert all(n <= 12 for n in pcg_iterations(layer2d_variable_b, 1, 64, caplog))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 3), eps=st.sampled_from([1e-4, 1e-6, 1e-8, 1e-10, 1e-12]),
       N=st.sampled_from([4, 8, 12]), Ny=st.sampled_from([4, 8, 12]),
       flux=st.sampled_from(["paper", "classic"]), same_mesh=st.booleans(),
       variable_b=st.booleans(), seed=st.integers(0, 2**16))
@example(k=1, eps=1e-8, N=8, Ny=12, flux="paper", same_mesh=False, variable_b=True, seed=0)
def test_operator_apply_matches_matrix(k, eps, N, Ny, flux, same_mesh, variable_b, seed):
    # The matrix-free apply is the assembled matrix, and both are the
    # bilinear form: z . apply(t) = B(t; z).  The residual of a solve is at
    # rounding level for any right-hand side, not only the [0; 0; F] of a
    # solve_2d call, whose P and Q parts vanish.  Without a shared mesh the
    # y axis has its own N, so the mesh need not be square.
    mx = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    my = mx if same_mesh else build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 2.0,
                                                           N=Ny))
    mesh2, jump = build_tensor_2d(mx, my), flux == "paper"
    problem = with_variable_b(layer2d(eps)) if variable_b else layer2d(eps)
    op = LdgOperator2D(mesh2, problem, k, jump)
    assert (op.y is op.x) == same_mesh
    A = op.matrix()
    rng = np.random.default_rng(seed)
    t, z = make_triple(mesh2, k, rng), make_triple(mesh2, k, rng)
    x = solution_to_coeffs(t)
    Ax = op.apply(x)
    assert np.abs(Ax - A @ x).max() <= 1e-13 * abs(A).max() * np.abs(x).max()
    form = bilinear_B(t, z, problem, jump)
    assert abs(solution_to_coeffs(z) @ Ax - form) <= 1e-11 * max(abs(form), 1.0)
    # and the matrix-free solve inverts it, P and Q parts included
    solve, _ = op.factor()
    y = solve(Ax)
    assert np.abs(op.apply(y) - Ax).max() <= 1e-14 * abs(A).max() * np.abs(y).max()


def test_constant_b_solve_neither_assembles_nor_factors(monkeypatch):
    # nor does a variable-b solve
    eps, N, k = 1e-6, 8, 2
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    problems = (layer2d(eps), layer2d_variable_b(eps))
    ops = [LdgOperator2D(mesh2, p, k) for p in problems]
    fulls = [lu_solve(op.matrix(), op.rhs) for op in ops]

    def forbidden(*args, **kwargs):
        raise AssertionError("called by the 2D solve")

    monkeypatch.setattr(spla, "splu", forbidden)
    monkeypatch.setattr(LdgOperator2D, "matrix", forbidden)
    for problem, full in zip(problems, fulls):
        x = solution_to_coeffs(solve_2d(mesh2, problem, k))
        assert np.abs(x - full).max() <= 1e-12 * np.abs(full).max()


@pytest.mark.parametrize("same_mesh", [True, False])
def test_one_eigh_per_distinct_axis(same_mesh, monkeypatch):
    eps, N, k = 1e-6, 8, 1
    mx = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
    my = mx if same_mesh else build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=3.0, N=N))
    calls = {"eigh": 0, "_table_sum": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr("ldgrd.assembly2d._table_sum", counted("_table_sum", _table_sum))
    solve_2d(build_tensor_2d(mx, my), layer2d(eps), k)
    assert calls == {"eigh": 1 if same_mesh else 2, "_table_sum": 1 if same_mesh else 2}


@pytest.mark.parametrize("case, error, match", [
    ("k=0", ValueError, "polynomial degree must be >= 1"),
    ("mesh_x eps", ValueError, "does not match mesh eps"),
    ("mesh_y eps", ValueError, "does not match mesh eps"),
    ("non-finite f", ValueError, "rhs contains non-finite entries"),
    ("non-finite solve", SingularSystemError, "non-finite"),
    ("b <= 0", ValueError, "needs a finite positive b; got b in"),
    ("non-finite b", ValueError, "needs a finite positive b; got b in"),
])
def test_constant_b_solve_checks(case, error, match, monkeypatch):
    eps, N = 1e-6, 8
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
    other = build_shishkin_1d(MeshParams(eps=1e-4, beta=1.0, sigma=2.0, N=N))
    mx = my = m
    k, problem = 1, layer2d(eps)
    if case == "k=0":
        k = 0
    elif case == "mesh_x eps":
        mx = other
    elif case == "mesh_y eps":
        my = other
    elif case == "non-finite f":
        problem = dataclasses.replace(problem, f=lambda x, y: np.full(np.broadcast(x, y).shape,
                                                                      np.nan))
    elif case == "b <= 0":
        problem = dataclasses.replace(problem, b=lambda x, y: x - 0.5 + 0.0 * y)
    elif case == "non-finite b":
        problem = dataclasses.replace(problem, b=lambda x, y: np.where(x < 0.5, 2.0, np.nan) + y)
    else:
        monkeypatch.setattr(KroneckerSumSolve, "__call__", lambda self, g: np.full(g.size, np.nan))
    with pytest.raises(error, match=match):
        solve_2d(build_tensor_2d(mx, my), problem, k)


def test_constant_b_solve_peak_memory():
    # Nothing of the size of the assembled matrix is built: the peak is a
    # small multiple of the solution vector (about 7.7x; the assembled
    # solve's peak is about 50x).
    eps, N, k = 1e-8, 64, 1
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    mesh2, problem = build_tensor_2d(m, m), layer2d(eps)
    solve_2d(mesh2, problem, k)  # warm the caches of the reference-cell helpers
    tracemalloc.start()
    try:
        solve_2d(mesh2, problem, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 3 * N * N * (k + 1) ** 2 * 8


def test_operator_retains_no_per_cell_reaction_blocks():
    # The reaction mass is kept as b times the quadrature weights on the
    # node grid and applied sum-factorized, not as N^2 (k+1)^4 per-cell
    # blocks: the operator retains less than 3x the solution vector (about
    # 1.7x; the per-cell blocks alone are (k+1)^2/3 = 5.3x at k=3).
    eps, N, k = 1e-8, 32, 3
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
    mesh2, problem = build_tensor_2d(m, m), layer2d(eps)
    LdgOperator2D(mesh2, problem, k)  # warm the caches of the reference-cell helpers
    tracemalloc.start()
    try:
        op = LdgOperator2D(mesh2, problem, k)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 3 * 3 * N * N * (k + 1) ** 2 * 8


def test_assembly_2d_deterministic():
    eps = 1e-6
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=8))
    mesh2 = build_tensor_2d(m, m)
    prob = layer2d(eps)
    op1, op2 = LdgOperator2D(mesh2, prob, 1), LdgOperator2D(mesh2, prob, 1)
    A1, A2 = op1.matrix(), op2.matrix()
    assert np.array_equal(A1.indptr, A2.indptr)
    assert np.array_equal(A1.indices, A2.indices)
    assert np.array_equal(A1.data, A2.data)
    assert np.array_equal(op1.rhs, op2.rhs)


def test_classic_flux_config():
    assert _flux_weights(1e-8, jump=False) == (1e-4, 0.0)
    assert build_shishkin_1d(MeshParams(eps=1e-8, N=16)).special_index == 12


def smooth_sine_problem(eps):
    # manufactured non-polynomial solution without layers
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

    return ProblemSpec(name="sine2d", eps=eps, beta=1.0, b=b, f=f,
                       u_exact=u, p_exact=p, q_exact=q, lap_exact=lap)


def test_smooth_solution_converges_at_optimal_order():
    from ldgrd.norms import error_report

    eps, k = 1e-4, 1
    prob = smooth_sine_problem(eps)
    errs = []
    for N in (8, 16, 32):
        m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
        mesh2 = build_tensor_2d(m, m)
        t = solve_2d(mesh2, prob, k)
        errs.append(error_report(t, prob).err_l2_u)
    order = math.log(errs[1] / errs[2]) / math.log(2.0)
    assert abs(order - (k + 1)) < 0.25, f"errors {errs}, observed order {order}"
