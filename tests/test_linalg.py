import ast
import dataclasses
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import ldgrd
import ldgrd.assembly1d as assembly1d
from ldgrd.assembly1d import assemble, solve_1d
from ldgrd.assembly2d import solve_2d
from ldgrd.linalg import Pattern, SingularSystemError, from_coo, lu_solve, matvec
from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from ldgrd.problems import poly_exact_1d, poly_exact_2d


def dense_to_sparse(A):
    rows, cols = np.nonzero(A)
    return from_coo(A.shape[0], rows, cols, A[rows, cols])


def test_identity_solve(rng):
    A = dense_to_sparse(np.eye(5))
    r = rng.standard_normal(5)
    assert np.allclose(lu_solve(A, r), r, atol=1e-15)


def test_two_by_two_hand_solve():
    A = dense_to_sparse(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = lu_solve(A, np.array([3.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_matvec_against_dense_oracle(rng):
    D = rng.standard_normal((3, 3))
    A = dense_to_sparse(D)
    x = rng.standard_normal(3)
    ref = np.zeros(3)
    for i in range(3):
        for j in range(3):
            ref[i] += D[i, j] * x[j]
    assert np.abs(matvec(A, x) - ref).max() < 1e-14
    assert np.abs(matvec(dense_to_sparse(np.zeros((3, 3)) + 0.0 * D), x)).max() == 0.0


def test_matvec_dimension_mismatch():
    A = dense_to_sparse(np.eye(3))
    with pytest.raises(ValueError):
        matvec(A, np.ones(4))


def test_singular_matrix_raises():
    A = dense_to_sparse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularSystemError):
        lu_solve(A, np.ones(2))


def test_nonfinite_rejected():
    A = dense_to_sparse(np.eye(2))
    with pytest.raises(ValueError):
        lu_solve(A, np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        from_coo(2, [0, 1], [0, 1], [1.0, np.inf])


def ill_conditioned():
    # SPD with condition number 1e14: one refinement step leaves a residual
    # of about 1e-3, far above the 2e-10 tolerance
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    return dense_to_sparse(Q @ np.diag(np.geomspace(1.0, 1e-14, 8)) @ Q.T), rng.standard_normal(8)


def test_unrefinable_residual_raises():
    A, rhs = ill_conditioned()
    with pytest.raises(SingularSystemError, match="misses the tolerance"):
        lu_solve(A, rhs)


def solve_records(caplog):
    """The key=value fields of each lu_solve record."""
    return [dict(item.split("=") for item in r.getMessage().split()[1:])
            for r in caplog.records if r.name == "ldgrd" and r.levelno == logging.DEBUG]


def test_debug_record_per_solve(caplog):
    eps, N = 1e-4, 4
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=N))
    mesh2 = build_tensor_2d(m, m)
    # every 2D solve runs PCG on the Schur complement in U; for b = 2 its
    # fast-diagonalization preconditioner is exact
    variable_b = dataclasses.replace(poly_exact_2d(eps), b=lambda x, y: 2.0 + x * (1.0 - y))
    assembly1d._plan.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="ldgrd"):
        solve_1d(m, poly_exact_1d(eps), 1)
        solve_1d(m, poly_exact_1d(eps), 1)
        solve_2d(mesh2, variable_b, 1)
        solve_2d(mesh2, poly_exact_2d(eps), 1)
    one, again, two, constant = solve_records(caplog)
    assert (one["path"], one["unknowns"], one["factored"]) == ("lu", "16", "16")
    assert int(one["fill"]) >= int(one["nnz"]) > 0
    assert one["refined"] == "False"
    assert float(one["refined_residual"]) == float(one["residual"]) <= 1e-10
    # the second solve of the pattern reuses the first one's column order
    assert (one["ordering"], again["ordering"]) == ("colamd", "reused")
    assert {**again, "ordering": "colamd"} == one
    # nothing is factored; the eigenproblems have N(k+1) unknowns, and each
    # of the two S-solves (solve, refinement) reports its PCG iterations
    for rec in (two, constant):
        assert (rec["path"], rec["unknowns"], rec["factored"]) == ("pcg", "192", "8")
        assert "nnz" not in rec and "fill" not in rec
        assert rec["refined"] == "True"
        assert float(rec["refined_residual"]) <= 1e-10
    assert constant["iterations"] == "1,1"
    # b lies in [2, 3), so the iteration cap is at most
    # 2 * ceil(sqrt(3/2)/2 * ln(2e10)) = 30
    assert all(1 < int(n) < 30 for n in two["iterations"].split(","))

    caplog.clear()
    A, rhs = ill_conditioned()
    with caplog.at_level(logging.DEBUG, logger="ldgrd"), pytest.raises(SingularSystemError):
        lu_solve(A, rhs)
    (rec,) = solve_records(caplog)
    assert rec["refined"] == "True" and rec["ordering"] == "colamd"
    assert float(rec["refined_residual"]) > 2e-10


def test_pattern_matrix_is_bitwise_from_coo(rng):
    # Shuffled triplets with up to four at one position, signed zeros among
    # them: the pattern's sums are from_coo's, bit for bit, in every row.
    n = 40
    rows, cols = rng.integers(0, n, 600), rng.integers(0, n, 600)
    rows[:n], cols[:n] = np.arange(n), np.arange(n)  # no empty row
    pattern = Pattern(n, rows, cols)
    assert pattern.later and pattern.indptr.dtype == pattern.indices.dtype == np.int32
    for vals in (rng.standard_normal(600) * 10.0 ** rng.integers(-8, 8, 600),
                 np.where(rng.random(600) < 0.5, -0.0, 0.0)):
        A, B = pattern.matrix(vals), from_coo(n, rows, cols, vals)
        for a, b in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    vals[7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        pattern.matrix(vals)


def test_pattern_reuse_needs_the_matrix_it_built(rng):
    pattern = Pattern(2, [0, 1, 1], [0, 0, 1])
    A = pattern.matrix(np.array([2.0, 1.0, 3.0]))
    rhs = np.array([2.0, 4.0])
    for _ in range(2):  # COLAMD, then the recorded order
        assert np.array_equal(lu_solve(A, rhs, pattern), [1.0, 1.0])
    with pytest.raises(ValueError, match="pattern"):
        lu_solve(from_coo(2, [0, 1, 1], [0, 0, 1], [2.0, 1.0, 3.0]), rhs, pattern)


def test_duplicate_triplets_are_summed():
    A = from_coo(2, [0, 0, 1], [0, 0, 1], [1.0, 2.5, 1.0])
    assert np.allclose(matvec(A, np.array([1.0, 1.0])), [3.5, 1.0])


def test_shuffled_triplets_give_canonical_rows(rng):
    # coo_matrix.tocsr() alone sums the duplicates and leaves every row's
    # column indices sorted and unique.
    n = 12
    rows, cols = np.nonzero(rng.random((n, n)) < 0.4)
    rows, cols = np.tile(rows, 3), np.tile(cols, 3)  # each entry three times
    order = rng.permutation(rows.size)
    vals = rng.standard_normal(rows.size)
    A = from_coo(n, rows[order], cols[order], vals[order])
    for i in range(n):
        row = A.indices[A.indptr[i]:A.indptr[i + 1]]
        assert np.all(np.diff(row) > 0)
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), vals)
    assert np.allclose(A.toarray(), dense, rtol=1e-14, atol=1e-14)


def test_residual_contract_on_assembled_system():
    eps = 1e-4
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=2.0, N=4))
    system = assemble(mesh, poly_exact_1d(eps), 1)
    x = lu_solve(system.matrix, system.rhs)
    r = np.abs(matvec(system.matrix, x) - system.rhs).max()
    assert r <= 1e-10 * max(1.0, np.abs(system.rhs).max())


# ldgrd.linalg holds scipy.sparse and scipy.sparse.linalg as deferred
# handles: importing the package loads numpy only, and scipy loads on the
# first solve or 2D operator.  The checks below run in fresh interpreters,
# since this one has scipy loaded already.

SRC = str(Path(ldgrd.__file__).resolve().parents[1])

PRELUDE = """\
import atexit, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
atexit.register(lambda: print(scipy_loaded(), file=sys.stderr))
"""


def run_fresh(code: str):
    """Run code in a fresh interpreter that imports ldgrd from this tree.
    Returns its exit code, the scipy modules loaded at its exit and its
    stderr."""
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
    return proc.returncode, ast.literal_eval(proc.stderr.splitlines()[-1]), proc.stderr


def test_library_use_without_a_solve_loads_no_scipy():
    # the interpolants and their errors, as the interp benchmark calls them
    code, loaded, err = run_fresh("""\
from ldgrd import MeshParams, build_shishkin_1d, build_tensor_2d, layer1d, layer2d, solve_1d
from ldgrd.projection import (composite_u_1d, composite_u_2d, measure_interp_error,
                              measure_interp_error_2d)
eps, k = 1e-8, 2
m1 = build_shishkin_1d(MeshParams(eps=eps, sigma=k + 1.0, N=16))
u1, u2 = layer1d(eps).u_exact, layer2d(eps).u_exact
for norm in ("l2", "linf"):
    measure_interp_error(u1, composite_u_1d(u1, m1, k), norm)
    measure_interp_error_2d(u2, composite_u_2d(u2, build_tensor_2d(m1, m1), k), norm)
assert not scipy_loaded(), scipy_loaded()
solve_1d(m1, layer1d(eps), k)
""")
    assert code == 0, err
    assert "scipy.sparse.linalg" in loaded


@pytest.mark.parametrize("argv, exit_code", [(["--help"], 0), (["--eps", "0"], 2)],
                         ids=["help", "invalid-eps"])
def test_cli_exits_load_no_scipy(argv, exit_code):
    code, loaded, err = run_fresh(f"from ldgrd.cli import main\nraise SystemExit(main({argv!r}))\n")
    assert code == exit_code, err
    assert loaded == []


def test_deferred_scipy_resolves_at_call_time(monkeypatch):
    # a patch of the real module reaches the solve, as the benchmark's
    # tracer and the 2D solve's forbidden-splu test rely on
    def failing(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", failing)
    eps = 1e-4
    system = assemble(build_shishkin_1d(MeshParams(eps=eps, sigma=2.0, N=4)), poly_exact_1d(eps), 1)
    with pytest.raises(SingularSystemError, match="exactly singular"):
        lu_solve(system.matrix, system.rhs)
