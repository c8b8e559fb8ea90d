"""Compare the assembled systems, solutions, error reports and composite
interpolants of two source trees of ldgrd.

Dump mode imports ldgrd from the given tree (its `src/` directory) in this
process only, assembles and solves every case of the acceptance grids and
saves, per case, the CSR `indptr`, `indices`, `data`, the right-hand side
`rhs`, the solution vector `x` and the `error_report` values `report` (in
field order, without the 1D `err_l2_p`) to an `.npz` file.  The 2D arrays do
not depend on the tree's unknown layout: `x` holds the solved fields
[P, Q, U], each (nx, ny, k+1, k+1), `rhs` is mapped to the same fields
through the tree's own 2D coefficient map, and the matrix is permuted to
one fixed per-cell order through the same map applied to the unknowns'
positions, with explicit zeros dropped.  The map is `assembly1d`'s
`coeffs_to_solution`.  It also saves the coefficients `coeffs` and the
errors `err` (l2, then linf) of the composite interpolants of the benchmark's
interp workload; for each 1D interpolant also `err_cold`, both errors
measured again right after emptying the shared 1D node-sample cache
(`projection._node_samples`), so that the shared and the cold sampling are
compared bitwise across trees.  Run it once per tree,
each in its own process, so that the two packages never share an interpreter:

    python3 tools/compare_outputs.py dump /path/to/parent parent.npz
    python3 tools/compare_outputs.py dump . new.npz
    python3 tools/compare_outputs.py compare parent.npz new.npz

Compare mode reports, for each array, whether it is bitwise equal (same
dtype, shape and values), structure-equal (same dtype and shape, different
values; the maximum difference relative to max|a| is printed) or differs
(missing, or another dtype or shape).  Where a 2D matrix's `data`,
`indices` or `indptr` differs in shape, it also prints max|A-B|/max|A| of
the two CSR matrices rebuilt from them, so that a pattern change by
noise-level entries can be told from a real one; this changes no verdict.
For the arrays of reported values (`report`, `err`, `err_cold`) it also
prints the largest per-value |d|/|a|, the relative move that the
benchmark's tolerance applies to each value; this changes no verdict
either.
The tolerance is that of the acceptance criteria: a 2D matrix's `data`
may differ by at most RTOL_2D_DATA * max|A|, and every other array must be
bitwise equal.  The last three lines give the verdict per group (`1d: n
arrays, m outside tolerance`, then the same for 2d and interp), each with
the largest max|d|/max|a| among the group's structure-equal arrays (0 if it
has none) and the largest per-value |d|/|a| among its value arrays, so that
a change to one of them, a last-bit move of sums included, can be read from
its line alone.  It exits with
status 1 if any array is outside its tolerance.

Grids (sigma = k + 1, as in the convergence study; cases whose mesh does not
exist are skipped):
- 1D, `layer1d`: k = 1 .. 4; eps = 1e-4 .. 1e-12; N = 32 .. 1024; flux
  configs paper and classic.
- 2D, `layer2d`: k = 1, 2; N = 8, 16, 32; eps = 1e-6, 1e-8, 1e-12; flux
  configs paper and classic.
- In both, per (k, N), one more case at eps = 1e-8 with the paper config has
  a variable reaction coefficient, b = 1 + x^2 in 1D and b = 1 + x(1-y) in
  2D (and f made consistent with the exact solution).  The shipped problems
  have constant b, which hides the summation order of the 1D reaction blocks
  and does not take the 2D solve's variable-b path.
- interp, as the benchmark's interp workload builds them: `composite_u_1d`
  and `composite_q_1d` of `layer1d` at k = 1, 3 and N = 16384;
  `composite_u_2d`, `composite_px_2d` and `composite_qy_2d` of `layer2d` at
  k = 1, 2 and N = 64; eps = 1e-6, 1e-8, 1e-12.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

# The 2D solutions' last bits depend on the BLAS thread count: pin it to one,
# as perfbench/run.py does, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

GRID_1D = dict(k=(1, 2, 3, 4), eps=(1e-4, 1e-6, 1e-8, 1e-10, 1e-12),
               N=(32, 64, 128, 256, 512, 1024))
GRID_2D = dict(k=(1, 2), eps=(1e-6, 1e-8, 1e-12), N=(8, 16, 32))
RTOL_2D_DATA = 1e-15  # every other array, the 2D pattern and rhs included, stays bitwise
VARIABLE_B_EPS = 1e-8
CSR_FIELDS = ("data", "indices", "indptr")
GRID_INTERP = dict(eps=(1e-6, 1e-8, 1e-12), k1=(1, 3), N1=16384, k2=(1, 2), N2=64)


def _variable_b(problem, dim: int):
    """The problem with b = 1 + x^2 (1D) or b = 1 + x(1-y) (2D), and
    f = -eps*Lap(u) + b*u, Lap(u) read from the problem's `lap_exact` (u''
    in 1D)."""
    b = {1: lambda x: 1.0 + x**2, 2: lambda x, y: 1.0 + x * (1.0 - y)}[dim]

    def f(*xy):
        return -problem.eps * problem.lap_exact(*xy) + b(*xy) * problem.u_exact(*xy)

    return dataclasses.replace(problem, b=b, f=f)


def _cases():
    """Yield (key, system, solution vector, error report) for every case of
    both grids."""
    from ldgrd.assembly1d import assemble, solution_to_coeffs, solve_1d
    from ldgrd.assembly2d import LdgOperator2D, solve_2d
    from ldgrd.linalg import SparseSystem
    from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
    from ldgrd.norms import error_report
    from ldgrd.problems import get_problem

    for dim, grid in ((1, GRID_1D), (2, GRID_2D)):
        for k in grid["k"]:
            for eps in grid["eps"]:
                problem = get_problem(f"layer{dim}d", eps)
                for N in grid["N"]:
                    try:
                        mesh = build_shishkin_1d(MeshParams(eps=eps, sigma=k + 1.0, N=N))
                    except ValueError:
                        continue
                    cases = [("paper", True, problem), ("classic", False, problem)]
                    if eps == VARIABLE_B_EPS:
                        cases.append(("variable_b", True, _variable_b(problem, dim)))
                    for name, jump, prob in cases:
                        key = f"{dim}d/k{k}/eps{eps:.0e}/N{N}/{name}"
                        if dim == 1:
                            w = solve_1d(mesh, prob, k, jump)
                            yield (key, assemble(mesh, prob, k, jump), solution_to_coeffs(w),
                                   error_report(w, prob, jump))
                        else:
                            mesh2 = build_tensor_2d(mesh, mesh)
                            t = solve_2d(mesh2, prob, k, jump)
                            op = LdgOperator2D(mesh2, prob, k, jump)
                            system = SparseSystem(matrix=op.matrix(), rhs=op.rhs)
                            yield (key, _per_cell(mesh2, k, system), _fields(t),
                                   error_report(t, prob, jump))


def _interpolants():
    """Yield (key, {name: array}) for every composite interpolant of the
    interp grid: its `coeffs`, its `err` [l2 error, linf error] and, in 1D,
    the same errors measured with a cold sample cache, `err_cold`."""
    from ldgrd import projection as pj
    from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
    from ldgrd.problems import get_problem

    g = GRID_INTERP
    for eps in g["eps"]:
        for dim, degrees, N in ((1, g["k1"], g["N1"]), (2, g["k2"], g["N2"])):
            spec = get_problem(f"layer{dim}d", eps)
            if dim == 1:
                fields = {"u": (pj.composite_u_1d, spec.u_exact),
                          "q": (pj.composite_q_1d, spec.q_exact)}
                measure = pj.measure_interp_error
            else:
                fields = {"u": (pj.composite_u_2d, spec.u_exact),
                          "px": (pj.composite_px_2d, spec.p_exact),
                          "qy": (pj.composite_qy_2d, spec.q_exact)}
                measure = pj.measure_interp_error_2d
            for k in degrees:
                m = build_shishkin_1d(MeshParams(eps=eps, beta=spec.beta, sigma=k + 1, N=N))
                if dim == 2:
                    m = build_tensor_2d(m, m)
                for name, (build, field) in fields.items():
                    interp = build(field, m, k)
                    arrays = {"coeffs": interp.coeffs, "err": np.array(
                        [measure(field, interp, norm) for norm in ("l2", "linf")])}
                    if dim == 1:
                        cold = []
                        for norm in ("l2", "linf"):
                            pj._node_samples.cache_clear()
                            cold.append(measure(field, interp, norm))
                        arrays["err_cold"] = np.array(cold)
                    yield f"interp/{dim}d/{name}/k{k}/eps{eps:.0e}/N{N}", arrays


def _fields(t) -> np.ndarray:
    """The fields [P, Q, U] of a 2D triple, each (nx, ny, k+1, k+1)."""
    return np.stack([t.p.coeffs, t.q.coeffs, t.u.coeffs])


def _per_cell(mesh2, k: int, system):
    """The 2D system in one fixed per-cell order (cell (i, j) with j fastest,
    then field P, Q, U, x mode, y mode), whatever the tree's own unknown
    layout: the matrix with explicit zeros dropped and the rhs as _fields."""
    import scipy.sparse as sp
    from ldgrd.assembly1d import coeffs_to_solution as to_solution

    nx, ny = mesh2.shape
    n = nx * ny * 3 * (k + 1) ** 2
    t = to_solution(mesh2, k, np.arange(n, dtype=float))
    # the tree's position of each unknown, in the fixed per-cell order, and its inverse
    position = np.stack([t.p.coeffs, t.q.coeffs, t.u.coeffs], axis=2).ravel().astype(np.int64)
    where = np.empty(n, dtype=np.int64)
    where[position] = np.arange(n)
    A = system.matrix.tocoo()
    matrix = sp.csr_array((A.data, (where[A.row], where[A.col])), shape=A.shape)
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return dataclasses.replace(system, matrix=matrix,
                               rhs=_fields(to_solution(mesh2, k, system.rhs)))


def dump(tree: Path, out: Path) -> None:
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import ldgrd

    if not Path(ldgrd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported ldgrd from {ldgrd.__file__}, not from {src}")
    arrays = {}
    for key, system, x, report in _cases():
        A = system.matrix
        values = [v for v in dataclasses.astuple(report) if v is not None]
        arrays.update({f"{key}/indptr": A.indptr, f"{key}/indices": A.indices,
                       f"{key}/data": A.data, f"{key}/rhs": system.rhs,
                       f"{key}/x": x, f"{key}/report": np.array(values)})
    ncases = len(arrays) // 6
    ninterp = 0
    for key, interp in _interpolants():
        arrays.update({f"{key}/{name}": a for name, a in interp.items()})
        ninterp += 1
    np.savez(out, **arrays)
    print(f"{ncases} cases, {ninterp} interpolants, {len(arrays)} arrays from {src} -> {out}")


VALUE_FIELDS = ("report", "err", "err_cold")  # arrays of reported values


def _value_rel(a, b) -> float:
    """The largest per-value |a-b|/|a| of two equal-shape arrays (inf where
    a value moves away from zero): the relative move the benchmark's
    tolerance applies to each reported value."""
    d, scale = np.abs(a - b), np.abs(a)
    return float(np.max(np.where(d == 0, 0.0, d / np.where(scale == 0, 0.0, scale)), initial=0.0))


def _status(a, b) -> tuple[str, float]:
    if a is None or b is None or a.dtype != b.dtype or a.shape != b.shape:
        return "differs", float("nan")
    if np.array_equal(a, b):
        return "bitwise", 0.0
    scale = float(np.abs(a).max(initial=0.0))
    diff = float(np.abs(a.astype(float) - b.astype(float)).max())
    return "structure", diff / scale if scale else float("inf")


def _rebuilt_rel(a: dict, b: dict, case: str) -> float:
    """max|A-B|/max|A| of one case's CSR matrices rebuilt from both dumps."""
    import scipy.sparse as sp

    A, B = (sp.csr_array(tuple(d[f"{case}/{f}"] for f in CSR_FIELDS),
                         shape=(d[f"{case}/indptr"].size - 1,) * 2) for d in (a, b))
    if A.shape != B.shape:
        return float("nan")
    return float(abs(A - B).max() / abs(A).max())


def _rtol(key: str) -> float:
    return RTOL_2D_DATA if key.startswith("2d/") and key.endswith("/data") else 0.0


def compare(old: Path, new: Path) -> int:
    with np.load(old) as fa, np.load(new) as fb:
        a, b = dict(fa), dict(fb)
    counts = {"bitwise": 0, "structure": 0, "differs": 0}
    worst, rebuilt = {}, {}
    # arrays, arrays outside tolerance, largest max|d|/max|a| of a structure-equal array,
    # largest per-value |d|/|a| of a structure-equal value array
    per_dim = {"1d": [0, 0, 0.0, 0.0], "2d": [0, 0, 0.0, 0.0], "interp": [0, 0, 0.0, 0.0]}
    for key in sorted(a.keys() | b.keys()):
        status, rel = _status(a.get(key), b.get(key))
        counts[status] += 1
        case, field = key.rsplit("/", 1)
        value_rel = (_value_rel(a[key], b[key])
                     if status == "structure" and field in VALUE_FIELDS else None)
        if status == "structure":
            name = key.split("/", 1)[0] + "/" + field
            old_rel, old_value_rel = worst.get(name, (0.0, 0.0))
            worst[name] = max(old_rel, rel), max(old_value_rel, value_rel or 0.0)
        bad = status == "differs" or rel > _rtol(key)
        tally = per_dim[key.split("/", 1)[0]]
        tally[0] += 1
        tally[1] += bad
        if status == "structure":
            tally[2] = max(tally[2], rel)
            tally[3] = max(tally[3], value_rel or 0.0)
        print(f"{'FAIL' if bad else 'ok  '} {key}: {status}"
              + (f", max|d|/max|a| = {rel:.3g}" if status == "structure" else "")
              + (f", per-value |d|/|a| = {value_rel:.3g}" if value_rel is not None else ""))
        if (status == "differs" and key.startswith("2d/") and field in CSR_FIELDS
                and case not in rebuilt
                and all(f"{case}/{f}" in d for d in (a, b) for f in CSR_FIELDS)):
            rebuilt[case] = _rebuilt_rel(a, b, case)
            print(f"     {case}: pattern differs, rebuilt matrices max|A-B|/max|A| = "
                  f"{rebuilt[case]:.3g}")
    print(f"{len(a.keys() | b.keys())} arrays: " + ", ".join(f"{n} {s}" for s, n in counts.items()))
    for name, (rel, value_rel) in sorted(worst.items()):
        print(f"  worst structure-equal {name}: max|d|/max|a| = {rel:.3g}"
              + (f", per-value |d|/|a| = {value_rel:.3g}" if name.endswith(VALUE_FIELDS) else ""))
    if rebuilt:
        print(f"  worst rebuilt 2d matrix of {len(rebuilt)} with another pattern: "
              f"max|A-B|/max|A| = {max(rebuilt.values()):.3g}")
    for dim, (n, bad, rel, value_rel) in per_dim.items():
        print(f"{dim}: {n} arrays, {bad} outside tolerance, "
              f"largest structure-equal max|d|/max|a| = {rel:.3g}, "
              f"per-value |d|/|a| = {value_rel:.3g}")
    return 1 if any(bad for _, bad, _, _ in per_dim.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    d = sub.add_parser("dump", help="assemble and solve the grids and build the interpolants "
                                    "with the ldgrd of TREE, and save them")
    d.add_argument("tree", type=Path, help="source tree holding src/ldgrd")
    d.add_argument("out", type=Path, help="output .npz file")
    c = sub.add_parser("compare", help="compare two dumps array by array")
    c.add_argument("old", type=Path)
    c.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "dump":
        dump(args.tree, args.out)
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    raise SystemExit(main())
