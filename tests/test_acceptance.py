"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Nine criteria pass.  Criterion 9 compares the 2D rate with the reference
rate where the reference defines it, on the pairs N=32->64 and N=64->128,
for constant b and for the variable b = 2 + x(1-y).
Criterion 1 (reference error table) stays open: the table names no source
problem, norm or mesh constants, and the computed errors sit at 0.397-0.445
of it; its assertion message holds the measured evidence.  What would settle
it is the paper's example problem and the definition of its balanced norm.
"""

import math
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import legval

from ldgrd.assembly1d import LdgSolution, solve_1d
from ldgrd.mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from ldgrd.norms import error_report
from ldgrd.polyspace import PiecewisePoly, gauss_rule, legendre_basis
from ldgrd.problems import (ProblemSpec, layer1d, layer2d, layer2d_variable_b, poly_exact_1d,
                            poly_exact_2d)
from ldgrd.projection import (
    _project,
    composite_px_2d,
    composite_q_1d,
    composite_qy_2d,
    composite_u_1d,
    composite_u_2d,
    measure_interp_error,
    measure_interp_error_2d,
)
from ldgrd.assembly1d import bilinear_B
from ldgrd.assembly2d import solve_2d
from ldgrd.study import StudyConfig, rate_p, run_study

from conftest import energy_sq, zero_problem, zero_report

EPS_GRID = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)

# Reference balanced-norm error table this solver family is expected to
# reproduce at sigma = k+1, and the observed convergence rates derived from
# it (k=1 rows, N = 32..512).
TABLE_BALANCED = {
    1: {32: 0.25, 64: 0.11, 128: 0.044, 256: 0.016, 512: 0.0053, 1024: 0.0017},
    2: {32: 0.061, 64: 0.018, 128: 0.0043, 256: 0.00090, 512: 0.00017, 1024: 0.000031},
    3: {32: 0.015, 64: 0.0028, 128: 0.00041, 256: 0.000051, 512: 0.0000055},
}
TABLE_RS_K1 = [1.15, 1.34, 1.48, 1.58, 1.65]
TABLE_RP_K1 = [1.56, 1.72, 1.83, 1.90, 1.95]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{name}]: {status}"
    if detail:
        line += f" ({detail})"
    print(line)


@pytest.fixture(scope="module")
def grid1d():
    """Full 1D sweep (3 degrees x 5 eps x 6 N) with the paper flux."""
    t0 = time.time()
    cfg = StudyConfig(degrees=(1, 2, 3), eps_list=EPS_GRID,
                      n_list=(32, 64, 128, 256, 512, 1024), problem="layer1d",
                      flux="paper")
    records = run_study(cfg)
    elapsed = time.time() - t0
    index = {(r.k, r.eps, r.N): r for r in records}
    return index, elapsed


def balanced_errors_2d(problem, n_list, k=1, eps=1e-8):
    """Balanced-norm errors of problem per N at degree k (sigma = k + 1), and
    the time."""
    t0 = time.time()
    vals = {}
    prob = problem(eps)
    for N in n_list:
        m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
        mesh2 = build_tensor_2d(m, m)
        sol = solve_2d(mesh2, prob, k)
        vals[N] = error_report(sol, prob).err_balanced
    return vals, time.time() - t0


@pytest.fixture(scope="module")
def run2d():
    return balanced_errors_2d(layer2d, (8, 16, 32, 64, 128, 256, 512))


def test_criterion_01_table_reproduction(grid1d):
    index, elapsed = grid1d
    rows = []
    worst = 0.0
    for k, cells in TABLE_BALANCED.items():
        for N, expected in cells.items():
            rec = index[(k, 1e-8, N)]
            assert rec.status == "ok", f"case k={k} N={N} failed: {rec.detail}"
            got = rec.report.err_balanced
            rel = abs(got - expected) / expected
            worst = max(worst, rel)
            rows.append(f"k={k} N={N:>4}: expected {expected:<9g} got {got:<11.5g} "
                        f"rel.dev {rel:6.1%}")
    ok = worst <= 0.10 and elapsed < 300.0
    report(1, "table reproduction", ok,
           f"worst deviation {worst:.1%}, grid runtime {elapsed:.1f}s")
    table = "\n".join(rows)
    assert elapsed < 300.0, f"1D grid exceeded the runtime budget: {elapsed:.1f}s"
    assert worst <= 0.10, (
        "balanced-norm errors do not reproduce the reference table at "
        "sigma=k+1 within 10%:\n" + table + "\n"
        "The computed errors are eps-robust, satisfy the energy identity and "
        "polynomial exactness to machine precision, and match the reference "
        "convergence rates within 0.08 (see criterion 3), but run at "
        "0.397-0.445 of the reference values in every (k, N) cell and at "
        "every eps. No constant fits the table within its two-digit "
        "rounding: a rescale of the norm would have to be <= 2.294 at k=1, "
        "N=32 and >= 2.477 at k=2, N=1024, and a weight on the boundary "
        "U-jumps <= 5.86 and >= 6.38 at the same two cells. The unit-weight "
        "boundary U-jumps at x=0 and x=1 make up 88-96% of the squared "
        "balanced error. No variation of the stated method reproduces the "
        "reference normalization: the opposite jump-penalty orientation "
        "diverges (errors ~0.46, non-convergent), dropping the penalty "
        "changes errors by <0.05%, boundary-penalty rescaling moves errors "
        "the wrong way, and sigma=k+2 gives 0.81-0.96 of the table, below "
        "it in every cell. The table names no source problem, norm or mesh "
        "constants; the paper's example problem and balanced-norm "
        "definition would settle which side is at fault."
    )


def test_criterion_02_eps_robustness(grid1d):
    index, _ = grid1d
    worst = 0.0
    for k, cells in TABLE_BALANCED.items():
        for N in cells:
            vals = [index[(k, e, N)].report.err_balanced for e in EPS_GRID]
            spread = max(vals) / min(vals)
            worst = max(worst, spread)
            assert spread <= 1.10, f"k={k} N={N}: eps spread {spread:.4f}"
    report(2, "eps robustness", True, f"worst eps spread {worst - 1.0:.3%}")


def test_criterion_03_rate_check(grid1d):
    index, _ = grid1d
    recs = [index[(1, 1e-8, N)] for N in (32, 64, 128, 256, 512)]
    rs = [r.rates["rs_balanced"] for r in recs]
    rp = [r.rates["rp_balanced"] for r in recs]
    dev_s = max(abs(a - b) for a, b in zip(rs, TABLE_RS_K1))
    dev_p = max(abs(a - b) for a, b in zip(rp, TABLE_RP_K1))
    ok = dev_s <= 0.1 and dev_p <= 0.1
    report(3, "rate check", ok,
           f"max |r_s dev| {dev_s:.3f}, max |r_p dev| {dev_p:.3f}")
    assert dev_s <= 0.1, f"r_s {rs} vs reference {TABLE_RS_K1}"
    assert dev_p <= 0.1, f"r_p {rp} vs reference {TABLE_RP_K1}"


def test_criterion_04_balanced_energy_ratio(grid1d):
    index, _ = grid1d
    rec = index[(1, 1e-8, 128)]
    ratio = rec.report.err_balanced / rec.report.err_energy
    target = 1e-8 ** -0.25  # eps^{-1/4} = 100
    ok = target / 2.0 <= ratio <= 2.0 * target
    report(4, "balanced/energy ratio", ok, f"ratio {ratio:.1f} vs eps^-1/4 = {target:.0f}")
    assert ok, f"ratio {ratio} outside [{target / 2}, {2 * target}]"


def test_criterion_05_energy_identity():
    rng = np.random.default_rng(101)

    def ones_b(x):
        return np.ones_like(np.asarray(x, dtype=float))

    def two_b(x, y):
        return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, 2.0)

    worst = 0.0
    count1 = 0
    for eps in (1e-4, 1e-8, 1e-12):
        for N in (8, 16, 32):
            for k in (1, 2, 3):
                mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
                for _ in range(8):
                    chi = LdgSolution(
                        q=PiecewisePoly(mesh, rng.standard_normal((N, k + 1))),
                        u=PiecewisePoly(mesh, rng.standard_normal((N, k + 1))),
                    )
                    b_val = bilinear_B(chi, chi, zero_problem(eps, ones_b, 1))
                    e_val = energy_sq(chi, ones_b, eps)
                    rel = abs(b_val - e_val) / abs(e_val)
                    worst = max(worst, rel)
                    count1 += 1
                    assert rel <= 1e-9
    count2 = 0
    for eps in (1e-4, 1e-10):
        for N in (4, 8):
            for k in (1, 2):
                m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
                mesh2 = build_tensor_2d(m, m)
                shape = (N, N, k + 1, k + 1)
                for _ in range(7):
                    z = LdgSolution(
                        u=PiecewisePoly(mesh2, rng.standard_normal(shape)),
                        p=PiecewisePoly(mesh2, rng.standard_normal(shape)),
                        q=PiecewisePoly(mesh2, rng.standard_normal(shape)),
                    )
                    b_val = bilinear_B(z, z, zero_problem(eps, two_b, 2))
                    e_val = energy_sq(z, two_b, eps)
                    rel = abs(b_val - e_val) / abs(e_val)
                    worst = max(worst, rel)
                    count2 += 1
                    assert rel <= 1e-9
    assert count1 >= 200 and count2 >= 50
    report(5, "energy identity", True,
           f"{count1} 1D + {count2} 2D fields, worst rel dev {worst:.2e}")


def test_criterion_06_polynomial_exactness():
    eps = 1e-6
    mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=3.0, N=8))
    prob = poly_exact_1d(eps)
    w = solve_1d(mesh, prob, 2)
    t1 = np.linspace(-1.0, 1.0, 65)
    X1 = mesh.quad_points(t1)
    err1 = max(np.abs(w.u.values_on_ref(t1) - prob.u_exact(X1)).max(),
               np.abs(w.q.values_on_ref(t1) - prob.q_exact(X1)).max())

    mesh2 = build_tensor_2d(mesh, mesh)
    prob2 = poly_exact_2d(eps)
    t = solve_2d(mesh2, prob2, 2)
    ext = np.linspace(-1.0, 1.0, 5)
    mids = 0.5 * (mesh.points[:-1] + mesh.points[1:])
    X = mids[:, None] + 0.5 * mesh.widths[:, None] * ext[None, :]
    X4, Y4 = X[:, None, :, None], X[None, :, None, :]
    err2 = max(
        np.abs(t.u.values_on_ref(ext, ext) - prob2.u_exact(X4, Y4)).max(),
        np.abs(t.p.values_on_ref(ext, ext) - prob2.p_exact(X4, Y4)).max(),
        np.abs(t.q.values_on_ref(ext, ext) - prob2.q_exact(X4, Y4)).max(),
    )
    ok = err1 < 1e-9 and err2 < 1e-9
    report(6, "polynomial exactness", ok, f"1D {err1:.2e}, 2D {err2:.2e}")
    assert ok


def test_criterion_07_projection_properties():
    rng = np.random.default_rng(202)
    fine = gauss_rule(30)
    worst = 0.0
    for trial in range(12):
        a = rng.uniform(0.0, 0.8)
        b = a + rng.uniform(0.02, 0.2)
        k = int(rng.integers(1, 4))
        w1, w2, w3 = rng.uniform(-1, 1, 3)

        def z(x, w1=w1, w2=w2, w3=w3):
            return w1 * np.sin(3.0 * x) + w2 * x**2 + w3

        xs = 0.5 * (a + b) + 0.5 * (b - a) * fine.nodes
        phi = legendre_basis(k, fine.nodes)
        # the projection kernels on the single cell (a, b): L2, then
        # Gauss-Radau matching the right (tref +1) and the left (-1) end
        for c, endpoint, tref in ((_project(z, [(a, b)], k), None, None),
                                  (_project(z, [(a, b)], k, [(0, "minus", True)]), b, 1.0),
                                  (_project(z, [(a, b)], k, [(0, "plus", True)]), a, -1.0)):
            resid = z(xs) - legval(fine.nodes, c)
            upto = k + 1 if endpoint is None else k
            mom = np.abs(phi[:upto] @ (fine.weights * resid)).max()
            worst = max(worst, mom)
            assert mom < 1e-12
            if endpoint is not None:
                dev = abs(legval(tref, c) - z(np.array([endpoint]))[0])
                worst = max(worst, dev)
                assert dev < 1e-12

        # 2D edge/volume conditions for the graded projections
        c = a + rng.uniform(0.02, 0.2)
        cell2 = ((a, b), (a, c))

        def z2(x, y, w1=w1, w2=w2):
            return np.sin(2.0 * x + 0.1) * (w1 + np.cos(y)) + w2 * x * y

        for axis, side in ((0, "minus"), (0, "plus"), (1, "minus"), (1, "plus")):
            cc = _project(z2, cell2, 2, [(axis, side, True)])
            phi2 = legendre_basis(2, fine.nodes)
            (ax, bx), (ay, by) = cell2
            x2 = 0.5 * (ax + bx) + 0.5 * (bx - ax) * fine.nodes
            y2 = 0.5 * (ay + by) + 0.5 * (by - ay) * fine.nodes
            resid2 = z2(x2[:, None], y2[None, :]) - np.einsum("mn,mx,ny->xy", cc, phi2, phi2)
            mom2 = np.einsum("x,y,xy,ax,by->ab", fine.weights, fine.weights,
                             resid2, phi2, phi2)
            if axis == 0:
                dev = np.abs(mom2[:2, :]).max()
            else:
                dev = np.abs(mom2[:, :2]).max()
            worst = max(worst, dev)
            assert dev < 1e-12

    # composite interpolants reproduce global polynomials of the local degree
    mesh = build_shishkin_1d(MeshParams(eps=1e-6, beta=1.0, sigma=2.0, N=16))
    for k in (1, 2):
        coef = rng.standard_normal(k + 1)

        def zp(x, coef=coef):
            return np.polynomial.polynomial.polyval(x, coef)

        for comp in (composite_u_1d(zp, mesh, k), composite_q_1d(zp, mesh, k)):
            dev = measure_interp_error(zp, comp, "linf")
            worst = max(worst, dev)
            assert dev < 1e-12
    m4 = build_shishkin_1d(MeshParams(eps=1e-6, beta=1.0, sigma=2.0, N=8))
    mesh2 = build_tensor_2d(m4, m4)
    ca, cb = rng.standard_normal(2), rng.standard_normal(2)

    def zt(x, y):
        return np.polynomial.polynomial.polyval(x, ca) * np.polynomial.polynomial.polyval(y, cb)

    for comp in (composite_u_2d(zt, mesh2, 1), composite_px_2d(zt, mesh2, 1),
                 composite_qy_2d(zt, mesh2, 1)):
        dev = measure_interp_error_2d(zt, comp, "linf")
        worst = max(worst, dev)
        assert dev < 1e-12
    report(7, "projection properties", True, f"worst condition dev {worst:.2e}")


def test_criterion_08_interpolation_rates():
    eps = 1e-8
    Ns = (64, 128, 256, 512)
    slopes = {}
    for k in (1, 2):
        prob = layer1d(eps)
        errs_u, errs_q = [], []
        for N in Ns:
            mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
            pu = composite_u_1d(prob.u_exact, mesh, k)
            pq = composite_q_1d(prob.q_exact, mesh, k)
            errs_u.append(measure_interp_error(prob.u_exact, pu, "linf"))
            errs_q.append(measure_interp_error(prob.q_exact, pq, "l2"))
        x = np.log([math.log(N) / N for N in Ns])
        slope_u = float(np.polyfit(x, np.log(errs_u), 1)[0])
        slope_q = float(np.polyfit(x, np.log(errs_q), 1)[0])
        slopes[k] = (slope_u, slope_q)
        assert slope_u >= k + 0.8, f"k={k}: Linf(u) slope {slope_u}"
        assert slope_q >= k + 0.8, f"k={k}: L2(q) slope {slope_q}"
    detail = ", ".join(f"k={k}: u {su:.2f}, q {sq:.2f}" for k, (su, sq) in slopes.items())
    report(8, "interpolation rates", True, detail)


def test_discrete_part_rates_1d():
    # The error analysis splits w - w_h into (w - Pi w) + (Pi w - w_h), Pi the
    # composite interpolant, and bounds the discrete part Pi w - w_h.  Its
    # balanced norm converges at order k+1 uniformly in eps, and it is at most
    # half of |||w - w_h|||_b (measured: r_p 1.935-1.965, 2.927 and
    # 3.907-3.909; eps spread 0.030, 0.000 and 0.002; ratio 0.342-0.346).
    rows = []
    for k in (1, 2, 3):
        rp = {}
        for eps in (1e-6, 1e-8, 1e-10, 1e-12):
            prob, errs = layer1d(eps), []
            for N in (512, 1024):
                mesh = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
                w = solve_1d(mesh, prob, k)
                pq = composite_q_1d(prob.q_exact, mesh, k).coeffs - w.q.coeffs
                pu = composite_u_1d(prob.u_exact, mesh, k).coeffs - w.u.coeffs
                d = LdgSolution(q=PiecewisePoly(mesh, pq), u=PiecewisePoly(mesh, pu))
                errs.append(zero_report(d, prob.b, eps).err_balanced)
                ratio = errs[-1] / error_report(w, prob).err_balanced
                rows.append(f"k={k} eps={eps:.0e} N={N}: ratio {ratio:.3f}")
                assert ratio <= 0.5, "\n".join(rows)
            rp[eps] = rate_p(*errs, 512)
            rows[-1] += f", r_p {rp[eps]:.3f}"
            assert abs(rp[eps] - (k + 1)) <= 0.1, "\n".join(rows)
        spread = max(rp.values()) - min(rp.values())
        assert spread <= 0.05, f"k={k}: r_p spread over eps {spread:.3f}\n" + "\n".join(rows)


def test_criterion_09_2d_convergence(run2d):
    # The method is of order k+1 only asymptotically, so the 2D rate is
    # compared with the reference rate on the pairs the reference defines
    # (TABLE_RP_K1[i] on N=32*2^i -> 64*2^i, here up to N=256->512), at
    # criterion 3's tolerance.
    vals, elapsed = run2d
    rp = {N: rate_p(vals[N], vals[2 * N], N) for N in (16, 32, 64, 128, 256)}
    refs = dict(zip((32, 64, 128, 256), TABLE_RP_K1))
    devs = {N: abs(rp[N] - ref) for N, ref in refs.items()}
    rising = all(rp[N] < rp[2 * N] for N in (16, 32, 64, 128))
    rates = ", ".join(f"{N}->{2 * N} {r:.3f}" for N, r in rp.items())
    ok = max(devs.values()) <= 0.1 and rising and elapsed < 180.0
    report(9, "2D convergence", ok,
           f"errors {' / '.join(f'{vals[N]:.4g}' for N in sorted(vals))}, r_p {rates} vs "
           f"reference {', '.join(f'{r:.2f}' for r in refs.values())} from N=32 on, "
           f"runtime {elapsed:.1f}s")
    assert elapsed < 180.0, f"2D runs exceeded the runtime budget: {elapsed:.1f}s"
    for N, ref in refs.items():
        assert devs[N] <= 0.1, (
            f"2D balanced-norm rate between N={N} and N={2 * N} is {rp[N]:.3f}, "
            f"{devs[N]:.3f} away from the reference rate {ref:.2f} on that pair (tolerance "
            f"0.1, as in criterion 3); r_p is {rates}."
        )
    assert rising, (
        f"2D balanced-norm rate does not rise towards k + 1 = 2 under refinement: "
        f"r_p {rates}."
    )


def test_criterion_09_2d_convergence_variable_b():
    # Criterion 9's rate check for b = 2 + x(1-y), the solve's PCG path: the
    # same pairs, reference rates and tolerance.
    vals, elapsed = balanced_errors_2d(layer2d_variable_b, (16, 32, 64, 128))
    rp_32 = rate_p(vals[32], vals[64], 32)
    rp_64 = rate_p(vals[64], vals[128], 64)
    ok = abs(rp_32 - TABLE_RP_K1[0]) <= 0.1 and abs(rp_64 - TABLE_RP_K1[1]) <= 0.1
    report(9, "2D convergence, variable b", ok,
           f"r_p 32->64 {rp_32:.3f} vs reference {TABLE_RP_K1[0]:.2f}, 64->128 {rp_64:.3f} "
           f"vs reference {TABLE_RP_K1[1]:.2f}, runtime {elapsed:.1f}s")
    assert ok, (f"variable-b 2D balanced-norm rates {rp_32:.3f} (N=32->64) and {rp_64:.3f} "
                f"(N=64->128) vs reference {TABLE_RP_K1[0]:.2f} and {TABLE_RP_K1[1]:.2f} "
                f"(tolerance 0.1, as in criterion 3)")


def test_2d_rates_are_eps_uniform_at_k2():
    # The balanced-norm rate of layer2d at k=2 does not depend on eps: on
    # each N pair from 32->64 to 128->256 it varies over eps 1e-6, 1e-9 and
    # 1e-12 by at most 1e-3 (about 8e-5 measured).
    n_list = (32, 64, 128, 256)
    rp = {}
    for eps in (1e-6, 1e-9, 1e-12):
        vals, _ = balanced_errors_2d(layer2d, n_list, k=2, eps=eps)
        rp[eps] = [rate_p(vals[N], vals[2 * N], N) for N in n_list[:-1]]
    spread = [max(r[i] for r in rp.values()) - min(r[i] for r in rp.values())
              for i in range(len(n_list) - 1)]
    assert max(spread) <= 1e-3, (
        f"k=2 2D balanced-norm rates vary over eps by up to {max(spread):.3g} "
        f"(tolerance 1e-3): " + "; ".join(
            f"eps {eps:.0e}: " + ", ".join(f"{r:.5f}" for r in rates)
            for eps, rates in rp.items()))


def test_criterion_10_flux_ablation(grid1d):
    index, _ = grid1d
    eps, N, k = 1e-8, 128, 1
    cfg = StudyConfig(degrees=(k,), eps_list=(eps,), n_list=(N,),
                      problem="layer1d", flux="classic")
    classic = run_study(cfg)[0]
    assert classic.status == "ok"
    classic_err = classic.report.err_balanced
    paper_err = index[(k, eps, N)].report.err_balanced
    ok = paper_err <= classic_err
    report(10, "flux ablation", ok,
           f"paper {paper_err:.6g} <= classic {classic_err:.6g}: {ok}")
    assert ok, f"paper-flux error {paper_err} exceeds classic-flux error {classic_err}"


# (classic / paper - 1) of the balanced error at sigma = k+1, per (dim, k):
# the band measured on the grids below, widened by a factor 2 each way.
# Measured: 1D k=1 7.49e-6 to 1.01e-4, k=2 5.69e-10 to 7.76e-8; 2D k=1
# 1.59e-4 to 2.17e-3, k=2 1.05e-7 to 6.97e-6.  k=3 is left out: its gap
# changes sign at the level of the solver's own error.
FLUX_GAP_BANDS = {(1, 1): (3.7e-6, 2.1e-4), (1, 2): (2.8e-10, 1.6e-7),
                  (2, 1): (7.9e-5, 4.4e-3), (2, 2): (5.2e-8, 1.4e-5)}


def test_flux_gap_at_default_grading():
    """At sigma = k+1 the paper flux's balanced error is below the classic
    flux's on every case of the 1D (eps 1e-8, 1e-12, N = 64..1024) and 2D
    (eps 1e-8, N = 16..64) grids, by a relative gap inside its measured band
    that shrinks as N grows."""
    gaps = {}
    for k in (1, 2):
        for eps in (1e-8, 1e-12):
            prob = layer1d(eps)
            for N in (64, 128, 256, 512, 1024):
                m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=k + 1.0, N=N))
                paper, classic = (error_report(solve_1d(m, prob, k, jump), prob, jump).err_balanced
                                  for jump in (True, False))
                gaps.setdefault((1, k, eps), []).append(classic / paper - 1.0)
        prob = layer2d(1e-8)
        for N in (16, 32, 64):
            m = build_shishkin_1d(MeshParams(eps=1e-8, beta=1.0, sigma=k + 1.0, N=N))
            mesh2 = build_tensor_2d(m, m)
            paper, classic = (error_report(solve_2d(mesh2, prob, k, jump), prob, jump).err_balanced
                              for jump in (True, False))
            gaps.setdefault((2, k, 1e-8), []).append(classic / paper - 1.0)
    for (dim, k, eps), g in gaps.items():
        lo, hi = FLUX_GAP_BANDS[dim, k]
        assert all(lo <= x <= hi for x in g), (dim, k, eps, g)
        assert all(a > b for a, b in zip(g, g[1:])), (dim, k, eps, g)


def one_layer_problem(eps):
    # one layer, at x = 1: u = (e^{-(1-x)/s} - e^{-1/s}) / (1 - e^{-1/s}) - x, s = sqrt(eps),
    # b = 1, f = -e^{-1/s} / (1 - e^{-1/s}) - x
    s = math.sqrt(eps)
    c = math.exp(-1.0 / s)

    def layer(x):
        return np.exp(-(1.0 - np.asarray(x, dtype=float)) / s)

    def u(x):
        return (layer(x) - c) / (1.0 - c) - np.asarray(x, dtype=float)

    def du(x):
        return layer(x) / (s * (1.0 - c)) - 1.0

    def d2u(x):
        return layer(x) / (eps * (1.0 - c))

    def q(x):
        return eps * du(x)

    def f(x):
        return -c / (1.0 - c) - np.asarray(x, dtype=float)

    def b(x):
        return np.ones_like(np.asarray(x, dtype=float))

    return ProblemSpec(name="one_layer", eps=eps, beta=1.0, b=b, f=f, u_exact=u, q_exact=q,
                       lap_exact=d2u)


def one_layer_balanced(k, eps, N, sigma, jump):
    prob = one_layer_problem(eps)
    m = build_shishkin_1d(MeshParams(eps=eps, beta=1.0, sigma=sigma, N=N))
    return error_report(solve_1d(m, prob, k, jump), prob, jump).err_balanced


# (classic / paper - 1) of the one-layer problem's balanced error at sigma =
# k+1, eps 1e-8, N = 64, 256, 1024, per k: measured 1.22e-5, 2.17e-6, 6.20e-7
# (k=1) and 1.10e-7, 8.90e-9, 1.09e-9 (k=2); the bands are these widened by
# a factor 2 each way.
ONE_LAYER_GAP_BANDS = {1: (3.1e-7, 2.5e-5), 2: (5.4e-10, 2.2e-7)}


def test_one_layer_flux_gap_at_default_grading():
    """With one layer, at sigma = k+1 the two fluxes still agree: the classic
    flux's balanced error exceeds the paper flux's by a relative gap inside
    its measured band that shrinks as N grows."""
    for k, (lo, hi) in ONE_LAYER_GAP_BANDS.items():
        gaps = [one_layer_balanced(k, 1e-8, N, k + 1.0, False)
                / one_layer_balanced(k, 1e-8, N, k + 1.0, True) - 1.0 for N in (64, 256, 1024)]
        assert all(lo <= g <= hi for g in gaps), (k, gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:])), (k, gaps)


# The one-layer problem's balanced errors at N=2048 and r_p on 1024 -> 2048,
# sigma = 1.5, eps 1e-12, per (k, flux): the values measured, widened by a
# factor 2 each way.  Measured: k=1 paper 8.47e-5, r_p 1.98, classic 8.50e-5,
# r_p 1.98; k=2 paper 1.05e-6, r_p 1.35, classic 7.49e-6, r_p 1.76; k=3
# paper 1.37e-6, r_p 1.17, classic 7.38e-6, r_p 1.77.
ONE_LAYER_SIGMA_1_5 = {(1, "paper"): (8.47e-5, 1.98), (1, "classic"): (8.50e-5, 1.98),
                       (2, "paper"): (1.05e-6, 1.35), (2, "classic"): (7.49e-6, 1.76),
                       (3, "paper"): (1.37e-6, 1.17), (3, "classic"): (7.38e-6, 1.77)}


def test_one_layer_fluxes_separate_below_default_grading():
    """At sigma = 1.5 < k+1 (eps 1e-12, N = 1024 -> 2048) the fluxes separate
    at k = 2, 3: the paper flux's balanced error is the smaller one, but it
    converges at the lower r_p.  Outside the default grading rule, and, as far
    as the abstract tells, outside the analysis; recorded, not explained."""
    seen = {}
    for (k, flux), (err, rate) in ONE_LAYER_SIGMA_1_5.items():
        e1024, e2048 = (one_layer_balanced(k, 1e-12, N, 1.5, flux == "paper") for N in (1024, 2048))
        seen[k, flux] = e2048, rate_p(e1024, e2048, 1024)
        assert err / 2 <= seen[k, flux][0] <= 2 * err, (k, flux, seen[k, flux])
        assert rate / 2 <= seen[k, flux][1] <= 2 * rate, (k, flux, seen[k, flux])
    for k in (2, 3):
        (paper, rp_paper), (classic, rp_classic) = seen[k, "paper"], seen[k, "classic"]
        assert paper < classic and rp_paper < rp_classic, (k, seen)
