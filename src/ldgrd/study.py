"""Convergence-study driver: sweeps over (k, eps, N) of one problem, which sets
the dimension, observed rates against N^{-1} and against the mesh-adjusted
factor N^{-1} ln N, CSV and text tables."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .assembly1d import solve_1d
from .assembly2d import solve_2d
from .mesh import MeshParams, build_shishkin_1d, build_tensor_2d
from .norms import ErrorReport, error_report
from .problems import PROBLEM_NAMES, get_problem

__all__ = [
    "StudyConfig",
    "ConvergenceRecord",
    "rate_s",
    "rate_p",
    "run_study",
    "records_to_csv",
    "records_to_table",
    "CSV_HEADER",
]

# Errors below this are round-off (at most 1.3e-15 in the exactness cases; the
# smallest discretization error on the supported range is 4e-12): no rate.
ROUNDOFF_FLOOR = 1e-13

CSV_HEADER = ("dim,k,sigma,eps,N,err_energy,err_balanced,err_l2_u,err_linf_u,"
              "rs_energy,rp_energy,rs_balanced,rp_balanced,status")


def rate_s(e_n: float, e_2n: float) -> float:
    """Observed order against N^{-1}: log(e_N / e_2N) / log 2."""
    if e_n <= 0.0 or e_2n <= 0.0:
        raise ValueError("errors must be positive to compute a rate")
    return (math.log(e_n) - math.log(e_2n)) / math.log(2.0)


def rate_p(e_n: float, e_2n: float, n: int) -> float:
    """Observed order against N^{-1} ln N: log(e_N / e_2N) divided by the
    log-ratio of that factor between N and 2N."""
    if e_n <= 0.0 or e_2n <= 0.0:
        raise ValueError("errors must be positive to compute a rate")
    if n < 2:
        raise ValueError(f"N must be at least 2, got {n}")
    return (math.log(e_n) - math.log(e_2n)) / math.log(2.0 * math.log(n) / math.log(2 * n))


@dataclass(frozen=True)
class StudyConfig:
    """One sweep: problem (it sets dim), degrees, eps values, mesh sizes and
    flux variant.  sigma=None applies the default rule sigma = k + 1; a given
    sigma must be finite and positive.  Degrees are integers >= 1, each N
    is a positive integer multiple of 4, eps values lie in (0, 1), no
    degree, eps or N repeats, and meshes take beta from the problem."""

    degrees: tuple[int, ...] = (1,)
    eps_list: tuple[float, ...] = (1e-8,)
    n_list: tuple[int, ...] = (32, 64)
    sigma: float | None = None
    problem: str = "layer1d"
    flux: str = "paper"

    def __post_init__(self):
        for name in ("degrees", "eps_list", "n_list"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{name} must be nonempty, without a repeated value, got {values}")
        for name in ("degrees", "n_list"):
            for v in getattr(self, name):
                if not isinstance(v, numbers.Integral):
                    raise ValueError(f"{name} must hold integers, got {v!r}")
        if min(self.degrees) < 1:
            raise ValueError(f"polynomial degree must be >= 1, got {min(self.degrees)}")
        for eps in self.eps_list:
            if not 0.0 < eps < 1.0:
                raise ValueError(f"eps must lie in (0, 1), got {eps}")
        for n in self.n_list:
            if n < 4 or n % 4 != 0:
                raise ValueError(f"every N must be a positive multiple of 4, got {n}")
        if self.sigma is not None and not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.flux not in ("paper", "classic"):
            raise ValueError(f"flux must be 'paper' or 'classic', got {self.flux!r}")
        if self.problem not in PROBLEM_NAMES:
            raise ValueError(f"unknown problem {self.problem!r}")

    @property
    def dim(self) -> int:
        return PROBLEM_NAMES[self.problem][0]

    def sigma_for(self, k: int) -> float:
        return float(k + 1) if self.sigma is None else float(self.sigma)


@dataclass
class ConvergenceRecord:
    """One (k, eps, N) case; rates are attached only when the 2N case ran."""

    dim: int
    k: int
    sigma: float
    eps: float
    N: int
    status: str = "ok"
    report: ErrorReport | None = None
    rs_energy: float | None = None
    rp_energy: float | None = None
    rs_balanced: float | None = None
    rp_balanced: float | None = None
    detail: str = field(default="", repr=False)


def _run_case(cfg: StudyConfig, k: int, eps: float, n: int) -> ConvergenceRecord:
    sigma = cfg.sigma_for(k)
    rec = ConvergenceRecord(dim=cfg.dim, k=k, sigma=sigma, eps=eps, N=n)
    try:
        problem = get_problem(cfg.problem, eps)
        mesh = build_shishkin_1d(MeshParams(eps=eps, beta=problem.beta, sigma=sigma, N=n))
        jump = cfg.flux == "paper"
        if cfg.dim == 2:
            mesh = build_tensor_2d(mesh, mesh)
        w = (solve_1d if cfg.dim == 1 else solve_2d)(mesh, problem, k, jump)
        rec.report = error_report(w, problem, jump)
    except Exception as exc:  # per-case failures recorded; the sweep continues
        rec.status = f"error: {type(exc).__name__}"
        rec.detail = str(exc)
    return rec


def run_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """Run every (k, eps, N) case, attach observed rates between consecutive
    mesh sizes, and return records ordered by (k, eps, N).  The cases run
    with eps innermost: the cases of one (k, N) share their 1D pattern and
    its LU column order (assembly1d._plan), which then serves them back to
    back."""
    records = []
    for k in sorted(cfg.degrees):
        done = {(eps, n): _run_case(cfg, k, eps, n)
                for n in sorted(cfg.n_list) for eps in sorted(cfg.eps_list)}
        for eps in sorted(cfg.eps_list):
            group = [done[eps, n] for n in sorted(cfg.n_list)]
            by_n = {rec.N: rec for rec in group}
            for rec in group:
                nxt = by_n.get(2 * rec.N)
                if nxt is None or rec.report is None or nxt.report is None:
                    continue
                e, e2 = rec.report.err_energy, nxt.report.err_energy
                if e >= ROUNDOFF_FLOOR and e2 >= ROUNDOFF_FLOOR:
                    rec.rs_energy, rec.rp_energy = rate_s(e, e2), rate_p(e, e2, rec.N)
                e, e2 = rec.report.err_balanced, nxt.report.err_balanced
                if e >= ROUNDOFF_FLOOR and e2 >= ROUNDOFF_FLOOR:
                    rec.rs_balanced, rec.rp_balanced = rate_s(e, e2), rate_p(e, e2, rec.N)
            records.extend(group)
    return records


def _fmt(v, spec: str) -> str:
    return "" if v is None else format(v, spec)


def records_to_csv(records: list[ConvergenceRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        rep = r.report
        lines.append(",".join([
            str(r.dim),
            str(r.k),
            format(r.sigma, ".6g"),
            format(r.eps, ".6g"),
            str(r.N),
            _fmt(rep.err_energy if rep else None, ".6g"),
            _fmt(rep.err_balanced if rep else None, ".6g"),
            _fmt(rep.err_l2_u if rep else None, ".6g"),
            _fmt(rep.err_linf_u if rep else None, ".6g"),
            _fmt(r.rs_energy, ".2f"),
            _fmt(r.rp_energy, ".2f"),
            _fmt(r.rs_balanced, ".2f"),
            _fmt(r.rp_balanced, ".2f"),
            r.status,
        ]))
    return "\n".join(lines) + "\n"


def records_to_table(records: list[ConvergenceRecord]) -> str:
    """Aligned text table: one block per degree, rows over N, per-eps columns
    of balanced-norm error with both observed rates."""
    out = []
    degrees = sorted({r.k for r in records})
    for k in degrees:
        recs_k = [r for r in records if r.k == k]
        eps_vals = sorted({r.eps for r in recs_k}, reverse=True)
        n_vals = sorted({r.N for r in recs_k})
        header = f"k = {k}  (sigma = {recs_k[0].sigma:g})"
        out.append(header)
        cols = "".join(f"{f'eps={e:.0e}':>28s}" for e in eps_vals)
        out.append(f"{'N':>6s}" + cols)
        sub = "".join(f"{'err_B':>12s}{'r_s':>8s}{'r_p':>8s}" for _ in eps_vals)
        out.append(f"{'':>6s}" + sub)
        index = {(r.eps, r.N): r for r in recs_k}
        for n in n_vals:
            row = [f"{n:>6d}"]
            for e in eps_vals:
                r = index.get((e, n))
                if r is None or r.report is None:
                    row.append(f"{'--':>12s}{'--':>8s}{'--':>8s}")
                    continue
                rs = f"{r.rs_balanced:.2f}" if r.rs_balanced is not None else "--"
                rp = f"{r.rp_balanced:.2f}" if r.rp_balanced is not None else "--"
                row.append(f"{r.report.err_balanced:>12.4e}{rs:>8s}{rp:>8s}")
            out.append("".join(row))
        out.append("")
    return "\n".join(out)
