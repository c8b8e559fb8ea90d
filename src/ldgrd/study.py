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
from .polyspace import _check_degree
from .problems import get_problem

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

_NORMS = ("energy", "balanced")  # the norms with rates rs_<norm> and rp_<norm>
# The CSV's value columns: the report's errors (.6g), then the record's rates (.2f).
_ERRORS = ("err_energy", "err_balanced", "err_l2_u", "err_linf_u")
_RATES = tuple(f"r{rate}_{norm}" for norm in _NORMS for rate in "sp")
CSV_HEADER = ",".join(("dim", "k", "sigma", "eps", "N", *_ERRORS, *_RATES, "status"))


def _log_ratio(e_n: float, e_2n: float) -> float:
    if e_n <= 0.0 or e_2n <= 0.0:
        raise ValueError("errors must be positive to compute a rate")
    return math.log(e_n) - math.log(e_2n)


def rate_s(e_n: float, e_2n: float) -> float:
    """Observed order against N^{-1}: log(e_N / e_2N) / log 2."""
    return _log_ratio(e_n, e_2n) / math.log(2.0)


def rate_p(e_n: float, e_2n: float, n: int) -> float:
    """Observed order against N^{-1} ln N: log(e_N / e_2N) divided by the
    log-ratio of that factor between N and 2N, which needs N >= 3 (the
    factor is the same at N = 2 and 4)."""
    ratio = _log_ratio(e_n, e_2n)
    if n < 3:
        raise ValueError(f"N must be at least 3, got {n}")
    return ratio / math.log(2.0 * math.log(n) / math.log(2 * n))


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
        for k in self.degrees:
            _check_degree(k)
        for eps in self.eps_list:  # the problem checks its name and eps
            get_problem(self.problem, eps)
        for n in self.n_list:
            if not isinstance(n, numbers.Integral):
                raise ValueError(f"n_list must hold integers, got {n!r}")
            if n < 4 or n % 4 != 0:
                raise ValueError(f"every N must be a positive multiple of 4, got {n}")
        if self.sigma is not None and not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.flux not in ("paper", "classic"):
            raise ValueError(f"flux must be 'paper' or 'classic', got {self.flux!r}")

    @property
    def dim(self) -> int:  # one exact flux per axis
        return len(get_problem(self.problem, self.eps_list[0]).fluxes)

    def sigma_for(self, k: int) -> float:
        return float(k + 1) if self.sigma is None else float(self.sigma)


@dataclass
class ConvergenceRecord:
    """One (k, eps, N) case; rates maps names of _RATES to the rates observed
    against the 2N case, each only if both its errors lie above ROUNDOFF_FLOOR."""

    dim: int
    k: int
    sigma: float
    eps: float
    N: int
    status: str = "ok"
    report: ErrorReport | None = None
    rates: dict[str, float] = field(default_factory=dict)
    detail: str = field(default="", repr=False)


def _run_case(cfg: StudyConfig, k: int, eps: float, n: int) -> ConvergenceRecord:
    sigma = cfg.sigma_for(k)
    problem = get_problem(cfg.problem, eps)  # valid: the config checked it
    rec = ConvergenceRecord(dim=len(problem.fluxes), k=k, sigma=sigma, eps=eps, N=n)
    try:
        mesh = build_shishkin_1d(MeshParams(eps=eps, beta=problem.beta, sigma=sigma, N=n))
        jump = cfg.flux == "paper"
        if rec.dim == 2:
            mesh = build_tensor_2d(mesh, mesh)
        w = (solve_1d if rec.dim == 1 else solve_2d)(mesh, problem, k, jump)
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
        for (eps, n), rec in sorted(done.items()):
            records.append(rec)
            nxt = done.get((eps, 2 * n))
            if rec.report is None or nxt is None or nxt.report is None:
                continue
            for norm in _NORMS:
                e, e2 = (getattr(r.report, f"err_{norm}") for r in (rec, nxt))
                if e >= ROUNDOFF_FLOOR and e2 >= ROUNDOFF_FLOOR:
                    rec.rates[f"rs_{norm}"] = rate_s(e, e2)
                    rec.rates[f"rp_{norm}"] = rate_p(e, e2, n)
    return records


def _fmt(v, spec: str) -> str:
    return "" if v is None else format(v, spec)


def records_to_csv(records: list[ConvergenceRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.dim),
            str(r.k),
            format(r.sigma, ".6g"),
            format(r.eps, ".6g"),
            str(r.N),
            *(_fmt(getattr(r.report, c) if r.report else None, ".6g") for c in _ERRORS),
            *(_fmt(r.rates.get(c), ".2f") for c in _RATES),
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
                rs, rp = (_fmt(r.rates.get(c), ".2f") or "--"
                          for c in ("rs_balanced", "rp_balanced"))
                row.append(f"{r.report.err_balanced:>12.4e}{rs:>8s}{rp:>8s}")
            out.append("".join(row))
        out.append("")
    return "\n".join(out)
