"""Command-line driver for convergence sweeps."""

from __future__ import annotations

import argparse
import contextlib
import sys

from .problems import PROBLEM_NAMES
from .study import StudyConfig, records_to_csv, records_to_table, run_study


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(",") if s.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(",") if s.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldg-study",
        description="Convergence study for the LDG reaction-diffusion solver "
                    "on layer-adapted meshes.",
    )
    parser.add_argument("--dim", type=int, choices=(1, 2), default=None,
                        help="optional; must match the dimension of --problem")
    parser.add_argument("--degree", type=_int_list, default=(1,),
                        help="comma-separated polynomial degrees, e.g. 1,2,3")
    parser.add_argument("--eps", type=_float_list, default=(1e-8,),
                        help="comma-separated perturbation parameters")
    parser.add_argument("--N", type=_int_list, default=(32, 64, 128),
                        help="comma-separated cell counts (multiples of 4)")
    parser.add_argument("--sigma", default="k+1",
                        help="mesh grading constant; the default rule 'k+1' "
                             "ties it to the degree")
    parser.add_argument("--problem", default="layer1d", choices=tuple(PROBLEM_NAMES))
    parser.add_argument("--flux", default="paper", choices=("paper", "classic"),
                        help="'classic' drops the interior jump penalty")
    parser.add_argument("--format", dest="fmt", default="table", choices=("csv", "table"))
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sigma = None if str(args.sigma).strip() == "k+1" else float(args.sigma)
        cfg = StudyConfig(
            degrees=tuple(args.degree),
            eps_list=tuple(args.eps),
            n_list=tuple(args.N),
            sigma=sigma,
            problem=args.problem,
            flux=args.flux,
        )
        if args.dim not in (None, cfg.dim):
            raise ValueError(f"--dim {args.dim} does not fit the {cfg.dim}D problem {cfg.problem!r}")
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with out as fh:
        records = run_study(cfg)
        fh.write(records_to_csv(records) if args.fmt == "csv" else records_to_table(records))

    failures = [r for r in records if r.status != "ok"]
    for r in failures:
        print(f"case k={r.k} eps={r.eps:g} N={r.N} failed: {r.status} {r.detail}",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
