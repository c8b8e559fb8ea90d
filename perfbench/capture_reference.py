"""Capture the correctness reference of every workload: full-precision
values and status of every case, for every eps in the seed pool.

    python3 perfbench/capture_reference.py

Run once, at the commit the benchmark was defined on; later commits are
compared against the committed ``reference.json``.  Each input is run once
untraced and once traced: the traced run records the unknown count and nnz
of every assembled case, and the largest relative difference between the two
runs is recorded as the measured LU-vs-LU repeat difference.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, clear_package_caches  # noqa: E402


def max_rel_diff(a, b) -> float:
    worst = 0.0
    for key, case in a.cases.items():
        for name, v in case["values"].items():
            w = b.cases[key]["values"][name]
            if v != w:
                worst = max(worst, abs(v - w) / abs(w) if w else float("inf"))
    return worst


def main() -> int:
    workloads.import_ldgrd()
    out = {"rel_tol": gate.REL_TOL, "eps_pool": list(workloads.EPS_POOL), "workloads": {}}
    repeat = 0.0
    for name, workload in workloads.WORKLOADS.items():
        entries = {}
        seeds = [0] if name == "sweep1d" else range(len(workloads.EPS_POOL))
        for seed in seeds:
            inputs = workload.inputs(seed)
            key = workload.reference_key(inputs)
            clear_package_caches()
            plain = workload.execute(inputs)
            clear_package_caches()
            tracer = Tracer()
            with tracer:
                traced = workload.execute(inputs)
            if tracer.unrestored or set(plain.cases) != set(traced.cases):
                raise SystemExit(f"traced run of {name} {key} differs in structure")
            for k in plain.cases:
                if plain.cases[k]["status"] != traced.cases[k]["status"]:
                    raise SystemExit(f"{name} {key} {k}: status differs between runs")
            repeat = max(repeat, max_rel_diff(plain, traced))
            entries[key] = {"exit_code": plain.exit_code, "cases": plain.cases,
                            "sizes": tracer.case_sizes}
            print(f"{name} {key}: {len(plain.cases)} cases", file=sys.stderr)
        out["workloads"][name] = entries
    out["repeat_max_rel_diff"] = repeat
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(f"wrote {gate.REFERENCE_PATH.name}; largest repeat difference {repeat!r}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
