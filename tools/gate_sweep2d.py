"""Check the benchmark's sweep2d workload against its reference at every eps of
`perfbench/workloads.EPS_POOL`, with the benchmark's own gate
(`perfbench/gate.py`); `perfbench/run.py --seed` reaches only the first three.

    python3 tools/gate_sweep2d.py /path/to/tree

Imports `perfbench/` and `src/ldgrd` from the given tree.  Prints, per eps,
the failed and ok case counts, the worst relative deviation of any value from
the reference and every mismatch; the exit status is 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path


def worst_deviation(outcome, ref_entry: dict) -> float:
    """max |value - reference| / |reference| over the nonzero reference
    values; inf where a value is missing."""
    worst = 0.0
    for key, ref in ref_entry["cases"].items():
        got = outcome.cases.get(key, {}).get("values", {})
        for name, rv in ref["values"].items():
            if rv:
                gv = got.get(name)
                worst = max(worst, math.inf if gv is None else abs(gv - rv) / abs(rv))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="source tree with perfbench/ and src/ldgrd")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "perfbench"))
    # The 2D solutions' last bits depend on the BLAS thread count; importing
    # the benchmark's runner pins it to one before numpy is imported.
    import run  # noqa: F401
    import gate
    import workloads

    workloads.import_ldgrd()
    sweep2d, reference = workloads.WORKLOADS["sweep2d"], gate.load_reference()["workloads"]
    status = 0
    for eps in workloads.EPS_POOL:
        inputs = {"argv": workloads.SWEEP2D_ARGV + ["--eps", repr(eps)]}
        ref_entry = reference["sweep2d"][sweep2d.reference_key(inputs)]
        outcome = sweep2d.execute(inputs)
        result = gate.compare(outcome, ref_entry)
        print(f"eps={eps!r}: {result['failed']} failed, {result['ok']} ok of "
              f"{result['attempted']}; worst relative deviation "
              f"{worst_deviation(outcome, ref_entry):.3g}")
        for line in result["mismatches"]:
            print(f"  {line}")
        status |= bool(result["mismatches"])
    return status


if __name__ == "__main__":
    raise SystemExit(main())
