"""Run the benchmark alternately from two source trees and summarize the pairs.

Each pair runs `perfbench/run.py --trace 0` once from the parent tree and once
from the change tree, each in its own process with the tree as working
directory; odd pairs (1, 3, ...) run the parent first, even pairs the change.
For every workload and end-to-end metric it prints, as one JSON object, the
per-run values of both sides, their medians and quartile spreads
(statistics.quantiles(n=4), Q3 - Q1), and the number of pairs in which the
change is lower, in the shape of the committed `BENCH_*.json` records:

    python3 tools/bench_pairs.py /path/to/parent . --workload sweep1d --pairs 10
    python3 tools/bench_pairs.py /path/to/parent . --workload all --seconds 10 > pairs.json

Both trees need `perfbench/` and `src/ldgrd`.  Progress goes to standard
error; the exit status is 1 if any run fails or reports `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep1d", "sweep2d", "interp")
METRICS = ("wall_s", "peak_rss_mb", "setup_s", "ok_ratio")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary line of one untraced benchmark run from tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per metric: both sides' values, medians, spreads and the change's wins."""
    out = {"all_correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()}}
    for metric in METRICS:
        vals = {side: [round(r["metrics"][metric]["value"], 5) for r in rs
                       if metric in r["metrics"]] for side, rs in runs.items()}
        if len(vals["parent"]) < 2 or len(vals["parent"]) != len(vals["change"]):
            continue
        out[metric] = {
            "parent": vals["parent"], "change": vals["change"],
            "parent_median": round(statistics.median(vals["parent"]), 5),
            "change_median": round(statistics.median(vals["change"]), 5),
            "parent_iqr": round(_iqr(vals["parent"]), 5),
            "change_iqr": round(_iqr(vals["change"]), 5),
            "change_lower_in_pairs": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="tree of the parent commit")
    parser.add_argument("change", type=Path, help="tree of the change")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        runs = {"parent": [], "change": []}
        for i in range(1, args.pairs + 1):
            for side in ("parent", "change") if i % 2 else ("change", "parent"):
                r = run_once(trees[side], workload, args.seed, args.seconds)
                runs[side].append(r)
                wall = r["metrics"].get("wall_s", {}).get("value", float("nan"))
                print(f"{workload} pair {i} {side}: wall_s {wall:.4f} correct {r['correct']}",
                      file=sys.stderr)
        result[f"{workload}_seed{args.seed}"] = summarize(runs)
    print(json.dumps(result, indent=2))
    ok = all(all(s["all_correct"].values()) for s in result.values())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
