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
    python3 tools/bench_pairs.py /path/to/parent . --claim wall_s

With each metric's `better` and `bound` from the change tree's BENCHMARK.json
it also states the verdicts:
- `move`: the change's median minus the parent's, as a fraction of the
  parent's median, signed so that positive is worse;
- `bound`, and `within_bound`: true when the move is at most the bound.  It
  reads "unresolved" when the parent's IQR, as a fraction of its median, is
  wider than the bound, unless every change run beats every parent run;
- with `--claim METRIC`, `claim_met` for that metric: the change is better
  in at least 9 of 10 pairs (ties count for neither), and better in the
  median by more than the parent's IQR.

Both trees need `perfbench/` and `src/ldgrd`.  Progress goes to standard
error; the exit status is 1 if any run fails or reports `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import math
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


def load_spec(tree: Path) -> dict[str, dict]:
    """The end-to-end metrics of tree's BENCHMARK.json, by name."""
    return {m["name"]: m for m in json.loads((tree / "BENCHMARK.json").read_text())["end_to_end"]}


def summarize(runs: dict[str, list[dict]], spec: dict[str, dict], claim: str | None = None) -> dict:
    """Per metric: both sides' values, medians, spreads, the change's wins and
    the verdicts against spec (see the module docstring)."""
    out = {"all_correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()}}
    for metric in METRICS:
        vals = {side: [round(r["metrics"][metric]["value"], 5) for r in rs
                       if metric in r["metrics"]] for side, rs in runs.items()}
        p, c = vals["parent"], vals["change"]
        if len(p) < 2 or len(p) != len(c):
            continue
        sign = 1.0 if spec[metric]["better"] == "lower" else -1.0  # sign * value: lower is better
        p_med, c_med, p_iqr, bound = (statistics.median(p), statistics.median(c), _iqr(p),
                                      spec[metric]["bound"])
        delta = c_med - p_med if sign > 0 else p_med - c_med  # positive is worse
        move = delta / abs(p_med) if p_med else math.copysign(math.inf, delta) if delta else 0.0
        if max(sign * x for x in c) < min(sign * x for x in p):
            within = True
        elif p_iqr > bound * abs(p_med):
            within = "unresolved"
        else:
            within = move <= bound
        out[metric] = {
            "parent": p, "change": c,
            "parent_median": round(p_med, 5), "change_median": round(c_med, 5),
            "parent_iqr": round(p_iqr, 5), "change_iqr": round(_iqr(c), 5),
            "change_lower_in_pairs": sum(y < x for x, y in zip(p, c)),
            "move": round(move, 5), "bound": bound, "within_bound": within,
        }
        if metric == claim:
            wins = sum(sign * y < sign * x for x, y in zip(p, c))
            out[metric]["claim_met"] = wins >= math.ceil(0.9 * len(p)) and -delta > p_iqr
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="tree of the parent commit")
    parser.add_argument("change", type=Path, help="tree of the change")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--claim", choices=METRICS, help="the metric whose gain is claimed")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = load_spec(trees["change"])
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
        result[f"{workload}_seed{args.seed}"] = summarize(runs, spec, args.claim)
    print(json.dumps(result, indent=2))
    ok = all(all(s["all_correct"].values()) for s in result.values())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
