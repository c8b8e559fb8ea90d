"""ldgrd benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload sweep1d --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

Run from the root of a checkout; ldgrd is imported from its ``src/`` tree.
Each run repeats the workload until ``--seconds`` are used up and reports
medians.  With ``--trace 0`` it reports the end-to-end metrics (tracing off);
with ``--trace 1`` it alternates untraced and traced executions and reports
the per-layer metrics.  Every execution is checked against the reference
captured at the benchmark's seed commit.  The last line of standard output
is one JSON object; the human-readable report goes to standard error, and
the full record (environment, samples, checks, spans) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Plain single-threaded run: pin BLAS threads before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import calibration  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, METRIC_UNITS, Tracer, clear_package_caches  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 7
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import ldgrd; "
              "print(repr(time.monotonic()))")
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "ok_ratio": "ratio"}


def measure_setup(samples: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import ldgrd``
    (with numpy and scipy) has finished; one discarded warm-up first."""
    src = str(workloads.ROOT / "src")
    out = []
    for i in range(samples + 1):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, src], capture_output=True,
                              text=True, timeout=120, cwd=workloads.ROOT, check=True)
        done = float(proc.stdout.strip().splitlines()[-1])
        if i:
            out.append(done - t0)
    return out


def environment(ldgrd) -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: cfg.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ldgrd": getattr(ldgrd, "__version__", None),
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def execute(workload, inputs: dict, traced: bool):
    """One execution from cold package caches.  Returns (wall seconds,
    outcome, tracer or None)."""
    clear_package_caches()
    gc.collect()
    if not traced:
        t0 = time.perf_counter()
        outcome = workload.execute(inputs)
        return time.perf_counter() - t0, outcome, None
    tracer = Tracer()
    with tracer:
        outcome = workload.execute(inputs)
    return tracer.wall, outcome, tracer


def basis_cache_entries() -> int:
    import ldgrd.polyspace
    cached = getattr(ldgrd.polyspace, "_basis_cached", None)
    return cached.cache_info().currsize if hasattr(cached, "cache_info") else 0


def layer_predictions(workload, m: dict) -> list[str]:
    """Soft checks of the layer predictions; misses are reported, not gated."""
    used = {
        "problems": m["problems.calls"], "polyspace": m["polyspace.basis_calls"],
        "assembly1d": m["assembly1d.calls"], "assembly2d": m["assembly2d.calls"],
        "linalg": m["linalg.fill_nnz"] or m["linalg.self_s"], "norms": m["norms.calls"],
        "projection": m["projection.calls"], "mesh": m["mesh.calls"],
        "study": m["study.self_s"], "cli": m["cli.self_s"],
    }
    misses = []
    for layer in LAYERS:
        if (layer in workload.uses) != bool(used[layer]):
            misses.append(f"{layer}: predicted {'used' if layer in workload.uses else 'unused'}")
    self_s = {layer: m.get(f"{layer}.self_s", 0.0) for layer in LAYERS}
    top = max(self_s, key=self_s.get)
    if top != workload.dominant:
        misses.append(f"largest self time in {top}, predicted {workload.dominant}")
    return misses


def run_workload(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    try:
        ldgrd = workloads.import_ldgrd()
        reference = gate.load_reference()
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = workload.inputs(args.seed)
    ref_key = workload.reference_key(inputs)
    ref_entry = reference["workloads"][workload.name].get(ref_key)
    if ref_entry is None:
        print(f"error: no reference for {workload.name} {ref_key}", file=sys.stderr)
        return 2
    traced = bool(args.trace)

    # Times are scaled to nominal machine speed by calibration bursts taken
    # before and after the set-up samples and after every untraced execution.
    calib_setup = calibration.burst()
    setup = [] if traced else measure_setup(SETUP_SAMPLES)
    calib_before = calibration.burst()
    setup_speed = 0.5 * (calib_setup + calib_before) / calibration.NOMINAL_S
    walls, traced_walls, layer_samples, spans = [], [], [], []
    hard, attempted, failed, ok, mismatches = [], 0, 0, 0, []
    case_sizes = {}
    speed = []  # machine-speed factor of each untraced execution
    start = time.perf_counter()
    rounds = []
    while True:
        r0 = time.perf_counter()
        for mode in ([False, True] if traced else [False]):
            wall, outcome, tracer = execute(workload, inputs, mode)
            if not mode:
                calib_after = calibration.burst()
                speed.append(0.5 * (calib_before + calib_after) / calibration.NOMINAL_S)
                calib_before = calib_after
            result = gate.compare(outcome, ref_entry)
            attempted += result["attempted"]
            failed += result["failed"]
            ok += result["ok"]
            mismatches += result["mismatches"][:10]
            if tracer is None:
                walls.append(wall)
                continue
            traced_walls.append(wall)
            layer_samples.append(tracer.metrics(basis_cache_entries()))
            hard += tracer.consistency()
            spans.append(tracer.span_dump())
            case_sizes.update(tracer.case_sizes)
        rounds.append(time.perf_counter() - r0)
        if time.perf_counter() - start + statistics.median(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if traced:
        metrics = {name: statistics.median(s[name] for s in layer_samples)
                   for name in layer_samples[0]}
        metrics["trace_overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        misses = layer_predictions(workload, metrics)
        units = METRIC_UNITS
    else:
        metrics = {"wall_s": statistics.median(w / f for w, f in zip(walls, speed)),
                   "peak_rss_mb": peak_rss_mb,
                   "setup_s": statistics.median(setup) / setup_speed, "ok_ratio": ok / attempted}
        misses = []
        units = END_TO_END
    correct = not mismatches and not hard
    if not case_sizes:
        case_sizes = dict(ref_entry.get("sizes", {}))
    record = {
        "workload": workload.name, "seed": args.seed, "inputs": inputs, "reference": ref_key,
        "seconds": args.seconds, "trace": int(traced), "correct": correct,
        "attempted": attempted, "failed": failed, "ok": ok,
        "metrics": metrics, "units": units,
        "raw_wall_s": statistics.median(walls),
        "raw_setup_s": statistics.median(setup) if setup else None,
        "setup_speed_factor": setup_speed,
        "samples": {"wall_s": walls, "speed_factor": speed, "traced_wall_s": traced_walls,
                    "setup_s": setup,
                    "layers": layer_samples},
        "mismatches": mismatches[:50], "trace_consistency": hard, "prediction_misses": misses,
        "case_sizes": case_sizes,
        "case_sizes_source": "measured in this traced run" if traced else "reference capture",
        "environment": environment(ldgrd),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{int(traced)}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(OUT_DIR / f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh)

    report(record)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0 if correct else 1


def metric_lines(rec: dict) -> list[str]:
    """One line per metric with its unit and what it is a median of, then
    the fail ratio with its base."""
    s = rec["samples"]
    basis = {"wall_s": f"median of {len(s['wall_s'])} executions at nominal speed; raw "
                       f"{rec['raw_wall_s']:.4f} s, speed factor {statistics.median(s['speed_factor']):.3f}",
             "setup_s": f"median of {len(s['setup_s'])} interpreters at nominal speed; raw "
                        f"{rec['raw_setup_s'] or 0:.4f} s, speed factor {rec['setup_speed_factor']:.3f}",
             "peak_rss_mb": "peak of the run process",
             "ok_ratio": f"over {rec['attempted']} cases"}
    traced = f"median of {len(s['layers'])} traced executions"
    lines = [f"{name:32s} {value:14.6g} {rec['units'][name]:6s} ({basis.get(name, traced)})"
             for name, value in rec["metrics"].items()]
    per_exec = rec["attempted"] // max(1, len(s["wall_s"]) + len(s["traced_wall_s"]))
    not_ok = rec["attempted"] - rec["ok"]
    lines.append(f"{'fail_ratio':32s} {not_ok / rec['attempted']:14.6g} {'ratio':6s} "
                 f"({not_ok} of {rec['attempted']} cases not ok or not matching the reference, "
                 f"{per_exec} per execution; {rec['failed']} differ from the reference)")
    return lines


def report(rec: dict) -> None:
    err = sys.stderr
    env = rec["environment"]
    s = rec["samples"]
    print(f"{rec['workload']} seed={rec['seed']} ({rec['reference']}) trace={rec['trace']}: "
          f"{len(s['wall_s'])} untraced + {len(s['traced_wall_s'])} traced executions; "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas'].get('name')} {env['blas'].get('version')}, threads pinned to 1, "
          f"nproc {env['nproc']}, {env['cpu_model']}", file=err)
    for line in metric_lines(rec):
        print(f"  {line}", file=err)
    for line in rec["mismatches"][:10] + rec["trace_consistency"]:
        print(f"  MISMATCH {line}", file=err)
    for line in rec["prediction_misses"]:
        print(f"  prediction missed: {line}", file=err)


def run_all(args) -> int:
    """Each workload in its own process, then a summary table on standard
    error and one JSON line with every workload's result."""
    results, lines, code = {}, [], 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=workloads.ROOT)
        out = proc.stdout.strip().splitlines()
        results[name] = json.loads(out[-1]) if out else None
        if proc.returncode or results[name] is None or not results[name]["correct"]:
            code = 1
            lines.append(f"{name:10s} FAILED (exit code {proc.returncode})")
            continue
        with open(OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json") as fh:
            lines += [f"{name:10s} {line}" for line in metric_lines(json.load(fh))]
    print("\n".join(lines), file=sys.stderr)
    print(json.dumps({"correct": code == 0, "workloads": results}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
